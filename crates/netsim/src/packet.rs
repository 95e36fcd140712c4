//! The simulator's packet representation.
//!
//! The simulator moves *structured* packets (decoded headers), not byte
//! buffers — the analyzer only ever consumes decoded headers, and keeping
//! packets structured lets a "corrupt" packet be a flag rather than actual
//! bit damage (the pcap writer in `tcpa-trace` can materialize real damage
//! when serializing).

use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, TcpRepr};

/// What a packet carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketKind {
    /// A TCP segment.
    Tcp {
        /// The TCP header.
        tcp: TcpRepr,
        /// Payload length in bytes (contents are never modeled).
        payload_len: u32,
        /// `true` if the payload was damaged in flight; the receiving TCP
        /// will discard the segment, and a full-payload capture will show
        /// a failed checksum.
        corrupt: bool,
    },
    /// An ICMP source quench addressed to the sending TCP (§6.2). It is
    /// invisible to TCP-only packet filters by construction.
    SourceQuench,
}

/// One packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Engine-assigned unique id (0 until the packet first enters a link).
    /// Ground truth and taps are correlated through this.
    pub uid: u64,
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// IP identification field; TCP endpoints typically increment this per
    /// packet, which lets the analyzer distinguish a retransmitted packet
    /// (new ident) from a duplicated trace record (same ident).
    pub ident: u16,
    /// Contents.
    pub kind: PacketKind,
}

impl Packet {
    /// Builds a TCP packet.
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, tcp: TcpRepr, payload_len: u32) -> Packet {
        Packet {
            uid: 0,
            src,
            dst,
            ident,
            kind: PacketKind::Tcp {
                tcp,
                payload_len,
                corrupt: false,
            },
        }
    }

    /// Builds a source-quench control packet.
    pub fn source_quench(src: Ipv4Addr, dst: Ipv4Addr) -> Packet {
        Packet {
            uid: 0,
            src,
            dst,
            ident: 0,
            kind: PacketKind::SourceQuench,
        }
    }

    /// `true` if this is a TCP segment.
    pub fn is_tcp(&self) -> bool {
        matches!(self.kind, PacketKind::Tcp { .. })
    }

    /// The total size on the wire: Ethernet + IP + payload headers.
    pub fn wire_len(&self) -> u32 {
        let ip_payload = match &self.kind {
            PacketKind::Tcp {
                tcp, payload_len, ..
            } => tcp.header_len() as u32 + payload_len,
            // ICMP header + quoted IP header + 8 bytes.
            PacketKind::SourceQuench => 8 + 20 + 8,
        };
        14 + 20 + ip_payload
    }

    /// The IPv4 header this packet would carry on the wire.
    pub fn ip_repr(&self) -> Ipv4Repr {
        let (protocol, ip_payload) = match &self.kind {
            PacketKind::Tcp {
                tcp, payload_len, ..
            } => (IpProtocol::Tcp, tcp.header_len() as u32 + payload_len),
            PacketKind::SourceQuench => (IpProtocol::Icmp, 8 + 20 + 8),
        };
        Ipv4Repr {
            src: self.src,
            dst: self.dst,
            protocol,
            ttl: 64,
            ident: self.ident,
            payload_len: ip_payload as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_wire::TcpFlags;

    #[test]
    fn wire_len_counts_all_headers() {
        let mut tcp = TcpRepr::new(1000, 2000);
        tcp.flags = TcpFlags::ACK;
        let pkt = Packet::tcp(
            Ipv4Addr::from_host_id(1),
            Ipv4Addr::from_host_id(2),
            1,
            tcp,
            512,
        );
        // 14 eth + 20 ip + 20 tcp + 512 payload
        assert_eq!(pkt.wire_len(), 566);
    }

    #[test]
    fn source_quench_is_not_tcp() {
        let pkt = Packet::source_quench(Ipv4Addr::from_host_id(9), Ipv4Addr::from_host_id(1));
        assert!(!pkt.is_tcp());
        assert_eq!(pkt.ip_repr().protocol, IpProtocol::Icmp);
    }

    #[test]
    fn ip_repr_reflects_tcp_options() {
        let mut tcp = TcpRepr::new(1, 2);
        tcp.mss = Some(1460);
        let pkt = Packet::tcp(
            Ipv4Addr::from_host_id(1),
            Ipv4Addr::from_host_id(2),
            7,
            tcp,
            0,
        );
        assert_eq!(pkt.ip_repr().payload_len, 24);
        assert_eq!(pkt.ip_repr().ident, 7);
    }
}
