//! IPv4 headers (RFC 791) with checksum generation and verification.
//!
//! Options are accepted on parse (skipped via IHL) but never emitted; the
//! simulators send option-free 20-byte headers, matching the traces the
//! paper analyzed.

use crate::checksum;
use crate::{Result, WireError};
use core::fmt;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Builds an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr([a, b, c, d])
    }

    /// A test-network (RFC 5737) address derived from a small host id:
    /// `192.0.2.<id>`.
    pub const fn from_host_id(id: u8) -> Ipv4Addr {
        Ipv4Addr([192, 0, 2, id])
    }

    /// The address as a big-endian `u32`, as used in checksums.
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// IP protocol numbers this crate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17) — recognized but unused by the simulators.
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(v: IpProtocol) -> u8 {
        match v {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(other) => other,
        }
    }
}

/// Length of an option-free IPv4 header in bytes.
pub const HEADER_LEN: usize = 20;

/// A decoded IPv4 header (options, if any, are skipped and not retained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Time-to-live.
    pub ttl: u8,
    /// Identification field (used by some TCPs as a packet counter; tcpanaly
    /// uses it to tell retransmitted *packets* from duplicated *records*).
    pub ident: u16,
    /// Payload length in bytes (total length minus header length).
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Parses the header from the front of `packet`, verifying the header
    /// checksum, and returns the header and the payload slice.
    ///
    /// The payload slice ends at the total length, dropping trailing
    /// padding (common with Ethernet minimum-size frames). A total length
    /// past the end of the buffer is a payload cut by a capture snap
    /// length: the slice is then whatever was captured, and `payload_len`
    /// still reports the length on the wire.
    pub fn parse(packet: &[u8]) -> Result<(Ipv4Repr, &[u8])> {
        if packet.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let version = packet[0] >> 4;
        if version != 4 {
            return Err(WireError::BadValue);
        }
        let ihl = usize::from(packet[0] & 0x0f) * 4;
        if ihl < HEADER_LEN || packet.len() < ihl {
            return Err(WireError::BadLength);
        }
        if !checksum::verify(&packet[..ihl]) {
            return Err(WireError::BadChecksum);
        }
        let total_len = usize::from(u16::from_be_bytes([packet[2], packet[3]]));
        if total_len < ihl {
            return Err(WireError::BadLength);
        }
        let repr = Ipv4Repr {
            src: Ipv4Addr([packet[12], packet[13], packet[14], packet[15]]),
            dst: Ipv4Addr([packet[16], packet[17], packet[18], packet[19]]),
            protocol: packet[9].into(),
            ttl: packet[8],
            ident: u16::from_be_bytes([packet[4], packet[5]]),
            payload_len: total_len - ihl,
        };
        let end = total_len.min(packet.len());
        Ok((repr, &packet[ihl..end]))
    }

    /// Appends the encoded 20-byte header (checksum filled in) to `buf`.
    ///
    /// `self.payload_len` must already reflect the payload that the caller
    /// will append after the header.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        let total_len = (HEADER_LEN + self.payload_len) as u16;
        let start = buf.len();
        buf.push(0x45); // version 4, IHL 5
        buf.push(0); // DSCP/ECN
        buf.extend_from_slice(&total_len.to_be_bytes());
        buf.extend_from_slice(&self.ident.to_be_bytes());
        buf.extend_from_slice(&[0x40, 0x00]); // flags: DF, fragment offset 0
        buf.push(self.ttl);
        buf.push(self.protocol.into());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&self.src.0);
        buf.extend_from_slice(&self.dst.0);
        let ck = checksum::checksum(&buf[start..start + HEADER_LEN]);
        buf[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::from_host_id(1),
            dst: Ipv4Addr::from_host_id(2),
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 0x1234,
            payload_len: 8,
        }
    }

    #[test]
    fn round_trip() {
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2]);
        let (parsed, payload) = Ipv4Repr::parse(&buf).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(payload, &[9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn trailing_padding_is_stripped() {
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(&[1; 8]);
        buf.extend_from_slice(&[0; 18]); // Ethernet pad
        let (_, payload) = Ipv4Repr::parse(&buf).unwrap();
        assert_eq!(payload.len(), 8);
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf[8] ^= 0xff; // flip TTL
        assert_eq!(Ipv4Repr::parse(&buf).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn non_v4_rejected() {
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf[0] = 0x65; // version 6
        assert_eq!(Ipv4Repr::parse(&buf).unwrap_err(), WireError::BadValue);
    }

    #[test]
    fn bad_total_length_rejected() {
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(&[7; 3]);
        // Total length claims 28 bytes but a snap length kept 23: the
        // payload is what was captured, its length what was sent.
        let (parsed, payload) = Ipv4Repr::parse(&buf).unwrap();
        assert_eq!(parsed.payload_len, 8);
        assert_eq!(payload, &[7; 3]);
        // A total length shorter than the header is malformed.
        buf[2..4].copy_from_slice(&16u16.to_be_bytes());
        buf[10..12].fill(0);
        let ck = checksum::checksum(&buf[..HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(Ipv4Repr::parse(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn ihl_with_options_skipped() {
        // Hand-build a 24-byte header (IHL=6) with a NOP-padded option area.
        let mut buf = vec![
            0x46, 0x00, 0x00, 0x1c, // v4 ihl6, len 28
            0x00, 0x01, 0x40, 0x00, // ident 1, DF
            0x40, 0x06, 0x00, 0x00, // ttl 64, tcp, ck placeholder
            192, 0, 2, 1, // src
            192, 0, 2, 2, // dst
            0x01, 0x01, 0x01, 0x01, // four NOP options
        ];
        let ck = checksum::checksum(&buf);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        buf.extend_from_slice(&[0xaa; 4]);
        let (repr, payload) = Ipv4Repr::parse(&buf).unwrap();
        assert_eq!(repr.payload_len, 4);
        assert_eq!(payload, &[0xaa; 4]);
    }
}
