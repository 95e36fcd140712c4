//! TCP headers, flags and options (RFC 793, RFC 1323, RFC 2018).
//!
//! The checksum covers the IPv4 pseudo-header, the TCP header (with its
//! options) and the payload; [`TcpRepr::emit`] fills it in and
//! [`TcpRepr::parse`] can optionally verify it — "optionally" because the
//! paper's packet filters frequently recorded only headers ("snap length"),
//! in which case the payload bytes needed for verification are missing and
//! corruption must instead be *inferred* from receiver behavior (§7).

use crate::checksum::Checksum;
use crate::ipv4::Ipv4Addr;
use crate::seq::SeqNum;
use crate::{Result, WireError};
use core::fmt;

/// TCP header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: sender is finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: the urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Returns `true` if every bit of `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Convenience accessors for the individual bits.
    pub fn syn(self) -> bool {
        self.contains(Self::SYN)
    }
    /// FIN bit.
    pub fn fin(self) -> bool {
        self.contains(Self::FIN)
    }
    /// RST bit.
    pub fn rst(self) -> bool {
        self.contains(Self::RST)
    }
    /// ACK bit.
    pub fn ack(self) -> bool {
        self.contains(Self::ACK)
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (Self::SYN, "S"),
            (Self::FIN, "F"),
            (Self::RST, "R"),
            (Self::PSH, "P"),
            (Self::ACK, "."),
            (Self::URG, "U"),
        ] {
            if self.contains(bit) {
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A single TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// End of option list (kind 0).
    EndOfList,
    /// No-operation padding (kind 1).
    Nop,
    /// Maximum segment size (kind 2), SYN segments only.
    Mss(u16),
    /// Window scale shift count (kind 3, RFC 1323).
    WindowScale(u8),
    /// SACK permitted (kind 4, RFC 2018).
    SackPermitted,
    /// SACK blocks (kind 5, RFC 2018); each block is `[left, right)`.
    Sack(Vec<(SeqNum, SeqNum)>),
    /// Timestamps (kind 8, RFC 1323).
    Timestamps {
        /// Sender's timestamp value.
        tsval: u32,
        /// Echo of the peer's most recent timestamp.
        tsecr: u32,
    },
    /// Any option this crate does not interpret, preserved verbatim
    /// (kind, payload-after-length).
    Unknown(u8, Vec<u8>),
}

impl TcpOption {
    fn encoded_len(&self) -> usize {
        match self {
            TcpOption::EndOfList | TcpOption::Nop => 1,
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Sack(blocks) => 2 + 8 * blocks.len(),
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Unknown(_, data) => 2 + data.len(),
        }
    }

    fn emit(&self, buf: &mut Vec<u8>) {
        match self {
            TcpOption::EndOfList => buf.push(0),
            TcpOption::Nop => buf.push(1),
            TcpOption::Mss(mss) => {
                buf.extend_from_slice(&[2, 4]);
                buf.extend_from_slice(&mss.to_be_bytes());
            }
            TcpOption::WindowScale(shift) => buf.extend_from_slice(&[3, 3, *shift]),
            TcpOption::SackPermitted => buf.extend_from_slice(&[4, 2]),
            TcpOption::Sack(blocks) => {
                buf.extend_from_slice(&[5, (2 + 8 * blocks.len()) as u8]);
                for (left, right) in blocks {
                    buf.extend_from_slice(&left.0.to_be_bytes());
                    buf.extend_from_slice(&right.0.to_be_bytes());
                }
            }
            TcpOption::Timestamps { tsval, tsecr } => {
                buf.extend_from_slice(&[8, 10]);
                buf.extend_from_slice(&tsval.to_be_bytes());
                buf.extend_from_slice(&tsecr.to_be_bytes());
            }
            TcpOption::Unknown(kind, data) => {
                buf.push(*kind);
                buf.push((2 + data.len()) as u8);
                buf.extend_from_slice(data);
            }
        }
    }

    /// Parses the option area of a TCP header.
    fn parse_all(mut area: &[u8]) -> Result<Vec<TcpOption>> {
        let mut options = Vec::new();
        while let Some(&kind) = area.first() {
            match kind {
                // End-of-list terminates parsing; it is padding rather than
                // a semantic option, so it is not recorded.
                0 => break,
                1 => {
                    options.push(TcpOption::Nop);
                    area = &area[1..];
                }
                _ => {
                    if area.len() < 2 {
                        return Err(WireError::Truncated);
                    }
                    let len = usize::from(area[1]);
                    if len < 2 || len > area.len() {
                        return Err(WireError::BadLength);
                    }
                    let body = &area[2..len];
                    options.push(match (kind, body.len()) {
                        (2, 2) => TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])),
                        (3, 1) => TcpOption::WindowScale(body[0]),
                        (4, 0) => TcpOption::SackPermitted,
                        (5, n) if n % 8 == 0 => {
                            let blocks = body
                                .chunks_exact(8)
                                .map(|c| {
                                    (
                                        SeqNum(u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
                                        SeqNum(u32::from_be_bytes([c[4], c[5], c[6], c[7]])),
                                    )
                                })
                                .collect();
                            TcpOption::Sack(blocks)
                        }
                        (8, 8) => TcpOption::Timestamps {
                            tsval: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            tsecr: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        },
                        _ => TcpOption::Unknown(kind, body.to_vec()),
                    });
                    area = &area[len..];
                }
            }
        }
        Ok(options)
    }
}

/// Length of an option-free TCP header in bytes.
pub const HEADER_LEN: usize = 20;

/// A decoded TCP header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgment number (meaningful when `flags.ack()`).
    pub ack: SeqNum,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised (offered) receive window, unscaled.
    pub window: u16,
    /// Urgent pointer (carried verbatim; the simulators never set URG).
    pub urgent: u16,
    /// Options in wire order.
    pub options: Vec<TcpOption>,
}

impl TcpRepr {
    /// A minimal header with the given ports; other fields zeroed.
    pub fn new(src_port: u16, dst_port: u16) -> TcpRepr {
        TcpRepr {
            src_port,
            dst_port,
            seq: SeqNum::ZERO,
            ack: SeqNum::ZERO,
            flags: TcpFlags::default(),
            window: 0,
            urgent: 0,
            options: Vec::new(),
        }
    }

    /// Returns the MSS option value if present.
    pub fn mss_option(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// Header length including options, padded to a multiple of 4.
    ///
    /// The TCP data-offset field is four bits, capping the header at 60
    /// bytes (40 bytes of options); [`TcpRepr::emit`] asserts this.
    pub fn header_len(&self) -> usize {
        let opt_len: usize = self.options.iter().map(TcpOption::encoded_len).sum();
        HEADER_LEN + opt_len.div_ceil(4) * 4
    }

    /// Parses a TCP header from the front of `segment`, returning the
    /// header and the payload slice. The checksum is **not** verified here;
    /// use [`TcpRepr::verify_checksum`] when the full payload was captured.
    pub fn parse(segment: &[u8]) -> Result<(TcpRepr, &[u8])> {
        if segment.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let data_offset = usize::from(segment[12] >> 4) * 4;
        if data_offset < HEADER_LEN || data_offset > segment.len() {
            return Err(WireError::BadLength);
        }
        let repr = TcpRepr {
            src_port: u16::from_be_bytes([segment[0], segment[1]]),
            dst_port: u16::from_be_bytes([segment[2], segment[3]]),
            seq: SeqNum(u32::from_be_bytes([
                segment[4], segment[5], segment[6], segment[7],
            ])),
            ack: SeqNum(u32::from_be_bytes([
                segment[8],
                segment[9],
                segment[10],
                segment[11],
            ])),
            flags: TcpFlags(segment[13] & 0x3f),
            window: u16::from_be_bytes([segment[14], segment[15]]),
            urgent: u16::from_be_bytes([segment[18], segment[19]]),
            options: TcpOption::parse_all(&segment[HEADER_LEN..data_offset])?,
        };
        Ok((repr, &segment[data_offset..]))
    }

    /// Appends the encoded header (checksum filled in) and `payload` to
    /// `buf`. `src` and `dst` are the IPv4 addresses for the pseudo-header.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8], buf: &mut Vec<u8>) {
        let start = buf.len();
        let header_len = self.header_len();
        assert!(
            header_len <= 60,
            "TCP options exceed the 40-byte limit imposed by the 4-bit data offset"
        );
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&self.seq.0.to_be_bytes());
        buf.extend_from_slice(&self.ack.0.to_be_bytes());
        buf.push(((header_len / 4) as u8) << 4);
        buf.push(self.flags.0);
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&self.urgent.to_be_bytes());
        for opt in &self.options {
            opt.emit(buf);
        }
        while buf.len() - start < header_len {
            buf.push(0); // EOL padding
        }
        buf.extend_from_slice(payload);
        let ck = Self::compute_checksum(src, dst, &buf[start..]);
        buf[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Computes the TCP checksum over pseudo-header + `segment` (whose
    /// checksum field must be zero, or whose existing checksum folds in to
    /// make a verification result).
    pub fn compute_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
        let mut ck = Checksum::new();
        ck.add_u32(src.to_u32());
        ck.add_u32(dst.to_u32());
        ck.add_u16(6); // zero byte + protocol number
        ck.add_u16(segment.len() as u16);
        ck.add_bytes(segment);
        ck.finish()
    }

    /// Verifies the checksum of a complete captured segment.
    pub fn verify_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
        Self::compute_checksum(src, dst, segment) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::from_host_id(1), Ipv4Addr::from_host_id(2))
    }

    fn sample() -> TcpRepr {
        TcpRepr {
            src_port: 1025,
            dst_port: 9000,
            seq: SeqNum(0x0102_0304),
            ack: SeqNum(0x0a0b_0c0d),
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 8192,
            urgent: 0,
            options: Vec::new(),
        }
    }

    #[test]
    fn round_trip_no_options() {
        let (src, dst) = addrs();
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(src, dst, b"hello", &mut buf);
        assert!(TcpRepr::verify_checksum(src, dst, &buf));
        let (parsed, payload) = TcpRepr::parse(&buf).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn round_trip_all_options() {
        let (src, dst) = addrs();
        let mut repr = sample();
        repr.flags = TcpFlags::SYN;
        repr.options = vec![
            TcpOption::Mss(1460),
            TcpOption::Nop,
            TcpOption::WindowScale(3),
            TcpOption::SackPermitted,
            TcpOption::Timestamps {
                tsval: 12345,
                tsecr: 0,
            },
            TcpOption::Sack(vec![(SeqNum(100), SeqNum(200)), (SeqNum(300), SeqNum(400))]),
        ];
        let mut buf = Vec::new();
        repr.emit(src, dst, &[], &mut buf);
        assert!(TcpRepr::verify_checksum(src, dst, &buf));
        let (parsed, payload) = TcpRepr::parse(&buf).unwrap();
        assert!(payload.is_empty());
        assert_eq!(parsed.mss_option(), Some(1460));
        assert_eq!(parsed.options.len(), repr.options.len());
        assert_eq!(parsed.options, repr.options);
    }

    #[test]
    fn header_len_is_padded_to_word() {
        let mut repr = sample();
        repr.options = vec![TcpOption::WindowScale(2)]; // 3 bytes -> pads to 4
        assert_eq!(repr.header_len(), 24);
        let mut buf = Vec::new();
        let (src, dst) = addrs();
        repr.emit(src, dst, &[], &mut buf);
        assert_eq!(buf.len(), 24);
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let (src, dst) = addrs();
        let repr = sample();
        let mut buf = Vec::new();
        repr.emit(src, dst, b"payload bytes", &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(!TcpRepr::verify_checksum(src, dst, &buf));
    }

    #[test]
    fn truncated_and_bad_offset_rejected() {
        assert_eq!(TcpRepr::parse(&[0; 10]).unwrap_err(), WireError::Truncated);
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        sample().emit(src, dst, &[], &mut buf);
        buf[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(TcpRepr::parse(&buf).unwrap_err(), WireError::BadLength);
        buf[12] = 0xf0; // data offset 60 bytes > segment
        assert_eq!(TcpRepr::parse(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn unknown_option_preserved() {
        let (src, dst) = addrs();
        let mut repr = sample();
        repr.options = vec![TcpOption::Unknown(253, vec![1, 2, 3, 4, 5, 6])];
        let mut buf = Vec::new();
        repr.emit(src, dst, &[], &mut buf);
        let (parsed, _) = TcpRepr::parse(&buf).unwrap();
        assert_eq!(
            parsed.options[0],
            TcpOption::Unknown(253, vec![1, 2, 3, 4, 5, 6])
        );
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "S.");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }

    #[test]
    fn option_area_errors() {
        // Option with length 0 is malformed.
        let mut buf = Vec::new();
        let (src, dst) = addrs();
        let mut repr = sample();
        repr.options = vec![TcpOption::Nop; 4];
        repr.emit(src, dst, &[], &mut buf);
        buf[20] = 2; // MSS kind...
        buf[21] = 0; // ...with length 0
                     // restore checksum irrelevant; parse doesn't verify
        assert_eq!(TcpRepr::parse(&buf).unwrap_err(), WireError::BadLength);
    }
}
