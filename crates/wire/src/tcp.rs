//! TCP headers and flags (RFC 793), with the one option tcpanaly reads:
//! the maximum segment size a SYN offers.
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

/// Length of an option-free TCP header in bytes.
pub const HEADER_LEN: usize = 20;

/// Option kind of the maximum segment size (RFC 793).
const MSS_KIND: u8 = 2;

/// Encoded length of the MSS option: kind, length and a 16-bit value.
const MSS_LEN: usize = 4;

/// A decoded TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// The maximum segment size option (kind 2), the one option the
    /// analyzer reads: the first one in the header. [`TcpRepr::parse`]
    /// checks the lengths of the other options and skips them.
    pub mss: Option<u16>,
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
            mss: None,
        }
    }

    /// Length of the header that [`TcpRepr::emit`] writes: 20 bytes, plus
    /// one word for the MSS option.
    pub fn header_len(&self) -> usize {
        HEADER_LEN + self.mss.map_or(0, |_| MSS_LEN)
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
            mss: parse_mss(&segment[HEADER_LEN..data_offset])?,
        };
        Ok((repr, &segment[data_offset..]))
    }

    /// Appends the encoded header (checksum filled in) and `payload` to
    /// `buf`. `src` and `dst` are the IPv4 addresses for the pseudo-header.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8], buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&self.seq.0.to_be_bytes());
        buf.extend_from_slice(&self.ack.0.to_be_bytes());
        buf.push(((self.header_len() / 4) as u8) << 4);
        buf.push(self.flags.0);
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&self.urgent.to_be_bytes());
        if let Some(mss) = self.mss {
            buf.extend_from_slice(&[MSS_KIND, MSS_LEN as u8]);
            buf.extend_from_slice(&mss.to_be_bytes());
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

/// Walks the option area of a TCP header (RFC 793 §3.1) and returns the
/// value of its first MSS option. End-of-list stops the walk, a no-op is
/// one byte, and every other option must carry a length of at least 2
/// that fits the area.
fn parse_mss(mut area: &[u8]) -> Result<Option<u16>> {
    let mut mss = None;
    while let Some(&kind) = area.first() {
        match kind {
            0 => break,
            1 => area = &area[1..],
            _ => {
                if area.len() < 2 {
                    return Err(WireError::Truncated);
                }
                let len = usize::from(area[1]);
                if len < 2 || len > area.len() {
                    return Err(WireError::BadLength);
                }
                if kind == MSS_KIND && len == MSS_LEN && mss.is_none() {
                    mss = Some(u16::from_be_bytes([area[2], area[3]]));
                }
                area = &area[len..];
            }
        }
    }
    Ok(mss)
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
            mss: None,
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
    fn mss_option_adds_one_word() {
        let (src, dst) = addrs();
        let mut repr = sample();
        repr.flags = TcpFlags::SYN;
        repr.mss = Some(1460);
        assert_eq!(repr.header_len(), 24);
        let mut buf = Vec::new();
        repr.emit(src, dst, &[], &mut buf);
        assert_eq!(buf.len(), 24);
        assert_eq!(buf[12] >> 4, 6);
        assert_eq!(&buf[20..], &[2, 4, 0x05, 0xb4]);
        assert!(TcpRepr::verify_checksum(src, dst, &buf));
        let (parsed, payload) = TcpRepr::parse(&buf).unwrap();
        assert_eq!(parsed, repr);
        assert!(payload.is_empty());
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
        repr.mss = Some(1460);
        repr.emit(src, dst, &[], &mut buf);
        buf[21] = 0; // MSS kind with length 0; parse does not verify the checksum
        assert_eq!(TcpRepr::parse(&buf).unwrap_err(), WireError::BadLength);
    }
}
