#![warn(missing_docs)]

//! `tcpa-wire` — wire-format codecs for the tcpanaly reproduction.
//!
//! This crate implements, from scratch, every on-the-wire format the
//! analyzer and simulators need:
//!
//! * [`ethernet`] — Ethernet II framing,
//! * [`ipv4`] — IPv4 headers with RFC 1071 checksums,
//! * [`tcp`] — TCP headers and flags, with pseudo-header checksums; of
//!   the options only the MSS is kept, the one tcpanaly reads,
//! * [`pcap`] — the classic libpcap capture file format (µs and ns
//!   timestamp variants, both endiannesses), reader and writer,
//! * [`seq`] — wrap-safe 32-bit TCP sequence-number arithmetic.
//!
//! The design follows the smoltcp idiom: each header has a plain-old-data
//! `*Repr` struct. `parse` decodes one from the front of a byte slice and
//! returns it with the rest of the slice, so parsing a header never
//! allocates and every `*Repr` is `Copy`; `emit` appends the encoded header
//! to a caller's `Vec<u8>`.
//!
//! Nothing in this crate knows about simulation or analysis; it is a pure
//! codec layer.

pub mod checksum;
pub mod ethernet;
pub mod ipv4;
pub mod pcap;
pub mod seq;
pub mod tcp;

pub use ethernet::{EtherType, EthernetRepr, MacAddr};
pub use ipv4::{IpProtocol, Ipv4Addr, Ipv4Repr};
pub use pcap::{
    Capture, DamageRegion, FaultKind, Layout, PcapError, PcapRecord, PcapWriter, Records,
    SalvageSummary, TsResolution,
};
pub use seq::SeqNum;
pub use tcp::{TcpFlags, TcpRepr};

/// Errors produced when decoding any wire format in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header of the format.
    Truncated,
    /// A length field is inconsistent with the buffer (e.g. IHL too small,
    /// TCP data offset pointing past the segment end).
    BadLength,
    /// A checksum failed verification.
    BadChecksum,
    /// A field holds a value the decoder does not understand
    /// (e.g. an unsupported IP version).
    BadValue,
    /// A capture file's magic number is unrecognized.
    BadMagic,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadLength => write!(f, "inconsistent length field"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadValue => write!(f, "unsupported field value"),
            WireError::BadMagic => write!(f, "unrecognized capture magic"),
        }
    }
}

impl std::error::Error for WireError {}

/// Crate-wide decode result.
pub type Result<T> = core::result::Result<T, WireError>;
