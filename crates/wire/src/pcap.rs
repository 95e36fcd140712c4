//! Classic libpcap capture files — the format `tcpdump` writes.
//!
//! The paper's input corpus is tcpdump traces; this module lets the
//! reproduction round-trip its simulated traces through the same container
//! so they can be inspected with standard tools, and lets the analyzer
//! ingest real captures.
//!
//! Both byte orders and both timestamp resolutions (microsecond magic
//! `0xa1b2c3d4`, nanosecond magic `0xa1b23c4d`) are supported on read;
//! writes use little-endian with a caller-chosen resolution.
//!
//! One parser reads every capture: [`Records`] walks the record stream of
//! an in-memory capture and hands out [`PcapRecord`]s that borrow their
//! bytes from it. What happens at damage is the walk's policy.
//! [`Records::strict`] stops at the first malformed byte with a
//! [`PcapError`] naming the damage and its byte offset.
//! [`Records::salvage`] is the graceful-degradation path (§3 of the paper:
//! real measurement data is damaged): it classifies each damaged region
//! with a [`FaultKind`], resynchronizes on the next plausible record
//! header, and accounts for every skipped byte in a [`SalvageSummary`].

use std::io::{self, Write};

/// Timestamp resolution of a capture file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsResolution {
    /// Microsecond timestamps (magic `0xa1b2c3d4`).
    Micro,
    /// Nanosecond timestamps (magic `0xa1b23c4d`).
    Nano,
}

impl TsResolution {
    fn magic(self) -> u32 {
        match self {
            TsResolution::Micro => 0xa1b2_c3d4,
            TsResolution::Nano => 0xa1b2_3c4d,
        }
    }

    /// Subsecond units per second at this resolution.
    pub fn units_per_sec(self) -> u64 {
        match self {
            TsResolution::Micro => 1_000_000,
            TsResolution::Nano => 1_000_000_000,
        }
    }
}

/// `LINKTYPE_ETHERNET`, the only link type the simulators emit.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Captured lengths above this are treated as corrupt rather than
/// allocated (64 MiB; no real link produces frames near this).
pub const MAX_INCL_LEN: u32 = 0x0400_0000;

/// One captured record, borrowing its bytes from the capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapRecord<'a> {
    /// Byte offset of the record's 16-byte header in the capture.
    pub offset: usize,
    /// Capture timestamp in nanoseconds since the epoch (normalized from
    /// the file's native resolution).
    pub ts_nanos: u64,
    /// Original packet length on the wire (may exceed `data.len()` when the
    /// capture used a snap length).
    pub orig_len: u32,
    /// The captured bytes.
    pub data: &'a [u8],
}

impl PcapRecord<'_> {
    /// Byte offset just past the record's data: where the next record
    /// header starts.
    pub fn end(&self) -> usize {
        self.offset + 16 + self.data.len()
    }
}

/// Errors arising when reading or writing capture files. Every format
/// variant names the damage and carries the byte offset where it was
/// found, so a census failure line can point at the corrupt region.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The capture's magic number is unrecognized.
    BadMagic {
        /// The magic actually found (read little-endian).
        magic: u32,
    },
    /// The file ends inside the 24-byte global header.
    TruncatedGlobalHeader {
        /// Bytes actually present.
        have: usize,
    },
    /// The file ends inside a 16-byte record header.
    TruncatedRecordHeader {
        /// Byte offset of the record header.
        offset: u64,
        /// Header bytes actually present.
        have: usize,
    },
    /// The file ends inside a record's captured data.
    TruncatedRecordData {
        /// Byte offset of the record header.
        offset: u64,
        /// The record's claimed captured length.
        incl_len: u32,
        /// Data bytes actually present.
        have: usize,
    },
    /// A record's `incl_len` is implausibly large (would OOM).
    BadRecordLength {
        /// Byte offset of the record header.
        offset: u64,
        /// The claimed captured length.
        incl_len: u32,
    },
    /// A record's subsecond timestamp field exceeds one second.
    BadTimestamp {
        /// Byte offset of the record header.
        offset: u64,
        /// The out-of-range subsecond value.
        subsec: u32,
    },
    /// The capture's link type is one the decoder cannot parse.
    UnsupportedLinkType {
        /// The link type found in the global header.
        linktype: u32,
    },
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::BadMagic { magic } => {
                write!(f, "unrecognized capture magic 0x{magic:08x}")
            }
            PcapError::TruncatedGlobalHeader { have } => {
                write!(f, "truncated global header ({have} of 24 bytes)")
            }
            PcapError::TruncatedRecordHeader { offset, have } => {
                write!(
                    f,
                    "truncated record header at byte {offset} ({have} of 16 bytes)"
                )
            }
            PcapError::TruncatedRecordData {
                offset,
                incl_len,
                have,
            } => write!(
                f,
                "record at byte {offset} truncated ({have} of {incl_len} data bytes)"
            ),
            PcapError::BadRecordLength { offset, incl_len } => {
                write!(f, "implausible record length {incl_len} at byte {offset}")
            }
            PcapError::BadTimestamp { offset, subsec } => {
                write!(
                    f,
                    "corrupt timestamp (subsecond field {subsec}) at byte {offset}"
                )
            }
            PcapError::UnsupportedLinkType { linktype } => {
                write!(f, "unsupported link type {linktype}")
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// The file-level error taxonomy — the §3 measurement-error classes
/// translated to capture-file damage. The mangler injects these; the
/// salvage reader classifies what it skips with the same vocabulary so
/// tests can assert recovery per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The file ends inside the 24-byte global header.
    TruncatedGlobalHeader,
    /// The global header's magic number is unrecognized.
    BadMagic,
    /// The file ends inside a 16-byte record header.
    TruncatedRecordHeader,
    /// The file ends inside a record's captured data.
    MidRecordEof,
    /// Garbage bytes spliced between two records.
    GarbageSplice,
    /// A record whose `incl_len` was zeroed, stranding its data bytes.
    ZeroLength,
    /// A record whose `incl_len` is implausibly large.
    OversizedLength,
    /// A record whose subsecond timestamp field exceeds one second.
    CorruptTimestamp,
}

impl FaultKind {
    /// Every fault class, in a stable order (fixture and report order).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::TruncatedGlobalHeader,
        FaultKind::BadMagic,
        FaultKind::TruncatedRecordHeader,
        FaultKind::MidRecordEof,
        FaultKind::GarbageSplice,
        FaultKind::ZeroLength,
        FaultKind::OversizedLength,
        FaultKind::CorruptTimestamp,
    ];

    /// Stable kebab-case label (fixture file names, report rendering).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TruncatedGlobalHeader => "truncated-global-header",
            FaultKind::BadMagic => "bad-magic",
            FaultKind::TruncatedRecordHeader => "truncated-record-header",
            FaultKind::MidRecordEof => "mid-record-eof",
            FaultKind::GarbageSplice => "garbage-splice",
            FaultKind::ZeroLength => "zero-length",
            FaultKind::OversizedLength => "oversized-length",
            FaultKind::CorruptTimestamp => "corrupt-timestamp",
        }
    }

    /// The class of damage a parse error names, as the salvage walk
    /// reports it; `None` for errors that are not damage to the bytes
    /// (I/O, an unsupported link type).
    pub fn of(error: &PcapError) -> Option<FaultKind> {
        Some(match error {
            PcapError::TruncatedGlobalHeader { .. } => FaultKind::TruncatedGlobalHeader,
            PcapError::BadMagic { .. } => FaultKind::BadMagic,
            PcapError::TruncatedRecordHeader { .. } => FaultKind::TruncatedRecordHeader,
            PcapError::TruncatedRecordData { .. } => FaultKind::MidRecordEof,
            PcapError::BadRecordLength { .. } => FaultKind::OversizedLength,
            PcapError::BadTimestamp { .. } => FaultKind::CorruptTimestamp,
            PcapError::Io(_) | PcapError::UnsupportedLinkType { .. } => return None,
        })
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One contiguous damaged byte range the salvage reader skipped.
///
/// The `kind` is the salvage reader's *classification* of why parsing
/// failed at the region's start. Truncation and magic damage classify
/// exactly; damage inside the record stream (garbage, stranded payload
/// bytes) is classified by how its first bytes misparse, which is
/// deterministic but heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DamageRegion {
    /// Byte offset where parsing failed.
    pub offset: u64,
    /// Bytes skipped before parsing resynchronized (or EOF).
    pub len: u64,
    /// Classification of the damage.
    pub kind: FaultKind,
}

/// What a salvage walk recovered and what it had to skip.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageSummary {
    /// Total bytes presented.
    pub bytes_total: u64,
    /// Bytes inside damaged regions (never parsed into a record).
    pub bytes_skipped: u64,
    /// Every damaged region, in file order.
    pub damage: Vec<DamageRegion>,
    /// The global header was unusable; little-endian microsecond layout
    /// and Ethernet framing were assumed.
    pub header_assumed: bool,
    /// Link type (from the header, or [`LINKTYPE_ETHERNET`] if assumed).
    pub linktype: u32,
}

impl SalvageSummary {
    /// `true` when the file parsed without any damage.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && !self.header_assumed
    }
}

/// Byte order and timestamp resolution, as a capture's magic number
/// selects them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Header fields are big-endian.
    pub swapped: bool,
    /// The timestamps' subsecond unit.
    pub resolution: TsResolution,
}

impl Layout {
    /// What salvage assumes when the global header is unusable: tcpdump's
    /// default, little-endian microseconds.
    const ASSUMED: Layout = Layout {
        swapped: false,
        resolution: TsResolution::Micro,
    };

    fn from_magic(magic_le: u32) -> Option<Layout> {
        let (swapped, resolution) = match magic_le {
            0xa1b2_c3d4 => (false, TsResolution::Micro),
            0xd4c3_b2a1 => (true, TsResolution::Micro),
            0xa1b2_3c4d => (false, TsResolution::Nano),
            0x4d3c_b2a1 => (true, TsResolution::Nano),
            _ => return None,
        };
        Some(Layout {
            swapped,
            resolution,
        })
    }

    /// The first `N` 32-bit fields of `bytes`, in this byte order.
    fn words<const N: usize>(self, bytes: &[u8]) -> [u32; N] {
        let mut words = [0; N];
        for (word, b) in words.iter_mut().zip(bytes.chunks_exact(4)) {
            let b = [b[0], b[1], b[2], b[3]];
            *word = if self.swapped {
                u32::from_be_bytes(b)
            } else {
                u32::from_le_bytes(b)
            };
        }
        words
    }
}

/// The capture's magic number (read little-endian), when its first four
/// bytes are present.
fn magic(bytes: &[u8]) -> Option<u32> {
    bytes.first_chunk().map(|m| u32::from_le_bytes(*m))
}

/// Parses the 24-byte global header into its layout and link type.
fn parse_header(bytes: &[u8]) -> Result<(Layout, u32), PcapError> {
    let (Some(header), Some(magic)) = (bytes.first_chunk::<24>(), magic(bytes)) else {
        return Err(PcapError::TruncatedGlobalHeader { have: bytes.len() });
    };
    let layout = Layout::from_magic(magic).ok_or(PcapError::BadMagic { magic })?;
    let linktype = layout.words::<6>(header)[5];
    Ok((layout, linktype))
}

/// Parses the record whose header starts at `pos`. The checks run in a
/// fixed order, and the first to fail names the damage: a whole header,
/// the subsecond field (skipped when `check_ts` is off), the captured
/// length, a whole body.
fn parse_record(
    bytes: &[u8],
    pos: usize,
    layout: Layout,
    check_ts: bool,
) -> Result<PcapRecord<'_>, PcapError> {
    let offset = pos as u64;
    let rest = bytes.get(pos..).unwrap_or_default();
    let Some((header, body)) = rest.split_first_chunk::<16>() else {
        return Err(PcapError::TruncatedRecordHeader {
            offset,
            have: rest.len(),
        });
    };
    let [ts_sec, ts_sub, incl_len, orig_len] = layout.words(header);
    if check_ts && u64::from(ts_sub) >= layout.resolution.units_per_sec() {
        return Err(PcapError::BadTimestamp {
            offset,
            subsec: ts_sub,
        });
    }
    // Refuse rather than OOM. Checked, not `as`: on a 16-bit usize the
    // cast would silently truncate the length and misalign every later
    // record.
    let len = usize::try_from(incl_len)
        .ok()
        .filter(|_| incl_len <= MAX_INCL_LEN)
        .ok_or(PcapError::BadRecordLength { offset, incl_len })?;
    let data = body.get(..len).ok_or(PcapError::TruncatedRecordData {
        offset,
        incl_len,
        have: body.len(),
    })?;
    let per_unit = 1_000_000_000 / layout.resolution.units_per_sec();
    Ok(PcapRecord {
        offset: pos,
        ts_nanos: u64::from(ts_sec) * 1_000_000_000 + u64::from(ts_sub) * per_unit,
        orig_len,
        data,
    })
}

/// Cap on how far past a damaged byte the resynchronization scan looks
/// for the next plausible record header. Bounds worst-case work on
/// adversarial input to O(window) per damaged region.
const RESYNC_WINDOW: usize = 4 << 20;

/// Largest plausible timestamp jump (one day, either direction) between
/// the last good record and a resync candidate. Packet bytes misparsed as
/// a record header rarely land within a day of the capture's clock, so
/// this filters coincidental parses that would cascade misalignment.
const MAX_TS_JUMP_SECS: u64 = 86_400;

fn ts_plausible(prev_ts_nanos: Option<u64>, candidate_nanos: u64) -> bool {
    match prev_ts_nanos {
        None => true,
        Some(prev) => candidate_nanos.abs_diff(prev) / 1_000_000_000 <= MAX_TS_JUMP_SECS,
    }
}

/// A walk over the records of an in-memory capture under one damage
/// policy. It yields each record that parses; under the strict policy
/// the first damage ends the walk and [`Records::finish`] reports it,
/// under the salvage policy damage is skipped and accounted for in
/// [`Records::into_summary`].
#[derive(Debug)]
pub struct Records<'a> {
    bytes: &'a [u8],
    /// Byte offset of the next record header.
    pos: usize,
    layout: Layout,
    /// Skip damage (salvage) rather than stop at it (strict).
    salvage: bool,
    /// The damage that ended a strict walk.
    error: Option<PcapError>,
    /// Timestamp of the last good record, which anchors resync.
    prev_ts_nanos: Option<u64>,
    summary: SalvageSummary,
}

impl<'a> Records<'a> {
    fn new(bytes: &'a [u8], layout: Layout, linktype: u32, salvage: bool) -> Records<'a> {
        Records {
            bytes,
            pos: bytes.len().min(24),
            layout,
            salvage,
            error: None,
            prev_ts_nanos: None,
            summary: SalvageSummary {
                bytes_total: bytes.len() as u64,
                linktype,
                ..SalvageSummary::default()
            },
        }
    }

    /// A strict walk: a malformed global header fails here, and the first
    /// malformed record ends the walk (see [`Records::finish`]).
    pub fn strict(bytes: &'a [u8]) -> Result<Records<'a>, PcapError> {
        let (layout, linktype) = parse_header(bytes)?;
        Ok(Records::new(bytes, layout, linktype, false))
    }

    /// A salvage walk: never fails and never panics. Damaged regions are
    /// classified with a [`FaultKind`], skipped by scanning for the next
    /// plausible record header, and accounted for byte by byte in the
    /// [`SalvageSummary`]. An unrecognized or truncated global header is
    /// itself damage — little-endian microsecond layout and Ethernet
    /// framing are then assumed, which recovers the overwhelmingly common
    /// case (tcpdump default).
    pub fn salvage(bytes: &'a [u8]) -> Records<'a> {
        if let Ok((layout, linktype)) = parse_header(bytes) {
            return Records::new(bytes, layout, linktype, true);
        }
        let mut walk = Records::new(bytes, Layout::ASSUMED, LINKTYPE_ETHERNET, true);
        walk.summary.header_assumed = true;
        let kind = if magic(bytes).is_some_and(|m| Layout::from_magic(m).is_none()) {
            FaultKind::BadMagic
        } else {
            FaultKind::TruncatedGlobalHeader
        };
        // A short file has no record stream to recover, so all of it is
        // damage; a whole header loses only its magic.
        walk.skip_damage(0, if bytes.len() < 24 { bytes.len() } else { 4 }, kind);
        walk
    }

    /// The link type the global header names ([`LINKTYPE_ETHERNET`] when
    /// salvage assumed it).
    pub fn linktype(&self) -> u32 {
        self.summary.linktype
    }

    /// The byte order and resolution the walk reads with.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Ends a walk with the damage that stopped it early, if any. Only a
    /// strict walk stops early.
    pub fn finish(self) -> Result<(), PcapError> {
        self.error.map_or(Ok(()), Err)
    }

    /// Ends a walk with its damage accounting (empty for a strict walk).
    pub fn into_summary(self) -> SalvageSummary {
        self.summary
    }

    /// Accounts `len` damaged bytes at `offset` as one region of `kind`.
    fn skip_damage(&mut self, offset: usize, len: usize, kind: FaultKind) {
        self.summary.damage.push(DamageRegion {
            offset: offset as u64,
            len: len as u64,
            kind,
        });
        self.summary.bytes_skipped += len as u64;
    }

    /// `true` when `end` is EOF or the start of another parseable record.
    fn chains(&self, end: usize) -> bool {
        end == self.bytes.len() || parse_record(self.bytes, end, self.layout, true).is_ok()
    }

    /// Skips the damage of `kind` at the current position, up to the next
    /// plausible record or to EOF when none follows.
    fn resync(&mut self, kind: FaultKind) {
        let pos = self.pos;
        // A corrupt-timestamp header still carries trustworthy length
        // fields: jump the whole record when that lands on another record
        // (or EOF), so false sync points inside its payload cannot cascade
        // misalignment.
        let whole = if kind == FaultKind::CorruptTimestamp {
            parse_record(self.bytes, pos, self.layout, false)
                .ok()
                .map(|rec| rec.end())
                .filter(|&end| self.chains(end))
        } else {
            None
        };
        let next = whole
            .or_else(|| self.find_resync(pos + 1))
            .unwrap_or(self.bytes.len());
        self.skip_damage(pos, next - pos, kind);
        self.pos = next;
    }

    /// Scans forward for the next byte offset where a plausible record
    /// starts. A candidate must parse, sit within [`MAX_TS_JUMP_SECS`] of
    /// the last good record's timestamp, *and* chain: the record after it
    /// must parse too, or the candidate record must end exactly at EOF.
    fn find_resync(&self, from: usize) -> Option<usize> {
        let last = self
            .bytes
            .len()
            .checked_sub(16)?
            .min(from.saturating_add(RESYNC_WINDOW));
        (from..=last).find(|&o| {
            parse_record(self.bytes, o, self.layout, true).is_ok_and(|rec| {
                ts_plausible(self.prev_ts_nanos, rec.ts_nanos) && self.chains(rec.end())
            })
        })
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = PcapRecord<'a>;

    fn next(&mut self) -> Option<PcapRecord<'a>> {
        while self.pos < self.bytes.len() {
            match parse_record(self.bytes, self.pos, self.layout, true) {
                Ok(rec) => {
                    self.pos = rec.end();
                    self.prev_ts_nanos = Some(rec.ts_nanos);
                    return Some(rec);
                }
                Err(e) => match FaultKind::of(&e) {
                    Some(kind) if self.salvage => self.resync(kind),
                    _ => {
                        self.error = Some(e);
                        self.pos = self.bytes.len();
                    }
                },
            }
        }
        None
    }
}

/// Streaming writer for classic pcap files (little-endian).
pub struct PcapWriter<W: Write> {
    inner: W,
    resolution: TsResolution,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a capture file, emitting the global header.
    pub fn new(
        mut inner: W,
        resolution: TsResolution,
        linktype: u32,
        snaplen: u32,
    ) -> io::Result<Self> {
        inner.write_all(&resolution.magic().to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&linktype.to_le_bytes())?;
        Ok(PcapWriter { inner, resolution })
    }

    /// Appends one record. `ts_nanos` is truncated to the file
    /// resolution. Fails with `InvalidInput` rather than wrapping when a
    /// field does not fit the 32-bit on-disk format (a timestamp past
    /// 2106, or more than 4 GiB of captured data).
    pub fn write_record(&mut self, ts_nanos: u64, orig_len: u32, data: &[u8]) -> io::Result<()> {
        let per_unit = 1_000_000_000 / self.resolution.units_per_sec();
        let ts_sec = u32::try_from(ts_nanos / 1_000_000_000).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("timestamp {ts_nanos}ns overflows the 32-bit pcap seconds field"),
            )
        })?;
        // Subseconds always fit: x % 1e9 / per_unit < units_per_sec <= 1e9.
        let ts_sub = u32::try_from((ts_nanos % 1_000_000_000) / per_unit)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "subsecond field overflow"))?;
        let incl_len = u32::try_from(data.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record of {} bytes overflows the 32-bit incl_len field",
                    data.len()
                ),
            )
        })?;
        self.inner.write_all(&ts_sec.to_le_bytes())?;
        self.inner.write_all(&ts_sub.to_le_bytes())?;
        self.inner.write_all(&incl_len.to_le_bytes())?;
        self.inner.write_all(&orig_len.to_le_bytes())?;
        self.inner.write_all(data)
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strict entry point: the capture's link type and resolution
    /// with every record, or the first damage.
    fn read_strict(buf: &[u8]) -> Result<(u32, TsResolution, Vec<PcapRecord<'_>>), PcapError> {
        let mut walk = Records::strict(buf)?;
        let records = walk.by_ref().collect();
        let (linktype, resolution) = (walk.linktype(), walk.layout().resolution);
        walk.finish().map(|()| (linktype, resolution, records))
    }

    /// A salvage walk's records and damage accounting.
    fn salvage_records(bytes: &[u8]) -> (Vec<PcapRecord<'_>>, SalvageSummary) {
        let mut walk = Records::salvage(bytes);
        (walk.by_ref().collect(), walk.into_summary())
    }

    fn round_trip(resolution: TsResolution) {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, resolution, LINKTYPE_ETHERNET, 65535).unwrap();
            w.write_record(1_500_000_123_456_789_000, 100, &[1, 2, 3])
                .unwrap();
            w.write_record(1_500_000_124_000_000_500, 4, &[9, 9, 9, 9])
                .unwrap();
            w.finish().unwrap();
        }
        let (linktype, file_resolution, recs) = read_strict(&buf).unwrap();
        assert_eq!(linktype, LINKTYPE_ETHERNET);
        assert_eq!(file_resolution, resolution);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].data, vec![1, 2, 3]);
        assert_eq!(recs[0].orig_len, 100);
        match resolution {
            TsResolution::Micro => {
                assert_eq!(recs[0].ts_nanos, 1_500_000_123_456_789_000);
                // sub-µs truncated
                assert_eq!(recs[1].ts_nanos, 1_500_000_124_000_000_000);
            }
            TsResolution::Nano => {
                assert_eq!(recs[1].ts_nanos, 1_500_000_124_000_000_500);
            }
        }
    }

    #[test]
    fn micro_round_trip() {
        round_trip(TsResolution::Micro);
    }

    #[test]
    fn nano_round_trip() {
        round_trip(TsResolution::Nano);
    }

    #[test]
    fn big_endian_file_readable() {
        // Hand-build a big-endian µs file with one empty record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xa1b2_c3d4u32.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&10u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&250_000u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&0u32.to_be_bytes()); // incl_len
        buf.extend_from_slice(&60u32.to_be_bytes()); // orig_len
        let (_, _, recs) = read_strict(&buf).unwrap();
        let rec = &recs[0];
        assert_eq!(rec.ts_nanos, 10_250_000_000);
        assert_eq!(rec.orig_len, 60);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn bad_magic_rejected_with_value() {
        let buf = vec![0u8; 24];
        match read_strict(&buf) {
            Err(PcapError::BadMagic { magic: 0 }) => {}
            Err(other) => panic!("expected BadMagic, got {other:?}"),
            Ok(_) => panic!("expected BadMagic, got records"),
        }
    }

    #[test]
    fn truncated_global_header_reports_have() {
        match read_strict(&[0xd4u8, 0xc3, 0xb2]) {
            Err(PcapError::TruncatedGlobalHeader { have: 3 }) => {}
            Err(other) => panic!("expected TruncatedGlobalHeader, got {other:?}"),
            Ok(_) => panic!("expected TruncatedGlobalHeader, got records"),
        }
    }

    #[test]
    fn truncated_record_reports_offset_and_counts() {
        let mut buf = Vec::new();
        {
            let mut w =
                PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535).unwrap();
            w.write_record(0, 10, &[0; 10]).unwrap();
            w.finish().unwrap();
        }
        buf.truncate(buf.len() - 3);
        match read_strict(&buf) {
            Err(PcapError::TruncatedRecordData {
                offset: 24,
                incl_len: 10,
                have: 7,
            }) => {}
            other => panic!("expected TruncatedRecordData, got {other:?}"),
        }
    }

    #[test]
    fn absurd_record_length_rejected_with_offset() {
        let mut buf = Vec::new();
        {
            let w =
                PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535).unwrap();
            w.finish().unwrap();
        }
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0xffff_ffffu32.to_le_bytes()); // incl_len
        buf.extend_from_slice(&0u32.to_le_bytes());
        match read_strict(&buf) {
            Err(PcapError::BadRecordLength {
                offset: 24,
                incl_len: 0xffff_ffff,
            }) => {}
            other => panic!("expected BadRecordLength, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_subsecond_rejected_with_offset() {
        let mut buf = Vec::new();
        {
            let w =
                PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535).unwrap();
            w.finish().unwrap();
        }
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&2_000_000u32.to_le_bytes()); // ts_usec >= 1e6
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        match read_strict(&buf) {
            Err(PcapError::BadTimestamp {
                offset: 24,
                subsec: 2_000_000,
            }) => {}
            other => panic!("expected BadTimestamp, got {other:?}"),
        }
    }

    /// A little-endian µs capture with `n` small records, returned with
    /// the byte offsets of each record header.
    fn small_capture(n: usize) -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        let mut w = PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, 65535)
            .expect("vec write");
        for i in 0..n {
            let data: Vec<u8> = (0..20 + i as u8).collect();
            w.write_record(i as u64 * 1_000_000_000, data.len() as u32, &data)
                .expect("vec write");
        }
        w.finish().expect("vec write");
        let mut off = 24usize;
        for i in 0..n {
            offsets.push(off);
            off += 16 + 20 + i;
        }
        (buf, offsets)
    }

    #[test]
    fn salvage_on_clean_file_is_lossless() {
        let (buf, _) = small_capture(5);
        let (recs, summary) = salvage_records(&buf);
        assert_eq!(recs.len(), 5);
        assert!(summary.is_clean());
        assert_eq!(summary.bytes_skipped, 0);
        assert_eq!(summary.linktype, LINKTYPE_ETHERNET);
    }

    #[test]
    fn salvage_skips_garbage_between_records() {
        let (buf, offsets) = small_capture(4);
        let mut damaged = buf[..offsets[2]].to_vec();
        damaged.extend_from_slice(&[0xffu8; 37]); // garbage splice
        damaged.extend_from_slice(&buf[offsets[2]..]);
        let (recs, summary) = salvage_records(&damaged);
        assert_eq!(recs.len(), 4, "all real records recovered");
        assert_eq!(summary.damage.len(), 1);
        assert_eq!(summary.damage[0].offset, offsets[2] as u64);
        assert_eq!(summary.damage[0].len, 37);
        assert_eq!(summary.bytes_skipped, 37);
    }

    #[test]
    fn salvage_recovers_after_bad_magic() {
        let (mut buf, _) = small_capture(3);
        buf[0..4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        let (recs, summary) = salvage_records(&buf);
        assert_eq!(recs.len(), 3, "records readable under assumed layout");
        assert!(summary.header_assumed);
        assert_eq!(summary.damage[0].kind, FaultKind::BadMagic);
    }

    #[test]
    fn salvage_classifies_trailing_truncation() {
        let (buf, offsets) = small_capture(3);
        // Cut inside the last record's data.
        let cut = offsets[2] + 16 + 5;
        let (recs, summary) = salvage_records(&buf[..cut]);
        assert_eq!(recs.len(), 2);
        assert_eq!(summary.damage.len(), 1);
        assert_eq!(summary.damage[0].kind, FaultKind::MidRecordEof);
        assert_eq!(summary.damage[0].offset, offsets[2] as u64);
        // Cut inside the last record's header.
        let cut = offsets[2] + 9;
        let (recs, summary) = salvage_records(&buf[..cut]);
        assert_eq!(recs.len(), 2);
        assert_eq!(summary.damage[0].kind, FaultKind::TruncatedRecordHeader);
    }

    #[test]
    fn salvage_resyncs_past_corrupt_timestamp() {
        let (mut buf, offsets) = small_capture(4);
        // Corrupt record 1's subsecond field (bytes 4..8 of its header).
        buf[offsets[1] + 4..offsets[1] + 8].copy_from_slice(&0xf000_0000u32.to_le_bytes());
        let (recs, summary) = salvage_records(&buf);
        assert_eq!(recs.len(), 3, "only the corrupted record is lost");
        assert_eq!(summary.damage[0].kind, FaultKind::CorruptTimestamp);
        assert_eq!(summary.damage[0].offset, offsets[1] as u64);
    }

    #[test]
    fn salvage_of_empty_and_tiny_inputs() {
        let (recs, summary) = salvage_records(&[]);
        assert!(recs.is_empty());
        assert_eq!(summary.bytes_total, 0);
        let (recs, summary) = salvage_records(&[0xd4, 0xc3, 0xb2, 0xa1, 0x02]);
        assert!(recs.is_empty());
        assert_eq!(summary.damage[0].kind, FaultKind::TruncatedGlobalHeader);
        let (recs, summary) = salvage_records(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(recs.is_empty());
        assert_eq!(summary.damage[0].kind, FaultKind::BadMagic);
    }
}
