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
//! a [`Capture`] — capture bytes already in memory, or a reader streamed
//! through one bounded window — and lends out each [`PcapRecord`] until
//! the walk moves on. What happens at damage is the walk's policy.
//! [`Records::strict`] stops at the first malformed byte with a
//! [`PcapError`] naming the damage and its byte offset.
//! [`Records::salvage`] is the graceful-degradation path (§3 of the paper:
//! real measurement data is damaged): it classifies each damaged region
//! with a [`FaultKind`], resynchronizes on the next plausible record
//! header, and accounts for every skipped byte in a [`SalvageSummary`].

use std::io::{self, Write};

mod window;
pub use window::Capture;

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
    pub offset: u64,
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
    pub fn end(&self) -> u64 {
        self.offset + 16 + self.data.len() as u64
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

/// A record's header fields and where its bytes sit: everything about a
/// record but the bytes themselves, so the walk can move on before it
/// lends them out.
#[derive(Debug, Clone, Copy)]
struct Head {
    offset: u64,
    ts_nanos: u64,
    orig_len: u32,
    incl_len: u32,
    /// `incl_len`, checked to fit `usize`.
    len: usize,
}

impl Head {
    /// Byte offset just past the record's data.
    fn end(&self) -> u64 {
        self.offset + 16 + u64::from(self.incl_len)
    }

    /// The record, lending its data from `body`, the bytes after its
    /// header.
    fn record(self, body: &[u8]) -> PcapRecord<'_> {
        PcapRecord {
            offset: self.offset,
            ts_nanos: self.ts_nanos,
            orig_len: self.orig_len,
            data: body.get(..self.len).unwrap_or_default(),
        }
    }
}

/// Parses the record header at the start of `bytes`, the capture from byte
/// `offset` on. The checks run in a fixed order, and the first to fail
/// names the damage: a whole header, the subsecond field (skipped when
/// `check_ts` is off), the captured length. [`Records::body`] then
/// checks for a whole body.
fn parse_head(
    bytes: &[u8],
    offset: u64,
    layout: Layout,
    check_ts: bool,
) -> Result<Head, PcapError> {
    let Some(header) = bytes.first_chunk::<16>() else {
        return Err(PcapError::TruncatedRecordHeader {
            offset,
            have: bytes.len(),
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
    let per_unit = 1_000_000_000 / layout.resolution.units_per_sec();
    Ok(Head {
        offset,
        ts_nanos: u64::from(ts_sec) * 1_000_000_000 + u64::from(ts_sub) * per_unit,
        orig_len,
        incl_len,
        len,
    })
}

/// Cap on how far past a damaged byte the resynchronization scan looks
/// for the next plausible record header. Bounds worst-case work on
/// adversarial input to O(window) per damaged region.
const RESYNC_WINDOW: u64 = 4 << 20;

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

/// A walk over the records of a [`Capture`] under one damage policy.
/// [`Records::next_record`] yields each record that parses; under the
/// strict policy the first damage ends the walk, under the salvage policy
/// damage is skipped and accounted for, and [`Records::finish`] reports
/// either. Every offset is absolute: a streamed capture yields the same
/// records, damage and errors as the same bytes in memory.
#[derive(Debug)]
pub struct Records<'a> {
    capture: Capture<'a>,
    /// Byte offset of the next record header.
    pos: u64,
    layout: Layout,
    /// Skip damage (salvage) rather than stop at it (strict).
    salvage: bool,
    /// What ended the walk early: the first damage of a strict walk, or
    /// an I/O failure under either policy.
    error: Option<PcapError>,
    /// Timestamp of the last good record, which anchors resync.
    prev_ts_nanos: Option<u64>,
    summary: SalvageSummary,
}

impl<'a> Records<'a> {
    /// A walk that starts after the global header (or at the end of a
    /// capture too short to hold one).
    fn new(capture: Capture<'a>, layout: Layout, linktype: u32, salvage: bool) -> Records<'a> {
        let pos = capture.end().min(24);
        Records {
            capture,
            pos,
            layout,
            salvage,
            error: None,
            prev_ts_nanos: None,
            summary: SalvageSummary {
                linktype,
                ..SalvageSummary::default()
            },
        }
    }

    /// A strict walk: a malformed global header fails here, and the first
    /// malformed record ends the walk (see [`Records::finish`]).
    pub fn strict(capture: impl Into<Capture<'a>>) -> Result<Records<'a>, PcapError> {
        let mut capture = capture.into();
        capture.fill(0, 24)?;
        let (layout, linktype) = parse_header(capture.from(0))?;
        Ok(Records::new(capture, layout, linktype, false))
    }

    /// A salvage walk: never fails on damage and never panics. Damaged
    /// regions are classified with a [`FaultKind`], skipped by scanning for
    /// the next plausible record header, and accounted for byte by byte
    /// in the [`SalvageSummary`]. An unrecognized or truncated global
    /// header is itself damage — little-endian microsecond layout and
    /// Ethernet framing are then assumed, which recovers the
    /// overwhelmingly common case (tcpdump default). Only an I/O failure
    /// ends the walk early.
    pub fn salvage(capture: impl Into<Capture<'a>>) -> Records<'a> {
        let mut capture = capture.into();
        let filled = capture.fill(0, 24);
        let header = capture.from(0);
        let (have, parsed) = (header.len(), parse_header(header));
        let bad_magic = magic(header).is_some_and(|m| Layout::from_magic(m).is_none());
        let mut walk = match parsed {
            Ok((layout, linktype)) => Records::new(capture, layout, linktype, true),
            Err(_) => {
                let mut walk = Records::new(capture, Layout::ASSUMED, LINKTYPE_ETHERNET, true);
                walk.summary.header_assumed = true;
                let kind = if bad_magic {
                    FaultKind::BadMagic
                } else {
                    FaultKind::TruncatedGlobalHeader
                };
                // A short file has no record stream to recover, so all of
                // it is damage; a whole header loses only its magic.
                walk.skip_damage(0, if have < 24 { have } else { 4 } as u64, kind);
                walk
            }
        };
        if let Err(e) = filled {
            walk.error = Some(PcapError::Io(e));
        }
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

    /// Ends a walk with its damage accounting (empty for a strict walk),
    /// or with what ended it early: the first damage of a strict walk, or
    /// an I/O failure under either policy.
    pub fn finish(mut self) -> Result<SalvageSummary, PcapError> {
        match self.error {
            Some(e) => Err(e),
            None => {
                self.summary.bytes_total = self.capture.end();
                Ok(self.summary)
            }
        }
    }

    /// The next record that parses, its bytes lent until the walk moves
    /// on; `None` at the end of the capture and once the walk has ended
    /// early.
    pub fn next_record(&mut self) -> Option<PcapRecord<'_>> {
        if self.error.is_some() {
            return None;
        }
        let head = match self.ready() {
            Some(head) => head,
            None => match self.step() {
                Ok(head) => head?,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            },
        };
        self.pos = head.end();
        self.prev_ts_nanos = Some(head.ts_nanos);
        Some(head.record(self.capture.from(head.offset + 16)))
    }

    /// The record at the current position when the window already holds
    /// all of it and it parses: the common case, which needs no refill.
    #[inline]
    fn ready(&self) -> Option<Head> {
        let bytes = self.capture.from(self.pos);
        let head = parse_head(bytes, self.pos, self.layout, true).ok()?;
        (bytes.len() - 16 >= head.len).then_some(head)
    }

    /// The next record that parses (`None` at the end of the capture),
    /// refilling the window and, under the salvage policy, skipping
    /// damage; or what ends the walk.
    #[inline(never)]
    fn step(&mut self) -> Result<Option<Head>, PcapError> {
        loop {
            match self.record_at(self.pos, self.pos, true) {
                Ok(head) => return Ok(Some(head)),
                Err(PcapError::TruncatedRecordHeader { have: 0, .. }) => return Ok(None),
                Err(e) => match FaultKind::of(&e) {
                    Some(kind) if self.salvage => self.resync(kind)?,
                    _ => return Err(e),
                },
            }
        }
    }

    /// The record whose header starts at `at`, read into the window
    /// (bytes before `keep` may be dropped from it).
    fn record_at(&mut self, keep: u64, at: u64, check_ts: bool) -> Result<Head, PcapError> {
        let head = self.head_at(keep, at, check_ts)?;
        self.body(keep, head)
    }

    /// The header of the record at `at`: every check but a whole body.
    fn head_at(&mut self, keep: u64, at: u64, check_ts: bool) -> Result<Head, PcapError> {
        self.capture.fill(keep, at + 16)?;
        parse_head(self.capture.from(at), at, self.layout, check_ts)
    }

    /// `head`, once the window holds its whole body.
    fn body(&mut self, keep: u64, head: Head) -> Result<Head, PcapError> {
        self.capture.fill(keep, head.end())?;
        let have = self.capture.from(head.offset + 16).len();
        if have < head.len {
            return Err(PcapError::TruncatedRecordData {
                offset: head.offset,
                incl_len: head.incl_len,
                have,
            });
        }
        Ok(head)
    }

    /// Accounts `len` damaged bytes at `offset` as one region of `kind`.
    fn skip_damage(&mut self, offset: u64, len: u64, kind: FaultKind) {
        self.summary.damage.push(DamageRegion { offset, len, kind });
        self.summary.bytes_skipped += len;
    }

    /// `true` when `end` is EOF or the start of another parseable record.
    fn chains(&mut self, keep: u64, end: u64) -> io::Result<bool> {
        Ok(matches!(
            damage(self.record_at(keep, end, true))?,
            Ok(_) | Err(PcapError::TruncatedRecordHeader { have: 0, .. })
        ))
    }

    /// Skips the damage of `kind` at the current position, up to the next
    /// plausible record or to EOF when none follows.
    fn resync(&mut self, kind: FaultKind) -> io::Result<()> {
        let pos = self.pos;
        // A corrupt-timestamp header still carries trustworthy length
        // fields: jump the whole record when that lands on another record
        // (or EOF), so false sync points inside its payload cannot cascade
        // misalignment.
        let whole = if kind == FaultKind::CorruptTimestamp {
            match damage(self.record_at(pos, pos, false))? {
                Ok(head) if self.chains(pos, head.end())? => Some(head.end()),
                _ => None,
            }
        } else {
            None
        };
        let next = match whole {
            Some(end) => end,
            None => match self.find_resync(pos + 1)? {
                Some(next) => next,
                None => self.capture.skip_to_end()?,
            },
        };
        self.skip_damage(pos, next - pos, kind);
        self.pos = next;
        Ok(())
    }

    /// Scans forward for the next byte offset where a plausible record
    /// starts. A candidate must parse, sit within [`MAX_TS_JUMP_SECS`] of
    /// the last good record's timestamp, *and* chain: the record after it
    /// must parse too, or the candidate record must end exactly at EOF.
    /// The timestamp is checked before the body is read, so a stream
    /// reads no bytes for a candidate it rejects on its header.
    fn find_resync(&mut self, from: u64) -> io::Result<Option<u64>> {
        for at in from..=from.saturating_add(RESYNC_WINDOW) {
            match damage(self.head_at(at, at, true))? {
                // Fewer than 16 bytes left: no record starts here or later.
                Err(PcapError::TruncatedRecordHeader { .. }) => break,
                Ok(head)
                    if ts_plausible(self.prev_ts_nanos, head.ts_nanos)
                        && damage(self.body(at, head))?.is_ok()
                        && self.chains(at, head.end())? =>
                {
                    return Ok(Some(at))
                }
                _ => {}
            }
        }
        Ok(None)
    }
}

/// Parts an I/O failure, which ends a walk, from damage, which a resync
/// steps over.
fn damage<T>(parsed: Result<T, PcapError>) -> io::Result<Result<T, PcapError>> {
    match parsed {
        Err(PcapError::Io(e)) => Err(e),
        parsed => Ok(parsed),
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

    /// A record copied out of a walk.
    #[derive(Debug, PartialEq)]
    struct Rec {
        offset: u64,
        ts_nanos: u64,
        orig_len: u32,
        data: Vec<u8>,
    }

    fn collect(walk: &mut Records<'_>) -> Vec<Rec> {
        let mut recs = Vec::new();
        while let Some(r) = walk.next_record() {
            recs.push(Rec {
                offset: r.offset,
                ts_nanos: r.ts_nanos,
                orig_len: r.orig_len,
                data: r.data.to_vec(),
            });
        }
        recs
    }

    /// A strict walk's link type and resolution with every record, or
    /// the first damage.
    fn strict_walk(capture: Capture<'_>) -> Result<(u32, TsResolution, Vec<Rec>), PcapError> {
        let mut walk = Records::strict(capture)?;
        let records = collect(&mut walk);
        let (linktype, resolution) = (walk.linktype(), walk.layout().resolution);
        walk.finish().map(|_| (linktype, resolution, records))
    }

    /// A salvage walk's records and damage accounting, or the I/O error
    /// that ended it.
    fn salvage_walk(capture: Capture<'_>) -> Result<(Vec<Rec>, SalvageSummary), PcapError> {
        let mut walk = Records::salvage(capture);
        let records = collect(&mut walk);
        walk.finish().map(|summary| (records, summary))
    }

    fn read_strict(buf: &[u8]) -> Result<(u32, TsResolution, Vec<Rec>), PcapError> {
        strict_walk(buf.into())
    }

    fn salvage_records(bytes: &[u8]) -> (Vec<Rec>, SalvageSummary) {
        salvage_walk(bytes.into()).expect("an in-memory capture has no I/O to fail")
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

    /// A reader that hands out at most `chunk` bytes per read, answers
    /// every other read with `Interrupted` when `interrupt` is set, and
    /// fails for good with `fail.1` once `fail.0` bytes have been read.
    struct Trickle<'a> {
        rest: &'a [u8],
        read: usize,
        chunk: usize,
        interrupt: bool,
        fail: Option<(usize, io::ErrorKind)>,
        calls: usize,
    }

    impl<'a> Trickle<'a> {
        fn new(bytes: &'a [u8], chunk: usize) -> Trickle<'a> {
            Trickle {
                rest: bytes,
                read: 0,
                chunk,
                interrupt: false,
                fail: None,
                calls: 0,
            }
        }
    }

    impl io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut n = buf.len().min(self.chunk).min(self.rest.len());
            if let Some((at, kind)) = self.fail {
                if self.read >= at {
                    return Err(io::Error::new(kind, "injected read failure"));
                }
                n = n.min(at - self.read);
            }
            let (head, tail) = self.rest.split_at(n);
            buf[..n].copy_from_slice(head);
            self.rest = tail;
            self.read += n;
            Ok(n)
        }
    }

    /// Damaged and clean variants of one small capture.
    fn damaged_captures() -> Vec<Vec<u8>> {
        let (buf, offsets) = small_capture(6);
        let mut spliced = buf[..offsets[2]].to_vec();
        spliced.extend_from_slice(&[0xffu8; 37]);
        spliced.extend_from_slice(&buf[offsets[2]..]);
        let mut bad_magic = buf.clone();
        bad_magic[0..4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        let mut bad_ts = buf.clone();
        bad_ts[offsets[1] + 4..offsets[1] + 8].copy_from_slice(&0xf000_0000u32.to_le_bytes());
        let mut oversized = buf.clone();
        oversized[offsets[3] + 8..offsets[3] + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        vec![
            buf.clone(),
            spliced,
            bad_magic,
            bad_ts,
            oversized,
            buf[..offsets[4] + 16 + 5].to_vec(),
            buf[..offsets[4] + 9].to_vec(),
            buf[..11].to_vec(),
            Vec::new(),
        ]
    }

    #[test]
    fn streamed_walks_match_in_memory_walks() {
        for bytes in damaged_captures() {
            let strict = format!("{:?}", read_strict(&bytes));
            let salvage = salvage_records(&bytes);
            for chunk in [1, 5, 16, 17, 100, 4096] {
                for interrupt in [false, true] {
                    let stream = || {
                        let mut input = Trickle::new(&bytes, chunk);
                        input.interrupt = interrupt;
                        Capture::stream(input, None)
                    };
                    assert_eq!(format!("{:?}", strict_walk(stream())), strict, "{chunk}");
                    assert_eq!(salvage_walk(stream()).unwrap(), salvage, "{chunk}");
                }
            }
        }
    }

    #[test]
    fn record_larger_than_the_window_streams_whole() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, TsResolution::Micro, LINKTYPE_ETHERNET, u32::MAX)
            .expect("vec write");
        let big: Vec<u8> = (0..600_000u32).map(|i| i.to_le_bytes()[0]).collect();
        w.write_record(0, 600_000, &[1, 2, 3]).expect("vec write");
        w.write_record(1_000, 600_000, &big).expect("vec write");
        w.write_record(2_000, 60, &[4; 60]).expect("vec write");
        w.finish().expect("vec write");
        let whole = read_strict(&buf).unwrap();
        assert_eq!(whole.2[1].data, big);
        for hint in [None, Some(buf.len() as u64)] {
            let streamed = strict_walk(Capture::stream(Trickle::new(&buf, 4096), hint)).unwrap();
            assert_eq!(streamed, whole);
        }
    }

    #[test]
    fn io_error_mid_stream_ends_either_walk_with_its_kind() {
        let (buf, offsets) = small_capture(4);
        let stream = || {
            let mut input = Trickle::new(&buf, 8);
            input.fail = Some((offsets[2] + 3, io::ErrorKind::ConnectionReset));
            Capture::stream(input, None)
        };
        match strict_walk(stream()) {
            Err(PcapError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            other => panic!("expected an I/O error, got {other:?}"),
        }
        match salvage_walk(stream()) {
            Err(PcapError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            other => panic!("expected an I/O error, got {other:?}"),
        }
        // A failure inside the global header reaches both walks too.
        let mut input = Trickle::new(&buf, 8);
        input.fail = Some((10, io::ErrorKind::TimedOut));
        match salvage_walk(Capture::stream(input, None)) {
            Err(PcapError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }
}
