//! The whole-slice pcap walker and frame decoder that streamed ingest
//! replaced, kept verbatim as the reference streamed ingest must
//! reproduce: records, skipped counts, damage accounting and strict
//! errors. Deviations from the original: the walker's types are private
//! copies (`Layout`'s helpers are private to `tcpa-wire`), the
//! observability spans and counters are dropped, and `unused` items of
//! the original API are allowed.

#![allow(dead_code)]

use tcpa_trace::pcap_io::IngestReport;
use tcpa_trace::{Time, Trace, TraceRecord};
use tcpa_wire::ethernet::{EtherType, EthernetRepr};
use tcpa_wire::pcap::{
    DamageRegion, FaultKind, PcapError, SalvageSummary, LINKTYPE_ETHERNET, MAX_INCL_LEN,
};
use tcpa_wire::{Ipv4Repr, TcpRepr, TsResolution};

/// One captured record, borrowing its bytes from the capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PcapRecord<'a> {
    /// Byte offset of the record's 16-byte header in the capture.
    offset: usize,
    /// Capture timestamp in nanoseconds since the epoch (normalized from
    /// the file's native resolution).
    ts_nanos: u64,
    /// Original packet length on the wire (may exceed `data.len()` when the
    /// capture used a snap length).
    orig_len: u32,
    /// The captured bytes.
    data: &'a [u8],
}

impl PcapRecord<'_> {
    /// Byte offset just past the record's data: where the next record
    /// header starts.
    fn end(&self) -> usize {
        self.offset + 16 + self.data.len()
    }
}

/// Byte order and timestamp resolution, as a capture's magic number
/// selects them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    /// Header fields are big-endian.
    swapped: bool,
    /// The timestamps' subsecond unit.
    resolution: TsResolution,
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
struct Records<'a> {
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
    fn strict(bytes: &'a [u8]) -> Result<Records<'a>, PcapError> {
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
    fn salvage(bytes: &'a [u8]) -> Records<'a> {
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
    fn linktype(&self) -> u32 {
        self.summary.linktype
    }

    /// The byte order and resolution the walk reads with.
    fn layout(&self) -> Layout {
        self.layout
    }

    /// Ends a walk with the damage that stopped it early, if any. Only a
    /// strict walk stops early.
    fn finish(self) -> Result<(), PcapError> {
        self.error.map_or(Ok(()), Err)
    }

    /// Ends a walk with its damage accounting (empty for a strict walk).
    fn into_summary(self) -> SalvageSummary {
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

/// [`read_pcap`] over capture bytes already in memory: strict ingest, so
/// the first malformed byte fails the read. An owned buffer is freed
/// before the `ingest.read` span closes.
pub fn read_pcap_bytes(bytes: impl AsRef<[u8]>) -> Result<(Trace, usize), PcapError> {
    let read = Records::strict(bytes.as_ref()).and_then(|mut walk| {
        if walk.linktype() != LINKTYPE_ETHERNET {
            return Err(PcapError::UnsupportedLinkType {
                linktype: walk.linktype(),
            });
        }
        let decoded = decode(&mut walk);
        walk.finish().map(|()| decoded)
    });
    drop(bytes);
    let (trace, skipped) = read?;
    Ok((trace, skipped))
}

/// The one frame-decoding loop, for both damage policies: decodes every
/// record the walk yields, counting the frames skipped.
fn decode(walk: &mut Records<'_>) -> (Trace, usize) {
    let mut trace = Trace::new();
    let mut skipped = 0usize;
    for pkt in walk {
        match decode_frame(&pkt) {
            Some(rec) => trace.push(rec),
            None => skipped += 1,
        }
    }
    (trace, skipped)
}

/// Decodes one captured Ethernet frame into a [`TraceRecord`], or `None`
/// when it is not a parseable TCP/IPv4 frame (the paper's filters matched
/// TCP packets only; everything else is counted and skipped).
fn decode_frame(pkt: &PcapRecord) -> Option<TraceRecord> {
    let (eth, ip_bytes) = EthernetRepr::parse(pkt.data).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    // Lenient parse: snap lengths legitimately truncate the payload.
    let (ip, tcp_bytes) = Ipv4Repr::parse_lenient(ip_bytes).ok()?;
    if ip.protocol != tcpa_wire::IpProtocol::Tcp {
        return None;
    }
    let (tcp, captured_payload) = TcpRepr::parse(tcp_bytes).ok()?;
    let header_len = tcp.header_len();
    // Checked: the IP length field is 16-bit so this always fits, but a
    // parser bug upstream must surface as a skipped frame, not wrap.
    let payload_len = u32::try_from(ip.payload_len.saturating_sub(header_len)).ok()?;
    // Full payload present iff the captured TCP segment length matches
    // the IP claim; only then can the checksum be verified. Compare in
    // u64 so no operand is narrowed.
    let checksum_ok = if captured_payload.len() as u64 == u64::from(payload_len)
        && u64::from(pkt.orig_len) == pkt.data.len() as u64
    {
        Some(TcpRepr::verify_checksum(ip.src, ip.dst, tcp_bytes))
    } else {
        None
    };
    Some(TraceRecord {
        // Always fits: sec ≤ u32::MAX bounds ts_nanos below i64::MAX.
        ts: Time(i64::try_from(pkt.ts_nanos).ok()?),
        ip,
        tcp,
        payload_len,
        checksum_ok,
    })
}

/// Salvage-mode ingest over in-memory capture bytes: never fails, never
/// panics. Damaged regions are skipped via resynchronization and accounted
/// for in the returned [`IngestReport`]; whatever TCP frames survive are
/// decoded exactly as [`read_pcap`] would.
pub fn read_pcap_salvage_bytes(bytes: &[u8]) -> (Trace, IngestReport) {
    let mut walk = Records::salvage(bytes);
    let (trace, frames_skipped) = decode(&mut walk);
    let summary = walk.into_summary();
    let report = IngestReport {
        records: trace.len() + frames_skipped,
        frames: trace.len(),
        frames_skipped,
        bytes_total: summary.bytes_total,
        bytes_skipped: summary.bytes_skipped,
        header_assumed: summary.header_assumed,
        damage: summary.damage,
    };
    (trace, report)
}
