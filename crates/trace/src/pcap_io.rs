//! Conversion between [`Trace`] and libpcap capture files.
//!
//! Writing synthesizes full Ethernet/IPv4/TCP frames (payload bytes are a
//! deterministic pattern; a record marked corrupt gets one payload byte
//! flipped so its TCP checksum genuinely fails). Reading parses frames and
//! populates [`TraceRecord::checksum_ok`] — `Some(..)` when the full
//! payload is present, `None` when the capture was snapped to headers, in
//! which case the analyzer must infer corruption from behavior (§7).

use crate::record::{Trace, TraceRecord};
use crate::time::Time;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use tcpa_wire::ethernet::{EtherType, EthernetRepr, MacAddr};
use tcpa_wire::pcap::{
    Capture, DamageRegion, FaultKind, PcapError, PcapRecord, PcapWriter, Records, LINKTYPE_ETHERNET,
};
use tcpa_wire::{Ipv4Repr, TcpRepr, TsResolution};

/// Builds the full frame bytes for one record (Ethernet + IP + TCP +
/// synthetic payload).
pub fn frame_bytes(rec: &TraceRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(usize::try_from(rec.payload_len).unwrap_or(0));
    // Deterministic pattern keyed to the sequence number so identical
    // retransmissions carry identical bytes. The low byte is taken via
    // to_le_bytes rather than a narrowing cast.
    let base = rec.tcp.seq.0;
    for i in 0..rec.payload_len {
        payload.push(base.wrapping_add(i).to_le_bytes()[0]);
    }

    let mut tcp_bytes = Vec::new();
    rec.tcp
        .emit(rec.ip.src, rec.ip.dst, &payload, &mut tcp_bytes);
    if rec.checksum_ok == Some(false) {
        // Flip a payload byte *after* the checksum was computed so the
        // frame is genuinely corrupt on the wire.
        let n = tcp_bytes.len();
        assert!(
            rec.payload_len > 0,
            "cannot corrupt a zero-payload record without breaking headers"
        );
        tcp_bytes[n - 1] ^= 0x55;
    }

    let ip = Ipv4Repr {
        payload_len: tcp_bytes.len(),
        ..rec.ip
    };
    let mut frame = Vec::with_capacity(14 + 20 + tcp_bytes.len());
    EthernetRepr {
        dst: MacAddr::from_host_id(rec.ip.dst.0[3]),
        src: MacAddr::from_host_id(rec.ip.src.0[3]),
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut frame);
    ip.emit(&mut frame);
    frame.extend_from_slice(&tcp_bytes);
    frame
}

/// Writes `trace` as a pcap file. `snaplen` truncates captured bytes the
/// way tcpdump's `-s` does (0 means capture everything).
pub fn write_pcap<W: Write>(
    trace: &Trace,
    out: W,
    resolution: TsResolution,
    snaplen: u32,
) -> std::io::Result<W> {
    let effective_snap = if snaplen == 0 { u32::MAX } else { snaplen };
    let mut writer = PcapWriter::new(out, resolution, LINKTYPE_ETHERNET, effective_snap)?;
    for rec in trace.iter() {
        let mut frame = frame_bytes(rec);
        let orig_len = u32::try_from(frame.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes overflows the 32-bit orig_len field",
                    frame.len()
                ),
            )
        })?;
        // A snap length that does not fit usize cannot truncate anything
        // addressable, so it is equivalent to "keep everything".
        frame.truncate(usize::try_from(effective_snap).unwrap_or(usize::MAX));
        // pcap timestamps are unsigned; clamp pathological negative stamps
        // (real time-travel traces are produced in-memory, not via pcap).
        let ts = rec.ts.as_nanos().max(0) as u64;
        writer.write_record(ts, orig_len, &frame)?;
    }
    writer.finish()
}

/// Reads a pcap capture from `input` into a [`Trace`], streaming it
/// through one bounded window. Non-IPv4 and non-TCP frames are skipped
/// (the paper's filters matched TCP packets only). Frames whose TCP header
/// itself is truncated by the snap length are skipped too, with their
/// count returned alongside the trace.
pub fn read_pcap<R: Read>(input: R) -> Result<(Trace, usize), PcapError> {
    read_capture(Capture::stream(input, None))
}

/// [`read_pcap`] over capture bytes already in memory.
pub fn read_pcap_bytes(bytes: &[u8]) -> Result<(Trace, usize), PcapError> {
    read_capture(bytes.into())
}

/// Strict ingest of any capture: the first malformed byte, or an I/O
/// failure ([`PcapError::Io`]), fails the read. A streamed capture's
/// window is freed before the `ingest.read` span closes.
pub fn read_capture(capture: Capture<'_>) -> Result<(Trace, usize), PcapError> {
    let _span = tcpa_obs::span("ingest.read");
    let mut walk = Records::strict(capture)?;
    if walk.linktype() != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType {
            linktype: walk.linktype(),
        });
    }
    let (trace, skipped) = decode(&mut walk);
    walk.finish()?;
    tcpa_obs::add("ingest.reads", 1);
    tcpa_obs::add("ingest.frames", trace.len() as u64);
    tcpa_obs::add("ingest.frames_skipped", skipped as u64);
    Ok((trace, skipped))
}

/// The one frame-decoding loop, for both damage policies: decodes every
/// record the walk yields, counting the frames skipped.
fn decode(walk: &mut Records<'_>) -> (Trace, usize) {
    let mut trace = Trace::new();
    let mut skipped = 0usize;
    while let Some(pkt) = walk.next_record() {
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

/// What salvage-mode ingest recovered from one capture and what it had to
/// give up: the per-file degradation ledger the corpus census aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Capture records recovered from the byte stream.
    pub records: usize,
    /// Records that decoded into TCP/IPv4 trace entries.
    pub frames: usize,
    /// Records skipped as non-TCP or undecodable frames.
    pub frames_skipped: usize,
    /// Total bytes presented.
    pub bytes_total: u64,
    /// Bytes inside damaged regions, never parsed into any record.
    pub bytes_skipped: u64,
    /// The global header was unusable; defaults were assumed.
    pub header_assumed: bool,
    /// Every damaged region with its classification, in file order.
    pub damage: Vec<DamageRegion>,
}

impl IngestReport {
    /// `true` when the capture parsed without any damage.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && !self.header_assumed
    }

    /// Damaged-region count per fault class (stable iteration order).
    pub fn fault_counts(&self) -> BTreeMap<FaultKind, usize> {
        let mut counts = BTreeMap::new();
        for region in &self.damage {
            *counts.entry(region.kind).or_insert(0) += 1;
        }
        counts
    }
}

impl core::fmt::Display for IngestReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "clean: {} records ({} TCP frames)",
                self.records, self.frames
            );
        }
        write!(
            f,
            "salvaged {} records ({} TCP frames), skipped {}/{} bytes in {} damaged region(s)",
            self.records,
            self.frames,
            self.bytes_skipped,
            self.bytes_total,
            self.damage.len()
        )?;
        let counts = self.fault_counts();
        if !counts.is_empty() {
            write!(f, " [")?;
            for (i, (kind, n)) in counts.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{kind} x{n}")?;
            }
            write!(f, "]")?;
        }
        if self.header_assumed {
            write!(f, " (global header assumed: LE/µs/Ethernet)")?;
        }
        Ok(())
    }
}

/// Salvage-mode ingest over in-memory capture bytes: never fails, never
/// panics. Damaged regions are skipped via resynchronization and accounted
/// for in the returned [`IngestReport`]; whatever TCP frames survive are
/// decoded exactly as [`read_pcap`] would.
pub fn read_pcap_salvage_bytes(bytes: &[u8]) -> (Trace, IngestReport) {
    // Only I/O fails a salvage read, and an in-memory capture does none.
    salvage_capture(bytes.into()).unwrap_or_default()
}

/// Salvage-mode ingest of any capture: damage never fails it (see
/// [`read_pcap_salvage_bytes`]), only an I/O failure ([`PcapError::Io`]).
/// A streamed capture's window is freed before the `ingest.salvage` span
/// closes.
pub fn salvage_capture(capture: Capture<'_>) -> Result<(Trace, IngestReport), PcapError> {
    let _span = tcpa_obs::span("ingest.salvage");
    let mut walk = Records::salvage(capture);
    let (trace, frames_skipped) = decode(&mut walk);
    let summary = walk.finish()?;
    let report = IngestReport {
        records: trace.len() + frames_skipped,
        frames: trace.len(),
        frames_skipped,
        bytes_total: summary.bytes_total,
        bytes_skipped: summary.bytes_skipped,
        header_assumed: summary.header_assumed,
        damage: summary.damage,
    };
    tcpa_obs::add("ingest.salvage_reads", 1);
    tcpa_obs::add("ingest.frames", trace.len() as u64);
    tcpa_obs::add("ingest.frames_skipped", frames_skipped as u64);
    tcpa_obs::add("ingest.bytes_total", report.bytes_total);
    tcpa_obs::add("ingest.bytes_skipped", report.bytes_skipped);
    tcpa_obs::add("ingest.damage_regions", report.damage.len() as u64);
    tcpa_obs::add("ingest.headers_assumed", report.header_assumed as u64);
    Ok((trace, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_util::rec;
    use std::io::Cursor;
    use tcpa_wire::TcpFlags;

    fn sample_trace() -> Trace {
        vec![
            rec(0, 1, 2, TcpFlags::SYN, 100, 0, 0),
            rec(5, 2, 1, TcpFlags::SYN | TcpFlags::ACK, 900, 0, 101),
            rec(10, 1, 2, TcpFlags::ACK | TcpFlags::PSH, 101, 512, 901),
            rec(20, 2, 1, TcpFlags::ACK, 901, 0, 613),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn full_capture_round_trip() {
        let trace = sample_trace();
        let bytes = write_pcap(&trace, Vec::new(), TsResolution::Nano, 0).unwrap();
        let (read, skipped) = read_pcap(Cursor::new(bytes)).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(read.len(), trace.len());
        for (orig, got) in trace.iter().zip(read.iter()) {
            assert_eq!(got.ts, orig.ts);
            assert_eq!(got.tcp, orig.tcp);
            assert_eq!(got.payload_len, orig.payload_len);
            assert_eq!(got.checksum_ok, Some(true));
        }
    }

    #[test]
    fn snapped_capture_yields_unknown_checksum() {
        let trace = sample_trace();
        // 68 bytes was tcpdump's classic default snap: eth(14)+ip(20)+tcp(20)+14.
        let bytes = write_pcap(&trace, Vec::new(), TsResolution::Micro, 68).unwrap();
        let (read, skipped) = read_pcap(Cursor::new(bytes)).unwrap();
        assert_eq!(skipped, 0);
        let data_rec = read.records.iter().find(|r| r.is_data()).unwrap();
        assert_eq!(data_rec.payload_len, 512, "length comes from IP header");
        assert_eq!(data_rec.checksum_ok, None, "payload cut, cannot verify");
    }

    #[test]
    fn corrupt_record_fails_checksum_on_read() {
        let mut trace = sample_trace();
        trace.records[2].checksum_ok = Some(false);
        let bytes = write_pcap(&trace, Vec::new(), TsResolution::Nano, 0).unwrap();
        let (read, _) = read_pcap(Cursor::new(bytes)).unwrap();
        assert_eq!(read.records[2].checksum_ok, Some(false));
        assert_eq!(read.records[3].checksum_ok, Some(true));
    }

    #[test]
    fn non_tcp_frames_skipped() {
        let trace = sample_trace();
        let mut bytes = write_pcap(&trace, Vec::new(), TsResolution::Nano, 0).unwrap();
        // Append an ARP frame record by hand.
        let mut arp_frame = Vec::new();
        EthernetRepr {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_host_id(1),
            ethertype: EtherType::Arp,
        }
        .emit(&mut arp_frame);
        arp_frame.extend_from_slice(&[0u8; 28]);
        let ts: u32 = 1;
        bytes.extend_from_slice(&ts.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(arp_frame.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(arp_frame.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&arp_frame);
        let (read, skipped) = read_pcap(Cursor::new(bytes)).unwrap();
        assert_eq!(read.len(), 4);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn salvage_matches_strict_on_clean_capture() {
        let trace = sample_trace();
        let bytes = write_pcap(&trace, Vec::new(), TsResolution::Nano, 0).unwrap();
        let (strict, _) = read_pcap(Cursor::new(&bytes[..])).unwrap();
        let (salvaged, report) = read_pcap_salvage_bytes(&bytes);
        assert!(report.is_clean());
        assert_eq!(report.frames, strict.len());
        assert_eq!(report.bytes_skipped, 0);
        assert_eq!(salvaged.records, strict.records);
        assert!(report.to_string().starts_with("clean:"));
    }

    #[test]
    fn salvage_recovers_records_around_damage() {
        let trace = sample_trace();
        let bytes = write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).unwrap();
        let (mangled, fault) =
            crate::mangle::inject(&bytes, crate::mangle::FaultKind::GarbageSplice, 11)
                .expect("clean capture accepts a splice");
        let (salvaged, report) = read_pcap_salvage_bytes(&mangled);
        assert_eq!(salvaged.len(), trace.len(), "no record should be lost");
        assert!(!report.is_clean());
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].offset, fault.offset);
        assert!(report.bytes_skipped >= 16);
        assert!(report.to_string().contains("damaged region"));
    }

    #[test]
    fn negative_timestamps_clamped_on_write() {
        let mut trace = sample_trace();
        trace.records[0].ts = Time(-5);
        let bytes = write_pcap(&trace, Vec::new(), TsResolution::Nano, 0).unwrap();
        let (read, _) = read_pcap(Cursor::new(bytes)).unwrap();
        assert_eq!(read.records[0].ts, Time(0));
    }
}
