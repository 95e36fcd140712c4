//! Property-based tests for the trace model: pcap round-trips for
//! arbitrary record sets, statistics invariants, and connection-split
//! conservation.

#[path = "support/reference_ingest.rs"]
mod reference_ingest;

use proptest::prelude::*;
use std::io::{self, Cursor, Read};
use tcpa_trace::mangle::{self, FaultKind};
use tcpa_trace::{
    pcap_io, Connection, Duration, Histogram, RunningMedian, Summary, Time, Trace, TraceRecord,
};
use tcpa_wire::{
    Capture, IpProtocol, Ipv4Addr, Ipv4Repr, PcapError, SeqNum, TcpFlags, TcpRepr, TsResolution,
};

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0i64..10_000_000_000, // ts nanos
        0u8..4,               // src host
        0u8..4,               // dst host
        any::<u16>(),         // ident
        any::<u32>(),         // seq
        0u32..2048,           // payload
        any::<u32>(),         // ack
        any::<u16>(),         // window
        0u8..32,              // flags (skip URG)
    )
        .prop_filter("src != dst", |(_, s, d, ..)| s != d)
        .prop_map(
            |(ts, src, dst, ident, seq, len, ack, window, flags)| TraceRecord {
                ts: Time(ts),
                ip: Ipv4Repr {
                    src: Ipv4Addr::from_host_id(src),
                    dst: Ipv4Addr::from_host_id(dst),
                    protocol: IpProtocol::Tcp,
                    ttl: 64,
                    ident,
                    payload_len: 20 + len as usize,
                },
                tcp: TcpRepr {
                    seq: SeqNum(seq),
                    ack: SeqNum(ack),
                    flags: TcpFlags(flags | TcpFlags::ACK.0),
                    window,
                    ..TcpRepr::new(1000 + u16::from(src), 1000 + u16::from(dst))
                },
                payload_len: len,
                checksum_ok: Some(true),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pcap_round_trip_preserves_headers(records in proptest::collection::vec(arb_record(), 0..40)) {
        let trace: Trace = records.into_iter().collect();
        let bytes = pcap_io::write_pcap(&trace, Vec::new(), TsResolution::Nano, 0).unwrap();
        let (read, skipped) = pcap_io::read_pcap(Cursor::new(bytes)).unwrap();
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(read.len(), trace.len());
        for (a, b) in trace.iter().zip(read.iter()) {
            prop_assert_eq!(&a.tcp, &b.tcp);
            prop_assert_eq!(a.payload_len, b.payload_len);
            prop_assert_eq!(a.ip.src, b.ip.src);
            prop_assert_eq!(a.ip.ident, b.ip.ident);
            prop_assert_eq!(a.ts, b.ts);
        }
    }

    #[test]
    fn connection_split_conserves_records(records in proptest::collection::vec(arb_record(), 0..60)) {
        let trace: Trace = records.into_iter().collect();
        let conns = Connection::split(&trace);
        let total: usize = conns.iter().map(|c| c.records.len()).sum();
        prop_assert_eq!(total, trace.len());
        // Each record's direction tags are consistent with its endpoints.
        for conn in &conns {
            for (dir, rec) in &conn.records {
                let src = (rec.ip.src, rec.tcp.src_port);
                match dir {
                    tcpa_trace::Dir::SenderToReceiver => {
                        prop_assert_eq!(src, (conn.sender.addr, conn.sender.port))
                    }
                    tcpa_trace::Dir::ReceiverToSender => {
                        prop_assert_eq!(src, (conn.receiver.addr, conn.receiver.port))
                    }
                }
            }
        }
    }

    #[test]
    fn summary_moments_bounded(samples in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..200)) {
        let mut s = Summary::new();
        for &v in &samples {
            s.add(Duration(v));
        }
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        let mean = s.mean().unwrap();
        prop_assert!(min <= mean && mean <= max);
        prop_assert_eq!(s.count(), samples.len());
        // Percentiles are monotone and within [min, max].
        let mut prev = min;
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p).unwrap();
            prop_assert!(v >= prev, "percentile({p}) went backwards");
            prop_assert!(v >= min && v <= max);
            prev = v;
        }
    }

    #[test]
    fn histogram_conserves_samples(samples in proptest::collection::vec(-50i64..500, 0..200)) {
        let mut h = Histogram::new(Duration::ZERO, Duration::from_millis(50), 8);
        for &v in &samples {
            h.add(Duration::from_millis(v));
        }
        prop_assert_eq!(
            h.total() + h.underflow + h.overflow,
            samples.len() as u64
        );
        prop_assert_eq!(h.underflow, samples.iter().filter(|&&v| v < 0).count() as u64);
        prop_assert_eq!(h.overflow, samples.iter().filter(|&&v| v >= 400).count() as u64);
    }

    #[test]
    fn rebase_preserves_gaps(records in proptest::collection::vec(arb_record(), 1..40)) {
        let mut trace: Trace = records.into_iter().collect();
        let gaps: Vec<_> = trace
            .records
            .windows(2)
            .map(|w| w[1].ts - w[0].ts)
            .collect();
        trace.rebase();
        prop_assert_eq!(trace.records[0].ts, Time::ZERO);
        let new_gaps: Vec<_> = trace
            .records
            .windows(2)
            .map(|w| w[1].ts - w[0].ts)
            .collect();
        prop_assert_eq!(gaps, new_gaps);
    }

    #[test]
    fn seq_plot_points_bounded(records in proptest::collection::vec(arb_record(), 1..60)) {
        let trace: Trace = records.into_iter().collect();
        for conn in Connection::split(&trace) {
            let plot = tcpa_trace::plot::SeqPlot::extract(&conn);
            // Rendering never panics regardless of contents.
            let _ = plot.render_ascii(40, 10);
            prop_assert!(plot.points.len() <= conn.records.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The salvage reader's core guarantee: arbitrary byte soup never
    /// panics, never loops, and every byte is accounted for (consumed by
    /// a record or counted as skipped damage).
    #[test]
    fn salvage_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (trace, report) = pcap_io::read_pcap_salvage_bytes(&bytes);
        prop_assert_eq!(report.bytes_total, bytes.len() as u64);
        prop_assert!(report.bytes_skipped <= report.bytes_total);
        prop_assert!(trace.len() <= report.records);
        let mut prev_end = 0u64;
        for d in &report.damage {
            prop_assert!(d.offset >= prev_end, "damage regions must not overlap");
            prop_assert!(d.offset + d.len <= bytes.len() as u64);
            prop_assert!(d.len > 0);
            prev_end = d.offset + d.len;
        }
    }

    /// Salvage is a pure function of the bytes.
    #[test]
    fn salvage_is_deterministic(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let (t1, r1) = pcap_io::read_pcap_salvage_bytes(&bytes);
        let (t2, r2) = pcap_io::read_pcap_salvage_bytes(&bytes);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(t1.len(), t2.len());
    }

    /// Byte soup prefixed with a valid header behaves the same way —
    /// exercises the record loop rather than header recovery.
    #[test]
    fn salvage_survives_valid_header_plus_soup(soup in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let trace = Trace::new();
        let mut bytes = pcap_io::write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).unwrap();
        bytes.extend_from_slice(&soup);
        let (_, report) = pcap_io::read_pcap_salvage_bytes(&bytes);
        prop_assert_eq!(report.bytes_total, bytes.len() as u64);
        prop_assert!(!report.header_assumed);
    }
}

/// Where a strict read found its damage (header damage sits at byte 0).
fn damage_offset(e: &PcapError) -> u64 {
    match *e {
        PcapError::TruncatedRecordHeader { offset, .. }
        | PcapError::TruncatedRecordData { offset, .. }
        | PcapError::BadRecordLength { offset, .. }
        | PcapError::BadTimestamp { offset, .. } => offset,
        _ => 0,
    }
}

/// Strict ingest fails if and only if salvage ingest reports damage, and
/// then names the first damaged region: same offset, matching class.
fn strict_agrees_with_salvage(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (_, report) = pcap_io::read_pcap_salvage_bytes(bytes);
    match (pcap_io::read_pcap_bytes(bytes), report.damage.first()) {
        (Ok(_), None) => prop_assert!(report.is_clean()),
        (Err(e), Some(first)) => {
            prop_assert_eq!(FaultKind::of(&e), Some(first.kind), "{e}");
            prop_assert_eq!(damage_offset(&e), first.offset, "{e}");
        }
        (strict, first) => prop_assert!(
            false,
            "strict read error {:?} disagrees with salvage's first damage {first:?}",
            strict.err()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mangle → salvage round trip: a seeded fault in a well-formed
    /// capture never panics the salvage reader, damage is reported for
    /// every injected fault, and recovery loses at most the records a
    /// single fault can plausibly take out.
    #[test]
    fn mangled_capture_salvages_within_bounds(
        records in proptest::collection::vec(arb_record(), 2..24),
        kind_idx in any::<proptest::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let kind = tcpa_trace::mangle::FaultKind::ALL
            [kind_idx.index(tcpa_trace::mangle::FaultKind::ALL.len())];
        let trace: Trace = records.into_iter().collect();
        let n = trace.len();
        let base = pcap_io::write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).unwrap();
        prop_assume!(tcpa_trace::mangle::inject(&base, kind, seed).is_some());
        let (mangled, fault) = tcpa_trace::mangle::inject(&base, kind, seed).unwrap();
        prop_assert_eq!(fault.kind, kind);
        let (salvaged, report) = pcap_io::read_pcap_salvage_bytes(&mangled);
        prop_assert_eq!(report.bytes_total, mangled.len() as u64);
        prop_assert!(!report.is_clean(), "an injected {kind} must be visible");
        match kind {
            // Whole-file faults can cost everything after the fault point.
            tcpa_trace::mangle::FaultKind::TruncatedGlobalHeader
            | tcpa_trace::mangle::FaultKind::MidRecordEof
            | tcpa_trace::mangle::FaultKind::TruncatedRecordHeader => {}
            // In-place faults damage one record; resync must bring back
            // the rest (phantom parses may add records, never frames).
            _ => prop_assert!(
                salvaged.len() + 2 >= n,
                "one in-place {kind} lost {} of {n} frames",
                n - salvaged.len().min(n)
            ),
        }
    }

    /// Strict and salvage ingest agree on damage: strict fails exactly
    /// when salvage reports damage, and then at the first damaged
    /// region's offset with the matching class. Checked on one injected
    /// fault and on a multi-fault mangle of the same clean capture.
    #[test]
    fn strict_fails_where_salvage_finds_damage(
        records in proptest::collection::vec(arb_record(), 2..24),
        kind_idx in any::<proptest::sample::Index>(),
        faults in 1usize..5,
        seed in any::<u64>(),
    ) {
        let kind = FaultKind::ALL[kind_idx.index(FaultKind::ALL.len())];
        let trace: Trace = records.into_iter().collect();
        let base = pcap_io::write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).unwrap();
        strict_agrees_with_salvage(&base)?;
        if let Some((mangled, _)) = mangle::inject(&base, kind, seed) {
            strict_agrees_with_salvage(&mangled)?;
        }
        let spec = mangle::MangleSpec {
            seed,
            faults,
            kinds: FaultKind::ALL.to_vec(),
        };
        strict_agrees_with_salvage(&mangle::mangle(&base, &spec).0)?;
    }

    /// Injection is deterministic: same bytes, kind and seed → same file.
    #[test]
    fn inject_is_deterministic(
        records in proptest::collection::vec(arb_record(), 2..16),
        kind_idx in any::<proptest::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let kind = tcpa_trace::mangle::FaultKind::ALL
            [kind_idx.index(tcpa_trace::mangle::FaultKind::ALL.len())];
        let trace: Trace = records.into_iter().collect();
        let base = pcap_io::write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).unwrap();
        let a = tcpa_trace::mangle::inject(&base, kind, seed);
        let b = tcpa_trace::mangle::inject(&base, kind, seed);
        match (a, b) {
            (None, None) => {}
            (Some((fa, ia)), Some((fb, ib))) => {
                prop_assert_eq!(fa, fb);
                prop_assert_eq!(ia.offset, ib.offset);
            }
            _ => prop_assert!(false, "inject applicability must be deterministic"),
        }
    }
}

/// A reader that hands out capture bytes in reads of the given sizes,
/// cycling through them, and answers every other read with `Interrupted`
/// when `interrupt` is set.
struct Split<'a> {
    rest: &'a [u8],
    sizes: &'a [usize],
    interrupt: bool,
    calls: usize,
}

impl Read for Split<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.interrupt && self.calls % 2 == 1 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let size = self.sizes[self.calls / 2 % self.sizes.len()];
        let n = size.min(buf.len()).min(self.rest.len());
        let (head, tail) = self.rest.split_at(n);
        buf[..n].copy_from_slice(head);
        self.rest = tail;
        Ok(n)
    }
}

/// Read sizes: single bytes, or a mix of sizes that end reads inside
/// 16-byte record headers and inside record bodies.
fn arb_splits() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![1usize]),
        proptest::collection::vec(prop_oneof![1usize..16, 17usize..200, 200usize..3000], 1..8),
    ]
}

/// Streamed ingest of `bytes`, read in `splits` (with interrupts) through
/// a window sized by `hint`, equals the whole-slice reference: the strict trace and skipped
/// count or the strict error (variant and offset), and the salvage trace
/// with its whole report. A hint shorter than the capture makes the
/// window that short, so refills land inside headers and bodies; the
/// in-memory wrappers must agree too.
fn streamed_matches_reference(
    bytes: &[u8],
    splits: &[usize],
    interrupt: bool,
    hint: Option<u64>,
) -> Result<(), TestCaseError> {
    let stream = || {
        let input = Split {
            rest: bytes,
            sizes: splits,
            interrupt,
            calls: 0,
        };
        Capture::stream(input, hint)
    };
    let strict = format!("{:?}", reference_ingest::read_pcap_bytes(bytes));
    prop_assert_eq!(
        format!("{:?}", pcap_io::read_capture(stream())),
        strict.clone()
    );
    prop_assert_eq!(format!("{:?}", pcap_io::read_pcap_bytes(bytes)), strict);
    let salvage = reference_ingest::read_pcap_salvage_bytes(bytes);
    match pcap_io::salvage_capture(stream()) {
        Ok(streamed) => prop_assert_eq!(&streamed, &salvage),
        Err(e) => prop_assert!(false, "salvage of a stream that cannot fail failed: {e}"),
    }
    prop_assert_eq!(pcap_io::read_pcap_salvage_bytes(bytes), salvage);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streamed ingest reproduces the whole-slice walker it replaced on
    /// clean, injected and multi-fault mangled captures, whatever the
    /// read sizes and wherever the window's refills fall.
    #[test]
    fn streamed_ingest_matches_whole_slice_reference(
        records in proptest::collection::vec(arb_record(), 2..24),
        kind_idx in any::<proptest::sample::Index>(),
        faults in 1usize..5,
        seed in any::<u64>(),
        splits in arb_splits(),
        interrupt in any::<bool>(),
        hinted in any::<bool>(),
        hint_permille in 0u64..1200,
    ) {
        let kind = FaultKind::ALL[kind_idx.index(FaultKind::ALL.len())];
        let trace: Trace = records.into_iter().collect();
        let base = pcap_io::write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).unwrap();
        let spec = mangle::MangleSpec {
            seed,
            faults,
            kinds: FaultKind::ALL.to_vec(),
        };
        let mut captures = vec![mangle::mangle(&base, &spec).0];
        captures.extend(mangle::inject(&base, kind, seed).map(|(bytes, _)| bytes));
        captures.push(base);
        for bytes in &captures {
            let hint = hinted.then(|| bytes.len() as u64 * hint_permille / 1000);
            streamed_matches_reference(bytes, &splits, interrupt, hint)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ConnStats invariants. Timestamps are sorted (traces are written in
    /// filter order); sequence numbers remain arbitrary, so the byte
    /// accounting is only sanity-checked, not related across the wrap.
    #[test]
    fn connstats_invariants(mut records in proptest::collection::vec(arb_record(), 1..60)) {
        records.sort_by_key(|r| r.ts);
        let trace: Trace = records.into_iter().collect();
        for conn in Connection::split(&trace) {
            let Some(s) = tcpa_trace::ConnStats::of(&conn) else { continue };
            prop_assert!(s.retransmitted_packets <= s.data_packets);
            prop_assert!(s.elapsed().as_nanos() >= 0);
            prop_assert!(s.longest_silence <= s.elapsed());
            prop_assert!(s.goodput() >= 0.0);
            prop_assert!(s.retransmission_ratio() >= 0.0 && s.retransmission_ratio() <= 1.0);
        }
    }
}

/// Response-delay-like samples: mostly a handful of small values (heavy
/// duplicates, zero, and the negative margins of cured violations), the
/// rest spread wide.
fn arb_delay() -> impl Strategy<Value = Duration> {
    prop_oneof![
        3 => (-3i64..4).prop_map(Duration::from_millis),
        1 => (-2_000_000i64..300_000_000).prop_map(Duration),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The two-heap running median agrees with `Summary::median` after
    /// every single insertion. (16 cases: the reference copies every
    /// sample on every query, which is slow in debug builds.)
    #[test]
    fn running_median_matches_summary_after_every_insertion(
        samples in proptest::collection::vec(arb_delay(), 1..2001)
    ) {
        let mut running = RunningMedian::new();
        let mut summary = Summary::new();
        for (i, &d) in samples.iter().enumerate() {
            running.add(d);
            summary.add(d);
            prop_assert_eq!(running.median(), summary.median(), "after insertion {}", i);
        }
    }
}

/// The nearest-rank `p`th percentile of `samples`, read from a sorted
/// copy.
fn sorted_nearest_rank(samples: &[Duration], p: f64) -> Option<Duration> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted.get(rank.min(sorted.len()).checked_sub(1)?).copied()
}

/// Samples from a range of 15 ms, so duplicates are heavy, at lengths
/// that hit the rank's clamps (0–3), and short and long runs.
fn arb_samples() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        proptest::collection::vec(-3i64..12, 0..4),
        proptest::collection::vec(-3i64..12, 4..100),
        proptest::collection::vec(-3i64..12, 100..1001),
    ]
}

/// The percentiles the analyzer reads and the two clamps, or any other.
fn arb_percentile() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(50.0),
        Just(90.0),
        Just(100.0),
        0.0f64..100.0
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `percentile` and `median` equal a sorted nearest-rank reference,
    /// and no read reorders the samples: `samples()` stays in insertion
    /// order.
    #[test]
    fn percentile_is_nearest_rank_and_keeps_insertion_order(
        values in arb_samples(),
        ps in proptest::collection::vec(arb_percentile(), 1..8),
    ) {
        let mut s = Summary::new();
        for &v in &values {
            s.add(Duration::from_millis(v));
        }
        let inserted = s.samples().to_vec();
        for &p in &ps {
            prop_assert_eq!(s.percentile(p), sorted_nearest_rank(&inserted, p), "p {}", p);
            prop_assert_eq!(s.samples(), &inserted[..]);
        }
        prop_assert_eq!(s.median(), sorted_nearest_rank(&inserted, 50.0));
        prop_assert_eq!(s.samples(), &inserted[..]);
    }
}
