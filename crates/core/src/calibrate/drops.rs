//! Packet-filter drop detection (§3.1.1): self-consistency checks.
//!
//! The key idea: TCP is reliable, so the TCP itself diligently repairs
//! *genuine network drops*, while a *filter drop* leaves behavior that is
//! inconsistent with the recorded packets — the connection acts as if a
//! packet existed that the trace lacks. The paper employs eight such
//! checks; this module implements the six structural ones, which need no
//! congestion-window model. The other two rest on a window model: the
//! sender replay reports window violations and lulls as
//! [`crate::SenderIssue`]s, not as drop evidence.
//!
//! Several checks are only sound from a particular vantage point (e.g.
//! dup acks without visible stimulus prove nothing at the *sender's*
//! filter, which cannot see what the receiver received), so detection is
//! parameterized by [`Vantage`].

use tcpa_trace::{Connection, Dir, Duration, Time, TraceRecord};
use tcpa_wire::SeqNum;

/// Where the packet filter sat relative to the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Vantage {
    /// At or near the bulk-data sender.
    Sender,
    /// At or near the receiver.
    Receiver,
    /// Unknown: only vantage-neutral checks run.
    #[default]
    Unknown,
}

/// The six structural self-consistency checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCheck {
    /// An ack for data that, according to the trace, was never sent /
    /// never arrived (and does not show up within the resequencing
    /// window).
    AckOfUnseenData,
    /// Cumulative acks advanced over a sequence range no recorded data
    /// packet ever covered.
    DataHoleSkipped,
    /// Duplicate acks with no recorded out-of-sequence arrival to mandate
    /// them (receiver vantage only).
    DupAckWithoutStimulus,
    /// A long run of in-sequence data with no ack records at all
    /// (receiver vantage only): the ack records were shed.
    SilentReceiver,
    /// The filter-local host's IP ident counter jumped, though it is
    /// otherwise perfectly sequential: records of its packets are missing.
    IdentSequenceGap,
    /// The traced receiver's cumulative ack number decreased — impossible
    /// for the emitting TCP (receiver vantage only).
    AckRegression,
}

/// One piece of filter-drop evidence.
#[derive(Debug, Clone)]
pub struct DropEvidence {
    /// Which check fired.
    pub check: DropCheck,
    /// Index of the triggering record within the connection.
    pub index: usize,
    /// Human-readable detail.
    pub detail: String,
}

const RESEQ_EPSILON: Duration = Duration::from_millis(2);
const SILENT_SPAN: Duration = Duration::from_secs(1);
const SILENT_MIN_PKTS: usize = 4;

/// Runs the structural checks against one connection.
pub fn detect_drops(conn: &Connection, vantage: Vantage) -> Vec<DropEvidence> {
    let mut out = Vec::new();
    check_ack_of_unseen_data(conn, &mut out);
    check_data_hole_skipped(conn, &mut out);
    if vantage == Vantage::Receiver {
        check_dup_ack_without_stimulus(conn, &mut out);
        check_silent_receiver(conn, &mut out);
        check_ack_regression(conn, &mut out);
    }
    match vantage {
        Vantage::Sender => check_ident_gap(conn, Dir::SenderToReceiver, &mut out),
        Vantage::Receiver => check_ident_gap(conn, Dir::ReceiverToSender, &mut out),
        Vantage::Unknown => {}
    }
    out
}

fn check_ack_of_unseen_data(conn: &Connection, out: &mut Vec<DropEvidence>) {
    let recs = &conn.records;
    let mut highest_data_hi: Option<SeqNum> = None;
    // Built at the first ack above the highest data, so that a clean
    // connection never pays for it.
    let mut suffix_min_ts: Vec<Time> = Vec::new();
    for (i, (dir, rec)) in recs.iter().enumerate() {
        match dir {
            // SYN and FIN occupy sequence space too: the ack of a FIN is
            // one beyond the last data byte and must not read as an ack
            // of unseen data.
            Dir::SenderToReceiver if rec.seq_len() > 0 => {
                let hi = rec.seq_hi();
                highest_data_hi = Some(match highest_data_hi {
                    Some(h) => h.max(hi),
                    None => hi,
                });
            }
            Dir::ReceiverToSender if rec.is_pure_ack() => {
                if let Some(h) = highest_data_hi {
                    if rec.tcp.ack.after(h) {
                        if suffix_min_ts.is_empty() {
                            suffix_min_ts = suffix_minima(recs);
                        }
                        // Resequencing produces the same signature with the
                        // data following within ε (§3.1.3); only flag a
                        // drop when it never follows.
                        let (appears_soon, _) = data_within_epsilon(recs, &suffix_min_ts, i);
                        if !appears_soon {
                            out.push(DropEvidence {
                                check: DropCheck::AckOfUnseenData,
                                index: i,
                                detail: format!(
                                    "ack {} exceeds highest recorded data {}",
                                    rec.tcp.ack, h
                                ),
                            });
                            // One report per gap: fast-forward our notion.
                            highest_data_hi = Some(rec.tcp.ack);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// The earliest timestamp at or after each record.
fn suffix_minima(recs: &[(Dir, TraceRecord)]) -> Vec<Time> {
    let mut minima: Vec<Time> = recs
        .iter()
        .rev()
        .scan(Time(i64::MAX), |min, (_, r)| {
            *min = (*min).min(r.ts);
            Some(*min)
        })
        .collect();
    minima.reverse();
    minima
}

/// Whether data covering the ack at `i` is recorded within ε after it,
/// and how many records the look-ahead scanned to tell. The scan stops
/// at the first record from which on none lies within ε of the ack
/// (`suffix_min_ts`, from [`suffix_minima`]), so it finds whatever a
/// scan to the last record would, even where timestamps step back.
fn data_within_epsilon(
    recs: &[(Dir, TraceRecord)],
    suffix_min_ts: &[Time],
    i: usize,
) -> (bool, usize) {
    let Some((_, ack)) = recs.get(i) else {
        return (false, 0);
    };
    let mut scanned = 0;
    for ((dir, r), &min_ts) in recs.iter().zip(suffix_min_ts).skip(i + 1) {
        scanned += 1;
        if min_ts - ack.ts > RESEQ_EPSILON {
            break;
        }
        if r.ts - ack.ts <= RESEQ_EPSILON
            && *dir == Dir::SenderToReceiver
            && r.is_data()
            && r.seq_hi().at_or_after(ack.tcp.ack)
        {
            return (true, scanned);
        }
    }
    (false, scanned)
}

fn check_data_hole_skipped(conn: &Connection, out: &mut Vec<DropEvidence>) {
    // Union of recorded coverage; SYN and FIN occupy sequence space.
    let mut intervals: Vec<(SeqNum, SeqNum)> = conn
        .in_dir(Dir::SenderToReceiver)
        .filter(|r| r.seq_len() > 0)
        .map(|r| (r.seq_lo(), r.seq_hi()))
        .collect();
    let Some(&(base, _)) = intervals.first() else {
        return;
    };
    // Modular `before` is no total order once starts spread over more
    // than half the circle, and the sort may panic on it. The signed
    // distance from one start is a total order, and the same order
    // whenever the data spans less than 2³¹ bytes.
    intervals.sort_by_key(|&(lo, _)| lo.dist(base));
    let max_ack = conn
        .in_dir(Dir::ReceiverToSender)
        .filter(|r| r.tcp.flags.ack())
        .map(|r| r.tcp.ack)
        .fold(None::<SeqNum>, |acc, a| {
            Some(match acc {
                Some(m) => m.max(a),
                None => a,
            })
        });
    let Some(max_ack) = max_ack else { return };
    let mut covered_to = intervals[0].0;
    for &(lo, hi) in &intervals {
        if lo.after(covered_to) && covered_to.before(max_ack) {
            // A hole below the final cumulative ack that no data record
            // ever covered.
            let hole_hi = lo.min(max_ack);
            if hole_hi.after(covered_to) {
                out.push(DropEvidence {
                    check: DropCheck::DataHoleSkipped,
                    index: 0,
                    detail: format!("acked hole [{covered_to}, {hole_hi}) has no data record"),
                });
            }
        }
        if hi.after(covered_to) {
            covered_to = hi;
        }
    }
}

fn check_dup_ack_without_stimulus(conn: &Connection, out: &mut Vec<DropEvidence>) {
    let recs = &conn.records;
    let mut last_ack: Option<SeqNum> = None;
    let mut last_win: u16 = 0;
    // Arrivals since the previous outgoing ack that can mandate a dup:
    // out-of-sequence data or data entirely below the ack point.
    let mut stimulus_since_ack = false;
    let mut in_order_hi: Option<SeqNum> = None;
    for (i, (dir, rec)) in recs.iter().enumerate() {
        match dir {
            Dir::SenderToReceiver if rec.is_data() => {
                match in_order_hi {
                    Some(h) => {
                        if rec.seq_lo() != h
                            || last_ack.is_some_and(|a| rec.seq_hi().at_or_before(a))
                        {
                            stimulus_since_ack = true; // gap, overlap or old data
                        }
                        if rec.seq_hi().after(h) {
                            in_order_hi = Some(rec.seq_hi());
                        }
                    }
                    None => in_order_hi = Some(rec.seq_hi()),
                }
            }
            Dir::ReceiverToSender if rec.is_pure_ack() => {
                if Some(rec.tcp.ack) == last_ack
                    && rec.tcp.window == last_win
                    && !stimulus_since_ack
                {
                    out.push(DropEvidence {
                        check: DropCheck::DupAckWithoutStimulus,
                        index: i,
                        detail: format!("dup ack {} with no recorded stimulus", rec.tcp.ack),
                    });
                }
                last_ack = Some(rec.tcp.ack);
                last_win = rec.tcp.window;
                stimulus_since_ack = false;
            }
            _ => {}
        }
    }
}

fn check_silent_receiver(conn: &Connection, out: &mut Vec<DropEvidence>) {
    let recs = &conn.records;
    let mut run_start: Option<(usize, Time)> = None;
    let mut run_len = 0usize;
    for (i, (dir, rec)) in recs.iter().enumerate() {
        match dir {
            Dir::SenderToReceiver if rec.is_data() => {
                if run_start.is_none() {
                    run_start = Some((i, rec.ts));
                }
                run_len += 1;
                if let Some((start, t0)) = run_start {
                    if run_len >= SILENT_MIN_PKTS && rec.ts - t0 > SILENT_SPAN {
                        out.push(DropEvidence {
                            check: DropCheck::SilentReceiver,
                            index: start,
                            detail: format!(
                                "{run_len} data packets over {} with no ack records",
                                rec.ts - t0
                            ),
                        });
                        run_start = Some((i, rec.ts));
                        run_len = 0;
                    }
                }
            }
            Dir::ReceiverToSender if rec.tcp.flags.ack() => {
                run_start = None;
                run_len = 0;
            }
            _ => {}
        }
    }
}

fn check_ack_regression(conn: &Connection, out: &mut Vec<DropEvidence>) {
    let mut max_ack: Option<SeqNum> = None;
    for (i, (dir, rec)) in conn.records.iter().enumerate() {
        if *dir != Dir::ReceiverToSender || !rec.is_pure_ack() {
            continue;
        }
        if let Some(m) = max_ack {
            if rec.tcp.ack.before(m) {
                out.push(DropEvidence {
                    check: DropCheck::AckRegression,
                    index: i,
                    detail: format!("receiver ack went back from {m} to {}", rec.tcp.ack),
                });
            }
        }
        max_ack = Some(match max_ack {
            Some(m) => m.max(rec.tcp.ack),
            None => rec.tcp.ack,
        });
    }
}

fn check_ident_gap(conn: &Connection, dir: Dir, out: &mut Vec<DropEvidence>) {
    // Only meaningful when the host's ident stream is otherwise strictly
    // sequential (single-connection host); measure first.
    let idents: Vec<(usize, u16)> = conn
        .records
        .iter()
        .enumerate()
        .filter(|(_, (d, _))| *d == dir)
        .map(|(i, (_, r))| (i, r.ip.ident))
        .collect();
    if idents.len() < 8 {
        return;
    }
    let steps: Vec<u16> = idents
        .windows(2)
        .map(|w| w[1].1.wrapping_sub(w[0].1))
        .collect();
    let sequential = steps.iter().filter(|&&s| s == 1).count();
    if (sequential as f64) < 0.9 * steps.len() as f64 {
        return; // host interleaves other traffic; check unsound
    }
    for (w, &step) in idents.windows(2).zip(&steps) {
        if step > 1 && step < 128 {
            out.push(DropEvidence {
                check: DropCheck::IdentSequenceGap,
                index: w[1].0,
                detail: format!(
                    "ident jumped {} -> {} ({} records missing)",
                    w[0].1,
                    w[1].1,
                    step - 1
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::Trace;
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, TcpFlags, TcpRepr};

    fn rec(ts_ms: i64, src: u8, dst: u8, ident: u16, seq: u32, len: u32, ack: u32) -> TraceRecord {
        TraceRecord {
            ts: Time::from_millis(ts_ms),
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
                flags: TcpFlags::ACK,
                window: 8192,
                ..TcpRepr::new(5000 + u16::from(src), 5000 + u16::from(dst))
            },
            payload_len: len,
            checksum_ok: Some(true),
        }
    }

    fn conn(records: Vec<TraceRecord>) -> Connection {
        let trace: Trace = records.into_iter().collect();
        Connection::split(&trace).remove(0)
    }

    fn kinds(ev: &[DropEvidence]) -> Vec<DropCheck> {
        ev.iter().map(|e| e.check).collect()
    }

    #[test]
    fn clean_connection_has_no_evidence() {
        let c = conn(vec![
            rec(0, 1, 2, 1, 1, 512, 1),
            rec(10, 1, 2, 2, 513, 512, 1),
            rec(50, 2, 1, 1, 1, 0, 1025),
            rec(60, 1, 2, 3, 1025, 512, 1),
            rec(110, 2, 1, 2, 1, 0, 1537),
        ]);
        assert!(detect_drops(&c, Vantage::Sender).is_empty());
        assert!(detect_drops(&c, Vantage::Receiver).is_empty());
    }

    #[test]
    fn ack_of_unseen_data_detected() {
        // The filter missed the record of 513..1025; the ack proves it
        // was sent and received.
        let c = conn(vec![
            rec(0, 1, 2, 1, 1, 512, 1),
            rec(50, 2, 1, 1, 1, 0, 1025), // acks data never recorded
            rec(60, 1, 2, 3, 1025, 512, 1),
        ]);
        let ev = detect_drops(&c, Vantage::Sender);
        assert!(kinds(&ev).contains(&DropCheck::AckOfUnseenData), "{ev:?}");
    }

    #[test]
    fn data_hole_skipped_detected() {
        // 513..1025 never appears but the final ack covers 1537.
        let c = conn(vec![
            rec(0, 1, 2, 1, 1, 512, 1),
            rec(10, 1, 2, 3, 1025, 512, 1),
            rec(80, 2, 1, 1, 1, 0, 1537),
        ]);
        let ev = detect_drops(&c, Vantage::Sender);
        assert!(kinds(&ev).contains(&DropCheck::DataHoleSkipped), "{ev:?}");
    }

    #[test]
    fn scattered_sequence_numbers_do_not_break_the_hole_check() {
        // Sequence numbers spread over the whole 32-bit circle: modular
        // `before` is no total order on them, so sorting by it can panic.
        let mut seq = 0x2545_f491u32;
        let mut records = vec![];
        for i in 0..45u16 {
            seq ^= seq << 13;
            seq ^= seq >> 17;
            seq ^= seq << 5;
            records.push(rec(i64::from(i), 1, 2, i + 1, seq, 512, 1));
        }
        records.push(rec(100, 2, 1, 1, 1, 0, seq));
        let c = conn(records);
        let ev = detect_drops(&c, Vantage::Sender);
        assert!(kinds(&ev).contains(&DropCheck::DataHoleSkipped), "{ev:?}");
    }

    #[test]
    fn genuine_network_drop_is_not_flagged() {
        // Packet 513 lost in the network *after* the filter: the trace
        // records it, the receiver dup-acks, the sender repairs it. No
        // filter drop anywhere.
        let c = conn(vec![
            rec(0, 1, 2, 1, 1, 512, 1),
            rec(5, 1, 2, 2, 513, 512, 1), // recorded, then lost downstream
            rec(10, 1, 2, 3, 1025, 512, 1),
            rec(50, 2, 1, 1, 1, 0, 513),
            rec(55, 2, 1, 2, 1, 0, 513), // dup (stimulated by 1025 arriving)
            rec(200, 1, 2, 4, 513, 512, 1), // retransmission
            rec(260, 2, 1, 3, 1, 0, 1537),
        ]);
        let ev = detect_drops(&c, Vantage::Sender);
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn dup_ack_without_stimulus_flagged_at_receiver() {
        // Receiver vantage: a dup ack appears with no out-of-order
        // arrival recorded — the arrival record was shed by the filter.
        let c = conn(vec![
            rec(0, 1, 2, 1, 1, 512, 1),
            rec(1, 2, 1, 1, 1, 0, 513),
            rec(30, 2, 1, 2, 1, 0, 513), // dup ack, nothing arrived
        ]);
        let ev = detect_drops(&c, Vantage::Receiver);
        assert!(
            kinds(&ev).contains(&DropCheck::DupAckWithoutStimulus),
            "{ev:?}"
        );
        // The same trace seen from the sender proves nothing.
        let ev = detect_drops(&c, Vantage::Sender);
        assert!(!kinds(&ev).contains(&DropCheck::DupAckWithoutStimulus));
    }

    #[test]
    fn dup_ack_with_visible_stimulus_not_flagged() {
        let c = conn(vec![
            rec(0, 1, 2, 1, 1, 512, 1),
            rec(1, 2, 1, 1, 1, 0, 513),
            rec(20, 1, 2, 3, 1025, 512, 1), // out-of-order arrival
            rec(21, 2, 1, 2, 1, 0, 513),    // mandated dup ack
        ]);
        let ev = detect_drops(&c, Vantage::Receiver);
        assert!(
            !kinds(&ev).contains(&DropCheck::DupAckWithoutStimulus),
            "{ev:?}"
        );
    }

    #[test]
    fn silent_receiver_detected() {
        let mut records = vec![];
        for i in 0..6 {
            records.push(rec(i * 400, 1, 2, i as u16 + 1, 1 + 512 * i as u32, 512, 1));
        }
        let c = conn(records);
        let ev = detect_drops(&c, Vantage::Receiver);
        assert!(kinds(&ev).contains(&DropCheck::SilentReceiver), "{ev:?}");
    }

    #[test]
    fn ack_regression_detected_at_receiver_only() {
        let c = conn(vec![
            rec(0, 1, 2, 1, 1, 512, 1),
            rec(10, 2, 1, 1, 1, 0, 513),
            rec(20, 2, 1, 2, 1, 0, 257), // impossible from the emitter
        ]);
        assert!(kinds(&detect_drops(&c, Vantage::Receiver)).contains(&DropCheck::AckRegression));
        assert!(!kinds(&detect_drops(&c, Vantage::Sender)).contains(&DropCheck::AckRegression));
    }

    /// The ack-of-unseen-data check as it was before its look-ahead was
    /// bounded: for each ack above the highest data, a walk over every
    /// later record.
    fn check_ack_of_unseen_data_unbounded(conn: &Connection, out: &mut Vec<DropEvidence>) {
        let recs = &conn.records;
        let mut highest_data_hi: Option<SeqNum> = None;
        for (i, (dir, rec)) in recs.iter().enumerate() {
            match dir {
                Dir::SenderToReceiver if rec.seq_len() > 0 => {
                    let hi = rec.seq_hi();
                    highest_data_hi = Some(match highest_data_hi {
                        Some(h) => h.max(hi),
                        None => hi,
                    });
                }
                Dir::ReceiverToSender if rec.is_pure_ack() => {
                    if let Some(h) = highest_data_hi {
                        if rec.tcp.ack.after(h) {
                            let appears_soon = recs.iter().skip(i + 1).any(|(d, r)| {
                                r.ts - rec.ts <= RESEQ_EPSILON
                                    && *d == Dir::SenderToReceiver
                                    && r.is_data()
                                    && r.seq_hi().at_or_after(rec.tcp.ack)
                            });
                            if !appears_soon {
                                out.push(DropEvidence {
                                    check: DropCheck::AckOfUnseenData,
                                    index: i,
                                    detail: format!(
                                        "ack {} exceeds highest recorded data {}",
                                        rec.tcp.ack, h
                                    ),
                                });
                                highest_data_hi = Some(rec.tcp.ack);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// One data segment, then `acks` pure acks each above everything
    /// sent, 1 ms apart, with the data they ack recorded `lag_us` after
    /// every `every`-th of them.
    fn ack_ladder(acks: u32, every: u32, lag_us: i64) -> Connection {
        let mut records = vec![rec(0, 1, 2, 1, 1, 512, 1)];
        for k in 1..=acks {
            let mut ack = rec(i64::from(k), 2, 1, k as u16, 1, 0, 1 + 512 * (k + 1));
            ack.ts = Time::from_millis(i64::from(k));
            records.push(ack);
            if k % every == 0 {
                let mut data = rec(0, 1, 2, k as u16 + 1, 1 + 512 * k, 512, 1);
                data.ts = Time::from_micros(i64::from(k) * 1000 + lag_us);
                records.push(data);
            }
        }
        conn(records)
    }

    /// A connection of pseudo-random data and acks whose timestamps
    /// mostly advance by up to 3 ms but now and then step back by up to
    /// 40 ms (a filter's time travel).
    fn time_travel_connection(seed: u64, len: usize) -> Connection {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut t_us = 100_000i64;
        let mut data_hi = 1u32;
        let mut records = vec![];
        for k in 0..len {
            t_us += if next(8) == 0 {
                -(next(40_000) as i64)
            } else {
                next(3_000) as i64
            };
            let mut r = if next(2) == 0 {
                let seq = data_hi.saturating_sub(512 * next(3) as u32);
                data_hi = data_hi.max(seq + 512);
                rec(0, 1, 2, k as u16, seq, 512, 1)
            } else {
                rec(0, 2, 1, k as u16, 1, 0, data_hi + 512 * next(3) as u32)
            };
            r.ts = Time::from_micros(t_us);
            records.push(r);
        }
        conn(records)
    }

    fn findings(conn: &Connection, check: fn(&Connection, &mut Vec<DropEvidence>)) -> String {
        let mut out = vec![];
        check(conn, &mut out);
        format!("{out:?}")
    }

    #[test]
    fn bounded_look_ahead_finds_what_the_unbounded_walk_found() {
        let mut conns = vec![
            ack_ladder(300, 1, 1_500),
            ack_ladder(300, 3, 2_500),
            ack_ladder(300, 1_000, 0),
        ];
        conns.extend((0..60).map(|seed| time_travel_connection(seed, 200)));
        let mut flagged = 0;
        for c in &conns {
            let want = findings(c, check_ack_of_unseen_data_unbounded);
            assert_eq!(findings(c, check_ack_of_unseen_data), want);
            flagged += want.matches("AckOfUnseenData").count();
        }
        assert!(flagged > 300, "the cases exercise the check: {flagged}");
    }

    #[test]
    fn look_ahead_scans_only_the_records_within_epsilon() {
        for c in [ack_ladder(2_000, 1, 500), ack_ladder(2_000, 1_000, 0)] {
            let recs = &c.records;
            assert!(recs.windows(2).all(|w| w[0].1.ts <= w[1].1.ts));
            let suffix_min_ts = suffix_minima(recs);
            for (i, (dir, ack)) in recs.iter().enumerate() {
                if *dir != Dir::ReceiverToSender {
                    continue;
                }
                let within = recs
                    .iter()
                    .skip(i + 1)
                    .filter(|(_, r)| r.ts - ack.ts <= RESEQ_EPSILON)
                    .count();
                let (_, scanned) = data_within_epsilon(recs, &suffix_min_ts, i);
                assert!(scanned <= within + 1, "ack {i}: {scanned} > {within} + 1");
            }
        }
    }

    #[test]
    fn ident_gap_detected_when_stream_sequential() {
        let mut records = vec![];
        let mut ident = 1u16;
        for i in 0..12 {
            if i == 6 {
                ident += 3; // three records vanished
            }
            records.push(rec(i * 10, 1, 2, ident, 1 + 512 * i as u32, 512, 1));
            ident += 1;
        }
        records.push(rec(130, 2, 1, 1, 1, 0, 4097));
        let c = conn(records);
        let ev = detect_drops(&c, Vantage::Sender);
        assert!(kinds(&ev).contains(&DropCheck::IdentSequenceGap), "{ev:?}");
    }

    #[test]
    fn ident_gap_ignored_for_non_sequential_hosts() {
        let mut records = vec![];
        for i in 0..12u32 {
            // Host interleaves other traffic: idents jump around.
            records.push(rec(
                i as i64 * 10,
                1,
                2,
                (i * 37 % 251) as u16,
                1 + 512 * i,
                512,
                1,
            ));
        }
        let c = conn(records);
        let ev = detect_drops(&c, Vantage::Sender);
        assert!(!kinds(&ev).contains(&DropCheck::IdentSequenceGap), "{ev:?}");
    }
}
