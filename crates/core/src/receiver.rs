//! Receiver-behavior analysis (§7, §9): ack obligations and policies.
//!
//! From a trace captured at (or near) the *receiver*, the analyzer tracks
//! the **ack obligations** the receiver incurs as data arrives — optional
//! for in-sequence data (it may wait, hoping to combine acks, though no
//! longer than 500 ms and at least every two full segments, RFC 1122),
//! mandatory for out-of-sequence data — and classifies every ack the
//! receiver emits:
//!
//! * **delayed** — covering less than two full segments,
//! * **normal** — exactly two,
//! * **stretch** — more than two,
//! * **duplicate** — mandated by out-of-sequence data,
//! * **gratuitous** — nothing obliged it (§7: the receiver-side analogue
//!   of a window violation; evidence of analyzer confusion, measurement
//!   error — or the Solaris 2.3 acking bug, §8.6);
//!
//! and measures each ack's *response delay* since the oldest unacknowledged
//! arrival — the §9.3 noise floor for sender RTT estimation. The shape of
//! the delayed-ack distribution identifies the generation policy (§9.1):
//! BSD's heartbeat gives delays uniform on [0, 200 ms); Solaris's
//! interval timer masses near 50 ms; Linux 1.0 acks within ~1 ms.
//!
//! Corrupted arrivals are discarded by the real receiver before TCP sees
//! them; when the capture is header-only the corruption must be *inferred*
//! (§7): an in-sequence arrival the receiver never acknowledged, repaired
//! only by a retransmission that *is* acknowledged, was discarded on
//! arrival.

use tcpa_trace::{Connection, Dir, Duration, Summary, Time};
use tcpa_wire::SeqNum;

/// Classification of one receiver ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckClass {
    /// Acked fewer than two full segments.
    Delayed,
    /// Acked exactly two full segments.
    Normal,
    /// Acked more than two full segments (§9.1 "stretch acks").
    Stretch,
    /// A duplicate ack mandated by out-of-sequence data.
    Duplicate,
    /// No obligation, no window change, no connection bookkeeping.
    Gratuitous,
    /// Pure window update (offered window changed, nothing pending).
    WindowUpdate,
    /// Handshake or FIN bookkeeping.
    Bookkeeping,
}

/// One classified ack.
#[derive(Debug, Clone)]
pub struct ClassifiedAck {
    /// Record index within the connection.
    pub index: usize,
    /// The class.
    pub class: AckClass,
    /// Time since the oldest unacknowledged in-sequence arrival, for acks
    /// that had such an obligation pending.
    pub delay: Option<Duration>,
}

/// The receiver's inferred in-sequence acking policy (§9.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyGuess {
    /// Free-running heartbeat of roughly the given period (delays spread
    /// uniformly over [0, period)).
    Heartbeat {
        /// Estimated heartbeat period.
        period_ms: i64,
    },
    /// One-shot interval timer of roughly the given delay (delays mass at
    /// the value).
    IntervalTimer {
        /// Estimated timer delay.
        delay_ms: i64,
    },
    /// Acks every packet immediately.
    EveryPacket,
    /// Not enough evidence.
    Unknown,
}

/// A conformance violation against the acking duties of RFC 1122
/// §4.2.3.2, which the paper quotes (§7): an ack may be delayed "for no
/// longer than 500 msec", and there should be "at least one
/// acknowledgement for every two packet's worth of new data received".
#[derive(Debug, Clone)]
pub struct RfcViolation {
    /// Record index of the triggering ack (or arrival).
    pub index: usize,
    /// What rule was broken.
    pub detail: String,
}

/// Receiver analysis result.
#[derive(Debug, Clone)]
pub struct ReceiverAnalysis {
    /// Every ack, classified, in trace order.
    pub acks: Vec<ClassifiedAck>,
    /// Response delays of acks that had a pending obligation.
    pub ack_delays: Summary,
    /// Response delays of *delayed*-class acks only (§9.1 distribution).
    pub delayed_ack_delays: Summary,
    /// Record indices of arrivals inferred (or observed) corrupt and
    /// discarded by the receiver.
    pub corrupt_arrivals: Vec<usize>,
    /// Inferred acking policy.
    pub policy: PolicyGuess,
    /// The segment-size yardstick used for the two-segment rule.
    pub seg_size: u32,
    /// RFC 1122 acking-duty violations (§7): acks delayed past 500 ms,
    /// or more than two segments' worth of data left unacknowledged.
    pub rfc_violations: Vec<RfcViolation>,
}

impl ReceiverAnalysis {
    /// Count of acks in a class.
    pub fn count(&self, class: AckClass) -> usize {
        self.acks.iter().filter(|a| a.class == class).count()
    }
}

/// Analyzes receiver behavior. Returns `None` if the connection has no
/// data flowing to the receiver.
pub fn analyze_receiver(conn: &Connection) -> Option<ReceiverAnalysis> {
    if !conn.in_dir(Dir::SenderToReceiver).any(|r| r.is_data()) {
        return None;
    }
    let seg_size = segment_yardstick(conn)?;
    let corrupt = find_corrupt_arrivals(conn);

    let mut rcv_nxt: Option<SeqNum> = None;
    let mut ooo: Vec<(SeqNum, SeqNum)> = Vec::new(); // buffered intervals
    let mut pending_bytes: u32 = 0;
    let mut pending_since: Option<Time> = None;
    let mut mandatory_pending = false;
    let mut last_ack: Option<SeqNum> = None;
    let mut last_win: Option<u16> = None;
    let mut fin_seen = false;

    let mut acks = Vec::new();
    let mut ack_delays = Summary::new();
    let mut delayed_delays = Summary::new();
    let mut rfc_violations = Vec::new();

    for (i, (dir, rec)) in conn.records.iter().enumerate() {
        match dir {
            Dir::SenderToReceiver => {
                if rec.tcp.flags.syn() {
                    rcv_nxt = Some(rec.tcp.seq + 1);
                    continue;
                }
                if corrupt.contains(&i) {
                    continue; // discarded before the TCP saw it
                }
                if rec.tcp.flags.fin() {
                    fin_seen = true;
                }
                if !rec.is_data() {
                    // A zero-length segment below the expected sequence is
                    // a keep-alive probe: it mandates a duplicate ack,
                    // which must not read as gratuitous.
                    if let Some(nxt) = rcv_nxt {
                        if rec.tcp.flags.ack()
                            && !rec.tcp.flags.syn()
                            && !rec.tcp.flags.fin()
                            && rec.seq_lo().before(nxt)
                        {
                            mandatory_pending = true;
                        }
                    }
                    continue;
                }
                let lo = rec.seq_lo();
                let hi = rec.seq_lo() + rec.payload_len;
                let nxt = rcv_nxt.get_or_insert(lo);
                // Data beyond the advertised window (e.g. a zero-window
                // probe) is discarded by the receiver with a mandatory
                // ack restating the window.
                if let (Some(la), Some(lw)) = (last_ack, last_win) {
                    if hi.after(la + u32::from(lw)) {
                        mandatory_pending = true;
                        continue;
                    }
                }
                if lo.at_or_before(*nxt) && hi.after(*nxt) {
                    // In sequence (possibly overlapping): optional
                    // obligation accrues.
                    pending_bytes += (hi - *nxt) as u32;
                    *nxt = hi;
                    if pending_since.is_none() {
                        pending_since = Some(rec.ts);
                    }
                    // Drain any buffered intervals that now fit; a filled
                    // hole mandates an immediate ack.
                    loop {
                        let mut advanced = false;
                        ooo.retain(|&(blo, bhi)| {
                            if blo.at_or_before(*nxt) {
                                if bhi.after(*nxt) {
                                    pending_bytes += (bhi - *nxt) as u32;
                                    *nxt = bhi;
                                }
                                advanced = true;
                                false
                            } else {
                                true
                            }
                        });
                        if !advanced {
                            break;
                        }
                        mandatory_pending = true; // hole filled
                    }
                } else if lo.after(*nxt) {
                    // Above a hole: mandatory dup-ack obligation.
                    ooo.push((lo, hi));
                    mandatory_pending = true;
                } else {
                    // Entirely old: a needless retransmission; mandatory
                    // dup ack.
                    mandatory_pending = true;
                }
            }
            Dir::ReceiverToSender => {
                if !rec.tcp.flags.ack() {
                    continue;
                }
                if rec.tcp.flags.syn() || rec.tcp.flags.fin() || rec.tcp.flags.rst() || fin_seen {
                    acks.push(ClassifiedAck {
                        index: i,
                        class: AckClass::Bookkeeping,
                        delay: None,
                    });
                    // FIN-era acks end obligation tracking.
                    pending_bytes = 0;
                    pending_since = None;
                    mandatory_pending = false;
                    last_ack = Some(rec.tcp.ack);
                    last_win = Some(rec.tcp.window);
                    continue;
                }
                let win_changed = last_win != Some(rec.tcp.window);
                let is_dup = Some(rec.tcp.ack) == last_ack;
                let (class, delay) = if mandatory_pending && is_dup {
                    (AckClass::Duplicate, None)
                } else if pending_bytes > 0 {
                    let d = pending_since.map(|t0| rec.ts - t0);
                    if let Some(d) = d {
                        if d > Duration::from_millis(500) {
                            rfc_violations.push(RfcViolation {
                                index: i,
                                detail: format!(
                                    "ack delayed {d} — RFC 1122 caps the delay at 500 ms"
                                ),
                            });
                        }
                    }
                    let segs = pending_bytes / seg_size;
                    if segs > 2 {
                        rfc_violations.push(RfcViolation {
                            index: i,
                            detail: format!(
                                "{segs} full segments unacknowledged — RFC 1122 requires an \
                                 ack at least every two"
                            ),
                        });
                    }
                    let class = if segs < 2 {
                        AckClass::Delayed
                    } else if segs == 2 {
                        AckClass::Normal
                    } else {
                        AckClass::Stretch
                    };
                    (class, d)
                } else if mandatory_pending {
                    // Out-of-order arrival, first ack after it (not a dup
                    // because e.g. it also advanced): mandated.
                    (AckClass::Duplicate, None)
                } else if win_changed {
                    (AckClass::WindowUpdate, None)
                } else {
                    (AckClass::Gratuitous, None)
                };
                if let Some(d) = delay {
                    ack_delays.add(d);
                    if class == AckClass::Delayed {
                        delayed_delays.add(d);
                    }
                }
                acks.push(ClassifiedAck {
                    index: i,
                    class,
                    delay,
                });
                // The cumulative ack discharges obligations it covers.
                if pending_bytes > 0 {
                    if let Some(nxt) = rcv_nxt {
                        if rec.tcp.ack.at_or_after(nxt) {
                            pending_bytes = 0;
                            pending_since = None;
                        }
                    }
                }
                mandatory_pending = false;
                last_ack = Some(rec.tcp.ack);
                last_win = Some(rec.tcp.window);
            }
        }
    }

    let policy = guess_policy(&delayed_delays, &acks);
    Some(ReceiverAnalysis {
        acks,
        ack_delays,
        delayed_ack_delays: delayed_delays,
        corrupt_arrivals: corrupt,
        policy,
        seg_size,
        rfc_violations,
    })
}

/// The "full segment" yardstick: the negotiated MSS when the handshake is
/// present, otherwise the modal data packet size.
fn segment_yardstick(conn: &Connection) -> Option<u32> {
    if let Some(mss) = conn.negotiated_mss() {
        return Some(u32::from(mss));
    }
    // BTreeMap so the modal-size tie-break is deterministic: iteration is
    // size-ascending and `max_by_key` keeps the last maximum, so ties
    // resolve to the largest segment size on every run.
    let mut sizes: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for rec in conn.in_dir(Dir::SenderToReceiver).filter(|r| r.is_data()) {
        *sizes.entry(rec.payload_len).or_insert(0) += 1;
    }
    sizes.into_iter().max_by_key(|&(_, n)| n).map(|(s, _)| s)
}

/// §7's behavioral corruption inference, plus direct checksum evidence
/// when the capture kept full payloads.
fn find_corrupt_arrivals(conn: &Connection) -> Vec<usize> {
    let mut corrupt = Vec::new();
    let records = &conn.records;
    for (i, (dir, rec)) in records.iter().enumerate() {
        if *dir != Dir::SenderToReceiver || !rec.is_data() {
            continue;
        }
        if rec.payload_len <= 1 {
            // One-byte segments are zero-window probes; their silent
            // rejection is flow control, not corruption.
            continue;
        }
        match rec.checksum_ok {
            Some(false) => {
                corrupt.push(i);
                continue;
            }
            Some(true) => continue,
            None => {}
        }
        // Header-only capture: infer. The arrival is suspect if (a) a
        // later record re-delivers the same range, and (b) no receiver
        // ack between the two covers the range.
        let hi = rec.seq_hi();
        let mut redelivered = None;
        for (j, (dir2, rec2)) in records.iter().enumerate().skip(i + 1) {
            if *dir2 == Dir::SenderToReceiver
                && rec2.is_data()
                && rec2.seq_lo().at_or_before(rec.seq_lo())
                && rec2.seq_hi().at_or_after(hi)
            {
                redelivered = Some(j);
                break;
            }
        }
        let Some(j) = redelivered else { continue };
        // The silence must be *probative*: either it outlasted the 500 ms
        // standard ceiling on delayed acks (§7 / RFC 1122) — a retransmit
        // arriving sooner (e.g. Solaris's premature RTO) proves nothing —
        // or the receiver actively claimed not to have the data, by
        // emitting an ack for exactly this packet's first byte well after
        // the packet arrived.
        let long_silence = records[j].1.ts - rec.ts > Duration::from_millis(500);
        // tcpa-lint: allow(no-unwrap-in-analyzer) -- i + 1 <= j < records.len(): j came from enumerate().skip(i + 1) over records
        let disclaimed = records[i + 1..j].iter().any(|(dir2, rec2)| {
            *dir2 == Dir::ReceiverToSender
                && rec2.tcp.flags.ack()
                && rec2.tcp.ack == rec.seq_lo()
                && rec2.ts - rec.ts > Duration::from_millis(1)
        });
        if !long_silence && !disclaimed {
            continue;
        }
        // tcpa-lint: allow(no-unwrap-in-analyzer) -- i + 1 <= j < records.len(): j came from enumerate().skip(i + 1) over records
        let acked_between = records[i + 1..j].iter().any(|(dir2, rec2)| {
            *dir2 == Dir::ReceiverToSender && rec2.tcp.flags.ack() && rec2.tcp.ack.at_or_after(hi)
        });
        // tcpa-lint: allow(no-unwrap-in-analyzer) -- j < records.len() by the same enumerate bound
        let acked_after = records[j..].iter().any(|(dir2, rec2)| {
            *dir2 == Dir::ReceiverToSender && rec2.tcp.flags.ack() && rec2.tcp.ack.at_or_after(hi)
        });
        if !acked_between && acked_after {
            corrupt.push(i);
        }
    }
    corrupt
}

/// Identifies the §9.1 acking policy from the delayed-ack distribution.
fn guess_policy(delayed: &Summary, acks: &[ClassifiedAck]) -> PolicyGuess {
    if delayed.count() < 8 {
        return PolicyGuess::Unknown;
    }
    // count() >= 8 was checked above, but stay graceful if the summary is
    // ever emptied between the check and the reads.
    let (Some(mean), Some(max)) = (delayed.mean(), delayed.percentile(98.0)) else {
        return PolicyGuess::Unknown;
    };
    if mean < Duration::from_millis(2) {
        // Immediate acks; and with ack-every-packet virtually every ack
        // is a "delayed" (sub-two-segment) ack.
        let delayed_count = acks.iter().filter(|a| a.class == AckClass::Delayed).count();
        let counted = acks
            .iter()
            .filter(|a| {
                matches!(
                    a.class,
                    AckClass::Delayed | AckClass::Normal | AckClass::Stretch
                )
            })
            .count();
        if counted > 0 && delayed_count * 10 >= counted * 9 {
            return PolicyGuess::EveryPacket;
        }
    }
    if max < Duration::from_millis(5) {
        // All delayed acks were near-immediate yet the receiver is not an
        // ack-every-packet one: the delay timer simply never got the
        // chance to fire (fast links drown it, §9.1). No timer signal.
        return PolicyGuess::Unknown;
    }
    let ratio = mean.as_nanos() as f64 / max.as_nanos() as f64;
    if ratio > 0.75 {
        PolicyGuess::IntervalTimer {
            delay_ms: (mean.as_millis_f64()).round() as i64,
        }
    } else if ratio < 0.65 {
        PolicyGuess::Heartbeat {
            period_ms: (max.as_millis_f64()).round() as i64,
        }
    } else {
        PolicyGuess::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::{Trace, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, TcpFlags, TcpOption, TcpRepr};

    fn rec(
        ts_ms: i64,
        src: u8,
        dst: u8,
        flags: TcpFlags,
        seq: u32,
        len: u32,
        ack: u32,
    ) -> TraceRecord {
        TraceRecord {
            ts: tcpa_trace::Time::from_millis(ts_ms),
            ip: Ipv4Repr {
                src: Ipv4Addr::from_host_id(src),
                dst: Ipv4Addr::from_host_id(dst),
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident: 0,
                payload_len: 20 + len as usize,
            },
            tcp: TcpRepr {
                seq: SeqNum(seq),
                ack: SeqNum(ack),
                flags,
                window: 16_384,
                ..TcpRepr::new(5000 + u16::from(src), 5000 + u16::from(dst))
            },
            payload_len: len,
            checksum_ok: None,
        }
    }

    const A: TcpFlags = TcpFlags::ACK;
    const S: TcpFlags = TcpFlags::SYN;
    const SA: TcpFlags = TcpFlags(0x12);

    fn conn(records: Vec<TraceRecord>) -> Connection {
        let trace: Trace = records.into_iter().collect();
        Connection::split(&trace).remove(0)
    }

    fn handshake(v: &mut Vec<TraceRecord>) {
        let mut syn = rec(0, 1, 2, S, 1000, 0, 0);
        syn.tcp.options.push(TcpOption::Mss(512));
        let mut synack = rec(1, 2, 1, SA, 9000, 0, 1001);
        synack.tcp.options.push(TcpOption::Mss(512));
        v.push(syn);
        v.push(synack);
    }

    #[test]
    fn normal_and_delayed_acks_classified() {
        let mut v = Vec::new();
        handshake(&mut v);
        // Two full segments, acked promptly → normal ack.
        v.push(rec(100, 1, 2, A, 1001, 512, 9001));
        v.push(rec(101, 1, 2, A, 1513, 512, 9001));
        v.push(rec(102, 2, 1, A, 9001, 0, 2025));
        // One segment, acked 150 ms later → delayed ack.
        v.push(rec(200, 1, 2, A, 2025, 512, 9001));
        v.push(rec(350, 2, 1, A, 9001, 0, 2537));
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.count(AckClass::Normal), 1);
        assert_eq!(a.count(AckClass::Delayed), 1);
        assert_eq!(a.count(AckClass::Gratuitous), 0);
        let delayed = &a
            .acks
            .iter()
            .find(|x| x.class == AckClass::Delayed)
            .unwrap();
        assert_eq!(delayed.delay, Some(Duration::from_millis(150)));
    }

    #[test]
    fn stretch_ack_classified() {
        let mut v = Vec::new();
        handshake(&mut v);
        for k in 0..4 {
            v.push(rec(100 + k, 1, 2, A, 1001 + 512 * k as u32, 512, 9001));
        }
        v.push(rec(120, 2, 1, A, 9001, 0, 1001 + 2048));
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.count(AckClass::Stretch), 1);
    }

    #[test]
    fn out_of_order_arrival_mandates_dup_ack() {
        let mut v = Vec::new();
        handshake(&mut v);
        v.push(rec(100, 1, 2, A, 1001, 512, 9001));
        v.push(rec(101, 2, 1, A, 9001, 0, 1513)); // delayed-ish ack
        v.push(rec(200, 1, 2, A, 2025, 512, 9001)); // hole! 1513 missing
        v.push(rec(201, 2, 1, A, 9001, 0, 1513)); // dup ack
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.count(AckClass::Duplicate), 1);
        assert_eq!(a.count(AckClass::Gratuitous), 0);
    }

    #[test]
    fn gratuitous_ack_flagged() {
        let mut v = Vec::new();
        handshake(&mut v);
        v.push(rec(100, 1, 2, A, 1001, 512, 9001));
        v.push(rec(101, 2, 1, A, 9001, 0, 1513));
        // Nothing arrives; receiver acks again anyway, same window.
        v.push(rec(150, 2, 1, A, 9001, 0, 1513));
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.count(AckClass::Gratuitous), 1);
    }

    #[test]
    fn window_update_not_gratuitous() {
        let mut v = Vec::new();
        handshake(&mut v);
        v.push(rec(100, 1, 2, A, 1001, 512, 9001));
        v.push(rec(101, 2, 1, A, 9001, 0, 1513));
        let mut wu = rec(150, 2, 1, A, 9001, 0, 1513);
        wu.tcp.window = 32_000;
        v.push(wu);
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.count(AckClass::WindowUpdate), 1);
        assert_eq!(a.count(AckClass::Gratuitous), 0);
    }

    #[test]
    fn hole_fill_produces_prompt_ack() {
        let mut v = Vec::new();
        handshake(&mut v);
        v.push(rec(100, 1, 2, A, 1001, 512, 9001));
        v.push(rec(101, 2, 1, A, 9001, 0, 1513));
        v.push(rec(200, 1, 2, A, 2025, 512, 9001)); // above hole
        v.push(rec(201, 2, 1, A, 9001, 0, 1513)); // dup
        v.push(rec(300, 1, 2, A, 1513, 512, 9001)); // fills hole
        v.push(rec(301, 2, 1, A, 9001, 0, 2537)); // cumulative ack
        let a = analyze_receiver(&conn(v)).unwrap();
        // The final ack covers two segments' worth (the fill + buffered).
        assert_eq!(a.count(AckClass::Normal), 1);
        assert_eq!(a.count(AckClass::Duplicate), 1);
    }

    #[test]
    fn corrupt_arrival_inferred_from_behavior() {
        let mut v = Vec::new();
        handshake(&mut v);
        v.push(rec(100, 1, 2, A, 1001, 512, 9001)); // arrives corrupted
                                                    // no ack; sender times out and retransmits:
        v.push(rec(1500, 1, 2, A, 1001, 512, 9001));
        v.push(rec(1501, 2, 1, A, 9001, 0, 1513)); // now acked
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.corrupt_arrivals.len(), 1);
        assert_eq!(a.corrupt_arrivals[0], 2, "the first data record");
    }

    #[test]
    fn checksum_verified_capture_flags_directly() {
        let mut v = Vec::new();
        handshake(&mut v);
        let mut bad = rec(100, 1, 2, A, 1001, 512, 9001);
        bad.checksum_ok = Some(false);
        v.push(bad);
        v.push(rec(1500, 1, 2, A, 1001, 512, 9001));
        v.push(rec(1501, 2, 1, A, 9001, 0, 1513));
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.corrupt_arrivals, vec![2]);
    }

    #[test]
    fn policy_guesses() {
        // Heartbeat: delays uniform over 0..200 ms.
        let mut v = Vec::new();
        handshake(&mut v);
        let mut t = 1000;
        for k in 0..40 {
            v.push(rec(t, 1, 2, A, 1001 + 512 * k as u32, 512, 9001));
            let d = (k * 37) % 200;
            v.push(rec(
                t + 1 + d as i64,
                2,
                1,
                A,
                9001,
                0,
                1513 + 512 * k as u32,
            ));
            t += 1000;
        }
        let a = analyze_receiver(&conn(v.clone())).unwrap();
        assert!(
            matches!(a.policy, PolicyGuess::Heartbeat { period_ms } if (150..=260).contains(&period_ms)),
            "{:?}",
            a.policy
        );

        // Interval timer: every delay ≈ 50 ms.
        let mut v = Vec::new();
        handshake(&mut v);
        let mut t = 1000;
        for k in 0..40 {
            v.push(rec(t, 1, 2, A, 1001 + 512 * k as u32, 512, 9001));
            v.push(rec(t + 50, 2, 1, A, 9001, 0, 1513 + 512 * k as u32));
            t += 1000;
        }
        let a = analyze_receiver(&conn(v)).unwrap();
        assert!(
            matches!(a.policy, PolicyGuess::IntervalTimer { delay_ms } if (40..=60).contains(&delay_ms)),
            "{:?}",
            a.policy
        );

        // Every packet: sub-millisecond acks for every arrival.
        let mut v = Vec::new();
        handshake(&mut v);
        let mut t = 1000;
        for k in 0..40 {
            v.push(rec(t, 1, 2, A, 1001 + 512 * k as u32, 512, 9001));
            v.push(rec(t + 1, 2, 1, A, 9001, 0, 1513 + 512 * k as u32));
            t += 1000;
        }
        let a = analyze_receiver(&conn(v)).unwrap();
        assert_eq!(a.policy, PolicyGuess::EveryPacket);
    }

    #[test]
    fn no_data_connection_unanalyzable() {
        let mut v = Vec::new();
        handshake(&mut v);
        assert!(analyze_receiver(&conn(v)).is_none());
    }
}
