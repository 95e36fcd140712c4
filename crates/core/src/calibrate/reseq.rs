//! Packet-filter resequencing detection (§3.1.3).
//!
//! The Solaris 2.3/2.4 filters copy inbound and outbound packets to the
//! filter along different code paths; the inbound path is slower, so an
//! ack can be *recorded* just after the data packet it liberated, even
//! though it *arrived* just before. The paper's detector looks for three
//! situations, all of the shape "an effect appears in the trace
//! immediately before its only plausible cause":
//!
//! 1. a data packet sent after a lengthy lull, followed very shortly by
//!    an ack;
//! 2. a data packet violating the offered (or congestion) window, shortly
//!    followed by an ack that cures the violation;
//! 3. an ack for data that has not yet arrived in the trace, with the
//!    data following very shortly after.

use tcpa_trace::{Connection, Dir, Duration, Time, TraceRecord};
use tcpa_wire::SeqNum;

/// Which of the three situations was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReseqKind {
    /// Situation (i): lull, data, then the liberating ack ≤ ε later.
    LullThenAck,
    /// Situation (ii): offered-window violation cured by an ack ≤ ε later.
    WindowViolationCured,
    /// Situation (iii): an ack for data that only arrives ≤ ε later.
    AckBeforeData,
}

/// One piece of resequencing evidence.
#[derive(Debug, Clone)]
pub struct ReseqEvidence {
    /// Kind of situation.
    pub kind: ReseqKind,
    /// Index (within the connection's records) of the *effect* record.
    pub index: usize,
    /// The out-of-order margin: how soon after the effect the cause was
    /// recorded.
    pub margin: Duration,
}

/// Maximum effect→cause spacing to count as resequencing rather than a
/// genuine anomaly. Filter path-length skews are a few hundred µs.
const EPSILON: Duration = Duration::from_millis(2);
/// "Lengthy lull" threshold for situation (i).
const LULL: Duration = Duration::from_millis(100);

/// Scans one connection for the three situations.
pub fn detect_resequencing(conn: &Connection) -> Vec<ReseqEvidence> {
    let recs = &conn.records;
    let mut evidence = Vec::new();

    let mut max_ack: Option<SeqNum> = None; // highest receiver ack seen
    let mut offered: Option<u32> = None; // receiver's last offered window
    let mut highest_data_hi: Option<SeqNum> = None; // highest data seq seen
    let mut last_send: Option<Time> = None;

    for (i, (dir, rec)) in recs.iter().enumerate() {
        match dir {
            Dir::SenderToReceiver if rec.is_data() => {
                let hi = rec.seq_hi();

                // (i) lull, data, then a liberating ack within ε.
                if let Some(prev) = last_send {
                    if rec.ts - prev > LULL {
                        // A *new* receiver ack.
                        let liberates = |dir, ack: &TraceRecord| {
                            dir == Dir::ReceiverToSender
                                && ack.tcp.flags.ack()
                                && max_ack.is_none_or(|a| ack.tcp.ack.after(a))
                        };
                        if let Some(margin) = first_within(recs, i, EPSILON, liberates) {
                            evidence.push(ReseqEvidence {
                                kind: ReseqKind::LullThenAck,
                                index: i,
                                margin,
                            });
                        }
                    }
                }

                // (ii) offered-window violation cured within ε.
                if let (Some(ack), Some(win)) = (max_ack, offered) {
                    let usage = hi - ack;
                    if usage > i64::from(win) {
                        // A receiver ack that makes `hi` fit within the
                        // window it carries.
                        let cures = |dir, ack: &TraceRecord| {
                            dir == Dir::ReceiverToSender
                                && ack.tcp.flags.ack()
                                && hi - ack.tcp.ack <= i64::from(ack.tcp.window)
                        };
                        if let Some(margin) = first_within(recs, i, EPSILON, cures) {
                            evidence.push(ReseqEvidence {
                                kind: ReseqKind::WindowViolationCured,
                                index: i,
                                margin,
                            });
                        }
                    }
                }

                last_send = Some(rec.ts);
                highest_data_hi = Some(match highest_data_hi {
                    Some(h) => h.max(hi),
                    None => hi,
                });
            }
            Dir::ReceiverToSender if rec.tcp.flags.ack() && !rec.tcp.flags.syn() => {
                // (iii) ack for data not yet in the trace.
                let unseen = match highest_data_hi {
                    Some(h) => rec.tcp.ack.after(h),
                    None => rec.tcp.ack.after(SeqNum::ZERO) && rec.is_pure_ack(),
                };
                if unseen && highest_data_hi.is_some() {
                    // A data record reaching the ack.
                    let ack = rec.tcp.ack;
                    let reaches = |dir, data: &TraceRecord| {
                        dir == Dir::SenderToReceiver
                            && data.is_data()
                            && data.seq_hi().at_or_after(ack)
                    };
                    if let Some(margin) = first_within(recs, i, EPSILON, reaches) {
                        evidence.push(ReseqEvidence {
                            kind: ReseqKind::AckBeforeData,
                            index: i,
                            margin,
                        });
                    }
                }
                max_ack = Some(match max_ack {
                    Some(a) => a.max(rec.tcp.ack),
                    None => rec.tcp.ack,
                });
                offered = Some(u32::from(rec.tcp.window));
            }
            _ => {}
        }
    }
    evidence
}

/// How long after record `i` the first later record that `is_match`
/// accepts was recorded, looking only at the records within `epsilon` of
/// record `i`: the walk ends at the first record more than `epsilon`
/// later. Past a backward clock step a later record may lie within
/// `epsilon` again, and this walk does not see it; a look-ahead that must
/// see it (the drop checks' `data_within_epsilon`) bounds its walk by the
/// suffix minimum of the timestamps instead.
pub(crate) fn first_within(
    recs: &[(Dir, TraceRecord)],
    i: usize,
    epsilon: Duration,
    mut is_match: impl FnMut(Dir, &TraceRecord) -> bool,
) -> Option<Duration> {
    let t = recs.get(i)?.1.ts;
    recs.iter()
        .skip(i + 1)
        .take_while(|(_, rec)| rec.ts - t <= epsilon)
        .find(|(dir, rec)| is_match(*dir, rec))
        .map(|(_, rec)| rec.ts - t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::{Trace, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, TcpFlags, TcpRepr};

    #[allow(clippy::too_many_arguments)]
    fn rec(
        ts_us: i64,
        src: u8,
        dst: u8,
        flags: TcpFlags,
        seq: u32,
        len: u32,
        ack: u32,
        win: u16,
    ) -> TraceRecord {
        TraceRecord {
            ts: Time::from_micros(ts_us),
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
                window: win,
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

    const A: TcpFlags = TcpFlags::ACK;

    #[test]
    fn clean_ordering_yields_no_evidence() {
        // ack arrives, then data goes out (normal cause→effect).
        let c = conn(vec![
            rec(0, 1, 2, A, 1, 512, 1, 8192),
            rec(100_000, 2, 1, A, 1, 0, 513, 8192),
            rec(100_300, 1, 2, A, 513, 512, 1, 8192),
        ]);
        assert!(detect_resequencing(&c).is_empty());
    }

    #[test]
    fn lull_then_ack_detected() {
        let c = conn(vec![
            rec(0, 1, 2, A, 1, 512, 1, 8192),
            rec(1000, 2, 1, A, 1, 0, 513, 8192),
            // long lull (window-limited), then data *before* the ack that
            // liberated it...
            rec(300_000, 1, 2, A, 513, 512, 1, 8192),
            // ...which is recorded 400 µs later.
            rec(300_400, 2, 1, A, 1, 0, 1025, 8192),
        ]);
        let ev = detect_resequencing(&c);
        assert!(
            ev.iter()
                .any(|e| e.kind == ReseqKind::LullThenAck && e.index == 2),
            "{ev:?}"
        );
    }

    #[test]
    fn lull_with_distant_ack_not_flagged() {
        // Same shape but the next ack is 50 ms later: a genuine RTO
        // retransmission pattern, not resequencing.
        let c = conn(vec![
            rec(0, 1, 2, A, 1, 512, 1, 8192),
            rec(1000, 2, 1, A, 1, 0, 513, 8192),
            rec(300_000, 1, 2, A, 513, 512, 1, 8192),
            rec(350_000, 2, 1, A, 1, 0, 1025, 8192),
        ]);
        assert!(detect_resequencing(&c)
            .iter()
            .all(|e| e.kind != ReseqKind::LullThenAck));
    }

    #[test]
    fn offered_window_violation_cured_detected() {
        // Offered window 1024; sender appears to have 1536 in flight, but
        // an ack recorded 300 µs later makes it legal.
        let c = conn(vec![
            rec(0, 1, 2, A, 1, 512, 1, 1024),
            rec(1000, 2, 1, A, 1, 0, 513, 1024),
            rec(2000, 1, 2, A, 513, 512, 1, 1024),
            rec(3000, 1, 2, A, 1025, 512, 1, 1024), // 1537-513=1024 OK… next violates
            rec(4000, 1, 2, A, 1537, 512, 1, 1024), // usage 1536 > 1024
            rec(4300, 2, 1, A, 1, 0, 1025, 1024),   // cures: 2049-1025=1024
        ]);
        let ev = detect_resequencing(&c);
        assert!(
            ev.iter()
                .any(|e| e.kind == ReseqKind::WindowViolationCured && e.index == 4),
            "{ev:?}"
        );
    }

    #[test]
    fn ack_before_data_detected_at_receiver_vantage() {
        // Receiver-side trace: the receiver's ack for 1025 is recorded
        // 200 µs before the data that provoked it.
        let c = conn(vec![
            rec(0, 1, 2, A, 1, 512, 1, 8192),
            rec(500, 2, 1, A, 1, 0, 513, 8192),
            rec(10_000, 2, 1, A, 1, 0, 1025, 8192), // ack for unseen data
            rec(10_200, 1, 2, A, 513, 512, 1, 8192), // the data, recorded late
        ]);
        let ev = detect_resequencing(&c);
        assert!(
            ev.iter()
                .any(|e| e.kind == ReseqKind::AckBeforeData && e.index == 2),
            "{ev:?}"
        );
    }

    #[test]
    fn ack_of_never_arriving_data_is_not_resequencing() {
        // The same ack, but the data never shows: that is drop evidence
        // (§3.1.1), not resequencing.
        let c = conn(vec![
            rec(0, 1, 2, A, 1, 512, 1, 8192),
            rec(500, 2, 1, A, 1, 0, 513, 8192),
            rec(10_000, 2, 1, A, 1, 0, 1025, 8192),
            rec(400_000, 1, 2, A, 1025, 512, 1, 8192),
        ]);
        assert!(detect_resequencing(&c)
            .iter()
            .all(|e| e.kind != ReseqKind::AckBeforeData));
    }
}
