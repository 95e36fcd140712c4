//! Measurement-duplicate detection and removal (§3.1.2).
//!
//! The IRIX 5.2/5.3 filters record each outgoing packet twice. A
//! duplicated *record* is distinguishable from a retransmitted *packet*:
//! the two records carry the same IP `ident` (it is literally the same
//! packet), whereas a retransmission is a new IP datagram with a new
//! ident. tcpanaly discards the *later* copy of each pair — per the paper
//! (and \[Pa97b\]); note Figure 1 shows the later copies carrying accurate
//! Ethernet wire timing while the early copies reflect the OS sourcing
//! rate, so a caller that wants wire-accurate slopes should treat a trace
//! with removed duplicates with care. What matters for behavior analysis
//! is that exactly one record per wire packet survives.

use tcpa_trace::{Time, Trace};

/// One removed duplicate.
#[derive(Debug, Clone)]
pub struct DupRemoval {
    /// Index (in the original trace) of the record that was kept.
    pub kept_index: usize,
    /// Index of the discarded later copy.
    pub removed_index: usize,
    /// Timestamp spread between the two copies.
    pub spread: tcpa_trace::Duration,
}

/// How far apart two records may be and still count as filter copies of
/// one packet (generously above the Figure 1 spreads, well below any
/// plausible RTO).
const DUP_WINDOW: tcpa_trace::Duration = tcpa_trace::Duration::from_millis(80);

/// Removes measurement duplicates, keeping the earlier copy of each pair.
///
/// The scan runs over the whole capture in filter order, not per
/// connection: a record of another connection more than [`DUP_WINDOW`]
/// away (say, after a backward clock step) ends the scan, where a
/// per-connection scan would go on past it. The removed records are
/// dropped in place, and only when there are any.
pub fn remove_duplicates(mut trace: Trace) -> (Trace, Vec<DupRemoval>) {
    let n = trace.len();
    let mut removed = vec![false; n];
    let mut removals = Vec::new();
    // Quadratic in the duplicate window, linear overall: the inner scan
    // stops at the first record more than DUP_WINDOW away. (Indexing
    // rather than iterators because both endpoints of the pair are
    // mutated in `removed`.)
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if removed[i] {
            continue;
        }
        let a = &trace.records[i];
        for j in (i + 1)..n {
            if removed[j] {
                continue;
            }
            let b = &trace.records[j];
            if time_gap(a.ts, b.ts) > DUP_WINDOW {
                break;
            }
            let same_packet = a.ip.ident == b.ip.ident
                && a.ip.src == b.ip.src
                && a.ip.dst == b.ip.dst
                && a.tcp.src_port == b.tcp.src_port
                && a.tcp.dst_port == b.tcp.dst_port
                && a.tcp.seq == b.tcp.seq
                && a.tcp.ack == b.tcp.ack
                && a.tcp.flags == b.tcp.flags
                && a.payload_len == b.payload_len;
            if same_packet {
                removed[j] = true;
                removals.push(DupRemoval {
                    kept_index: i,
                    removed_index: j,
                    spread: b.ts - a.ts,
                });
            }
        }
    }
    if !removals.is_empty() {
        // `retain` visits the records once each, in order.
        let mut removed = removed.into_iter();
        trace
            .records
            .retain(|_| !removed.next().unwrap_or_default());
    }
    (trace, removals)
}

fn time_gap(a: Time, b: Time) -> tcpa_trace::Duration {
    (b - a).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::{Duration, Time, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, SeqNum, TcpFlags, TcpRepr};

    fn rec(ts_us: i64, ident: u16, seq: u32, len: u32) -> TraceRecord {
        TraceRecord {
            ts: Time::from_micros(ts_us),
            ip: Ipv4Repr {
                src: Ipv4Addr::from_host_id(1),
                dst: Ipv4Addr::from_host_id(2),
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident,
                payload_len: 20 + len as usize,
            },
            tcp: TcpRepr {
                seq: SeqNum(seq),
                flags: TcpFlags::ACK,
                ..TcpRepr::new(1000, 2000)
            },
            payload_len: len,
            checksum_ok: Some(true),
        }
    }

    #[test]
    fn identical_ident_within_window_removed() {
        let trace: Trace = vec![
            rec(0, 1, 100, 512),
            rec(400, 1, 100, 512), // filter copy, 400 µs later
            rec(1000, 2, 612, 512),
        ]
        .into_iter()
        .collect();
        let (clean, removals) = remove_duplicates(trace);
        assert_eq!(clean.len(), 2);
        assert_eq!(removals.len(), 1);
        assert_eq!(removals[0].kept_index, 0);
        assert_eq!(removals[0].removed_index, 1);
        assert_eq!(clean.records[0].ts, Time::from_micros(0), "earlier kept");
    }

    #[test]
    fn retransmission_with_new_ident_not_removed() {
        let trace: Trace = vec![rec(0, 1, 100, 512), rec(500, 7, 100, 512)]
            .into_iter()
            .collect();
        let (clean, removals) = remove_duplicates(trace);
        assert_eq!(clean.len(), 2, "same seq, different ident: a retransmit");
        assert!(removals.is_empty());
    }

    #[test]
    fn far_apart_same_ident_not_removed() {
        // Ident wrapping after 65536 packets can legitimately reuse a
        // value much later; the window guards against that.
        let trace: Trace = vec![rec(0, 1, 100, 512), rec(200_000, 1, 100, 512)]
            .into_iter()
            .collect();
        let (clean, removals) = remove_duplicates(trace);
        assert_eq!(clean.len(), 2);
        assert!(removals.is_empty());
    }

    #[test]
    fn spread_is_reported() {
        let trace: Trace = vec![rec(0, 3, 0, 100), rec(250, 3, 0, 100)]
            .into_iter()
            .collect();
        let (_, removals) = remove_duplicates(trace);
        assert_eq!(removals[0].spread, Duration::from_micros(250));
    }

    #[test]
    fn triplicates_collapse_to_one() {
        let trace: Trace = vec![rec(0, 9, 0, 64), rec(100, 9, 0, 64), rec(200, 9, 0, 64)]
            .into_iter()
            .collect();
        let (clean, removals) = remove_duplicates(trace);
        assert_eq!(clean.len(), 1);
        assert_eq!(removals.len(), 2);
    }

    #[test]
    fn different_destination_ports_are_different_packets() {
        // Same ident, addresses, source port and segment, but bound for
        // two ports: two datagrams, not one recorded twice.
        let mut other = rec(300, 4, 0, 100);
        other.tcp.dst_port = 2001;
        let trace: Trace = vec![rec(0, 4, 0, 100), other].into_iter().collect();
        let (clean, removals) = remove_duplicates(trace);
        assert_eq!(clean.len(), 2);
        assert!(removals.is_empty());
    }

    #[test]
    fn another_connections_record_ends_the_scan() {
        // Connection A's record, then connection B's record stamped after
        // the filter clock stepped back 100 ms, then A's filter copy.
        let mut stepped_back = rec(0, 8, 0, 0);
        stepped_back.ip.src = tcpa_wire::Ipv4Addr::from_host_id(3);
        let original = rec(100_000, 5, 0, 512);
        let copy = rec(100_400, 5, 0, 512);
        let trace: Trace = vec![original, stepped_back, copy].into_iter().collect();
        // The global scan stops at B's record, more than DUP_WINDOW from
        // A's, so the copy survives ...
        let (clean, removals) = remove_duplicates(trace);
        assert_eq!(clean.len(), 3);
        assert!(removals.is_empty());
        // ... where a scan over connection A alone would remove it. Dedup
        // stays global so its findings match the capture's filter order.
        let only_a: Trace = vec![original, copy].into_iter().collect();
        let (clean_a, removals_a) = remove_duplicates(only_a);
        assert_eq!(clean_a.len(), 1);
        assert_eq!(removals_a.len(), 1);
    }
}
