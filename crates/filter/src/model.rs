//! The filter pipeline: tap events → (errors applied) → measured trace.

use crate::clock::ClockModel;
use tcpa_netsim::rng::SplitMix64;
use tcpa_netsim::{PacketKind, TapDir, TapEvent};
use tcpa_trace::{Duration, Time, Trace, TraceRecord};

/// How the filter loses records (§3.1.1). These are *measurement* drops:
/// the packets really crossed the wire.
#[derive(Debug, Clone, Default)]
pub enum DropModel {
    /// Keep everything.
    #[default]
    None,
    /// Drop each record independently with probability `p` (user-level
    /// filters starved of CPU).
    Bernoulli(f64),
    /// Drop exactly the records at these indices (in wire-event order).
    List(Vec<usize>),
    /// Drop a contiguous burst of `len` records starting at `start`
    /// (a filter falling behind and shedding everything for a while).
    Burst {
        /// First dropped index.
        start: usize,
        /// Number of consecutive records dropped.
        len: usize,
    },
}

impl DropModel {
    fn drops(&self, idx: usize, rng: &mut SplitMix64) -> bool {
        match self {
            DropModel::None => false,
            DropModel::Bernoulli(p) => rng.chance(*p),
            DropModel::List(list) => list.contains(&idx),
            DropModel::Burst { start, len } => idx >= *start && idx < start + len,
        }
    }
}

/// The IRIX 5.2/5.3 duplication bug (§3.1.2): outgoing packets are copied
/// to the filter twice — once when scheduled (paced at the OS sourcing
/// rate) and once when they actually depart onto the Ethernet.
#[derive(Debug, Clone)]
pub struct DupModel {
    /// OS packet-sourcing rate in bytes/second (Figure 1: ≈2.5 MB/s).
    pub os_copy_rate: u64,
}

impl Default for DupModel {
    fn default() -> DupModel {
        DupModel {
            os_copy_rate: 2_500_000,
        }
    }
}

/// The Solaris resequencing effect (§3.1.3): two code paths copy packets
/// to the filter, and the inbound path is appreciably slower, so packets
/// are timestamped (and written) out of wire order.
#[derive(Debug, Clone)]
pub struct ReseqModel {
    /// Outbound path delay range (uniform), e.g. 0–100 µs.
    pub out_delay: (Duration, Duration),
    /// Inbound path delay range (uniform), e.g. 200–800 µs.
    pub in_delay: (Duration, Duration),
}

impl Default for ReseqModel {
    fn default() -> ReseqModel {
        ReseqModel {
            out_delay: (Duration::ZERO, Duration::from_micros(100)),
            in_delay: (Duration::from_micros(200), Duration::from_micros(2500)),
        }
    }
}

impl ReseqModel {
    fn sample(&self, dir: TapDir, rng: &mut SplitMix64) -> Duration {
        let (lo, hi) = match dir {
            TapDir::Out => self.out_delay,
            TapDir::In => self.in_delay,
        };
        let span = (hi - lo).as_nanos().max(0) as u64;
        if span == 0 {
            return lo;
        }
        lo + Duration(rng.next_below(span + 1) as i64)
    }
}

/// Full description of one packet filter.
#[derive(Debug, Clone, Default)]
pub struct FilterConfig {
    /// Measurement drops.
    pub drops: DropModel,
    /// IRIX-style duplication of outbound packets.
    pub duplication: Option<DupModel>,
    /// Solaris-style resequencing.
    pub resequencing: Option<ReseqModel>,
    /// The filter host's clock.
    pub clock: ClockModel,
    /// Header-only capture: checksums cannot be verified
    /// (`TraceRecord::checksum_ok` becomes `None`).
    pub headers_only: bool,
}

impl FilterConfig {
    /// An error-free kernel filter with a perfect clock.
    pub fn perfect() -> FilterConfig {
        FilterConfig::default()
    }

    /// The IRIX 5.2/5.3 duplicating filter of Figure 1.
    pub fn irix_duplicating() -> FilterConfig {
        FilterConfig {
            duplication: Some(DupModel::default()),
            ..FilterConfig::default()
        }
    }

    /// The Solaris 2.3/2.4 resequencing filter of §3.1.3.
    pub fn solaris_resequencing() -> FilterConfig {
        FilterConfig {
            resequencing: Some(ReseqModel::default()),
            ..FilterConfig::default()
        }
    }

    /// A BSDI 1.1 / NetBSD 1.0 style filter whose fast clock is stepped
    /// backwards periodically (§3.1.4 time travel).
    pub fn time_travelling(horizon: Time) -> FilterConfig {
        FilterConfig {
            clock: ClockModel::fast_with_periodic_sync(
                300.0,
                Duration::from_secs(2),
                Duration::from_millis(25),
                horizon,
            ),
            ..FilterConfig::default()
        }
    }

    /// A user-level filter shedding records under load.
    pub fn lossy(p: f64) -> FilterConfig {
        FilterConfig {
            drops: DropModel::Bernoulli(p),
            ..FilterConfig::default()
        }
    }
}

/// What the filter did — ground truth for calibration tests.
#[derive(Debug, Clone, Default)]
pub struct FilterReport {
    /// Wire-event indices whose record was dropped by the filter.
    pub dropped_indices: Vec<usize>,
    /// Number of duplicate records added.
    pub duplicates_added: usize,
    /// Number of adjacent record pairs written out of wire order.
    pub inversions: usize,
}

struct Candidate {
    proc_t: Time,
    ev_index: usize,
    rec: TraceRecord,
}

/// Runs tap events through the filter, returning the measured trace and a
/// report of the errors introduced.
pub fn apply(events: &[TapEvent], cfg: &FilterConfig, seed: u64) -> (Trace, FilterReport) {
    let mut rng = SplitMix64::new(seed);
    let mut report = FilterReport::default();
    let mut candidates: Vec<Candidate> = Vec::with_capacity(events.len());
    // Pacing state for the duplication model's first copies.
    let mut next_os_copy_at = Time(i64::MIN);

    for (idx, ev) in events.iter().enumerate() {
        // The filter pattern matches TCP only (§6.2): ICMP is invisible.
        let PacketKind::Tcp {
            tcp,
            payload_len,
            corrupt,
        } = &ev.pkt.kind
        else {
            continue;
        };
        let mk_rec = |ts: Time| TraceRecord {
            ts,
            ip: ev.pkt.ip_repr(),
            tcp: *tcp,
            payload_len: *payload_len,
            checksum_ok: if cfg.headers_only {
                None
            } else {
                Some(!corrupt)
            },
        };

        if cfg.drops.drops(idx, &mut rng) {
            report.dropped_indices.push(idx);
            continue;
        }

        // IRIX duplication: an extra early copy for outbound packets,
        // paced at the OS sourcing rate.
        if let (Some(dup), TapDir::Out, Some(t_stack)) = (&cfg.duplication, ev.dir, ev.t_stack) {
            let pace = Duration::transmission(u64::from(ev.pkt.wire_len()), dup.os_copy_rate * 8);
            let t_first = t_stack.max(next_os_copy_at);
            next_os_copy_at = t_first + pace;
            candidates.push(Candidate {
                proc_t: t_first,
                ev_index: idx,
                rec: mk_rec(Time::ZERO), // ts filled after clock stamping
            });
            report.duplicates_added += 1;
        }

        let reseq_delay = cfg
            .resequencing
            .as_ref()
            .map(|m| m.sample(ev.dir, &mut rng))
            .unwrap_or(Duration::ZERO);
        candidates.push(Candidate {
            proc_t: ev.t_wire + reseq_delay,
            ev_index: idx,
            rec: mk_rec(Time::ZERO),
        });
    }

    // The filter writes records in processing order and stamps them with
    // its clock at processing time.
    candidates.sort_by_key(|c| (c.proc_t, c.ev_index));
    let mut last_index = None;
    let mut trace = Trace::new();
    for mut c in candidates {
        if let Some(prev) = last_index {
            if c.ev_index < prev {
                report.inversions += 1;
            }
        }
        last_index = Some(c.ev_index);
        c.rec.ts = cfg.clock.stamp(c.proc_t);
        trace.push(c.rec);
    }
    (trace, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_netsim::Packet;
    use tcpa_wire::{Ipv4Addr, SeqNum, TcpFlags, TcpRepr};

    fn ev(t_ms: i64, dir: TapDir, seq: u32, len: u32) -> TapEvent {
        let mut tcp = TcpRepr::new(1000, 2000);
        tcp.flags = TcpFlags::ACK;
        tcp.seq = SeqNum(seq);
        TapEvent {
            t_wire: Time::from_millis(t_ms),
            t_stack: match dir {
                TapDir::Out => Some(Time::from_millis(t_ms) - Duration::from_micros(800)),
                TapDir::In => None,
            },
            dir,
            pkt: Packet::tcp(
                Ipv4Addr::from_host_id(1),
                Ipv4Addr::from_host_id(2),
                seq as u16,
                tcp,
                len,
            ),
        }
    }

    fn wire_events() -> Vec<TapEvent> {
        (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    ev(i * 10, TapDir::Out, 1000 * i as u32, 512)
                } else {
                    ev(i * 10, TapDir::In, 0, 0)
                }
            })
            .collect()
    }

    #[test]
    fn perfect_filter_preserves_everything() {
        let events = wire_events();
        let (trace, report) = apply(&events, &FilterConfig::perfect(), 1);
        assert_eq!(trace.len(), 20);
        assert!(report.dropped_indices.is_empty());
        assert_eq!(report.duplicates_added, 0);
        assert_eq!(report.inversions, 0);
        for (rec, ev) in trace.iter().zip(events.iter()) {
            assert_eq!(rec.ts, ev.t_wire);
        }
    }

    #[test]
    fn drop_list_removes_exact_records() {
        let events = wire_events();
        let cfg = FilterConfig {
            drops: DropModel::List(vec![3, 7]),
            ..FilterConfig::default()
        };
        let (trace, report) = apply(&events, &cfg, 1);
        assert_eq!(trace.len(), 18);
        assert_eq!(report.dropped_indices, vec![3, 7]);
    }

    #[test]
    fn burst_drop_removes_run() {
        let events = wire_events();
        let cfg = FilterConfig {
            drops: DropModel::Burst { start: 5, len: 4 },
            ..FilterConfig::default()
        };
        let (trace, report) = apply(&events, &cfg, 1);
        assert_eq!(trace.len(), 16);
        assert_eq!(report.dropped_indices, vec![5, 6, 7, 8]);
    }

    #[test]
    fn irix_duplication_doubles_outbound_only() {
        let events = wire_events();
        let (trace, report) = apply(&events, &FilterConfig::irix_duplicating(), 1);
        // 10 outbound → duplicated; 10 inbound → single.
        assert_eq!(report.duplicates_added, 10);
        assert_eq!(trace.len(), 30);
        // For each outbound packet both copies are present, early first.
        let outs: Vec<_> = trace
            .iter()
            .filter(|r| r.tcp.src_port == 1000 && r.is_data())
            .collect();
        assert_eq!(outs.len(), 20);
        assert!(outs[0].ts < outs[1].ts);
        assert_eq!(outs[0].tcp.seq, outs[1].tcp.seq);
        assert_eq!(
            outs[0].ip.ident, outs[1].ip.ident,
            "same packet, not a retransmit"
        );
    }

    #[test]
    fn irix_first_copies_are_paced_at_os_rate() {
        // Back-to-back sends: first copies must be spaced by wire_len at
        // the OS copy rate, not all at the same instant.
        let events: Vec<TapEvent> = (0..5)
            .map(|i| {
                let mut e = ev(100, TapDir::Out, i * 512, 512);
                // All emitted by the stack at the same ms, departing 1 ms apart.
                e.t_stack = Some(Time::from_millis(100));
                e.t_wire = Time::from_millis(100 + i as i64);
                e
            })
            .collect();
        let (trace, _) = apply(&events, &FilterConfig::irix_duplicating(), 1);
        // The first copy of each packet is the earlier record per ident.
        let mut idents: Vec<u16> = trace.iter().map(|r| r.ip.ident).collect();
        idents.sort_unstable();
        idents.dedup();
        let mut first_copies: Vec<Time> = idents
            .iter()
            .map(|&ident| {
                trace
                    .iter()
                    .filter(|r| r.ip.ident == ident)
                    .map(|r| r.ts)
                    .min()
                    .unwrap()
            })
            .collect();
        first_copies.sort();
        assert_eq!(first_copies.len(), 5);
        let gap = first_copies[1] - first_copies[0];
        // 566-byte frame at 2.5 MB/s ≈ 226 µs.
        assert!(
            gap > Duration::from_micros(200) && gap < Duration::from_micros(250),
            "gap = {gap}"
        );
    }

    #[test]
    fn resequencing_inverts_tight_sequences() {
        // An inbound ack arriving just before an outbound data packet
        // should frequently be recorded *after* it.
        let mut events = Vec::new();
        for i in 0..200 {
            let t = i * 5;
            events.push(ev(t, TapDir::In, 0, 0));
            // Outbound response 50 µs later (true wire order: In, Out).
            let mut out = ev(t, TapDir::Out, 512 * i as u32, 512);
            out.t_wire = Time::from_millis(t) + Duration::from_micros(50);
            events.push(out);
        }
        let (_, report) = apply(&events, &FilterConfig::solaris_resequencing(), 3);
        assert!(
            report.inversions > 50,
            "tight in/out pairs should invert often, got {}",
            report.inversions
        );
    }

    #[test]
    fn time_travel_produces_decreasing_timestamps() {
        // Packets 1 ms apart — closer together than the 3 ms backward
        // sync steps, so the steps are visible as decreasing stamps.
        let events: Vec<TapEvent> = (0..10_000)
            .map(|i| ev(i, TapDir::Out, i as u32, 512))
            .collect();
        let cfg = FilterConfig::time_travelling(Time::from_secs(10));
        let (trace, _) = apply(&events, &cfg, 1);
        let decreases = trace
            .records
            .windows(2)
            .filter(|w| w[1].ts < w[0].ts)
            .count();
        assert!(decreases >= 2, "periodic backward steps, got {decreases}");
    }

    #[test]
    fn headers_only_capture_hides_checksums() {
        let events = wire_events();
        let cfg = FilterConfig {
            headers_only: true,
            ..FilterConfig::default()
        };
        let (trace, _) = apply(&events, &cfg, 1);
        assert!(trace.iter().all(|r| r.checksum_ok.is_none()));
    }

    #[test]
    fn non_tcp_packets_never_recorded() {
        let mut events = wire_events();
        events.push(TapEvent {
            t_wire: Time::from_millis(500),
            t_stack: None,
            dir: TapDir::In,
            pkt: Packet::source_quench(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::from_host_id(1)),
        });
        let (trace, _) = apply(&events, &FilterConfig::perfect(), 1);
        assert_eq!(trace.len(), 20, "ICMP invisible to a TCP-only filter");
    }
}
