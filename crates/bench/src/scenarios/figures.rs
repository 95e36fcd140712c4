//! Figures 1–5: the paper's sequence-plot case studies.

use crate::{fmt_rate, Section};
use tcpa_filter::{apply, FilterConfig};
use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::plot::{PointKind, SeqPlot};
use tcpa_trace::{Dir, Duration, Time};
use tcpanaly::fingerprint::fingerprint_one;
use tcpanaly::Analyzer;

/// Figure 1 — packet-filter duplication (IRIX 5.2/5.3, §3.1.2).
///
/// Each outgoing packet appears twice; the first copies' slope reflects
/// the OS sourcing rate (~2.5 MB/s in the paper) and the later copies the
/// Ethernet wire rate (~1 MB/s there; our LAN is 10 Mb/s ≈ 1.25 MB/s).
pub fn fig1() -> Section {
    let mut path = PathSpec::default();
    path.rate_bps = 8_000_000; // fast WAN: LAN serialization dominates
    path.one_way_delay = Duration::from_millis(30);
    // A stretch-acking receiver (one ack per ~4 segments) makes each ack
    // liberate a clean back-to-back burst — the paper's "ack just before
    // … liberated five packets".
    let mut receiver = profiles::reno();
    receiver.ack_every_n = 4;
    let out = run_transfer(profiles::irix(), receiver, &path, 100 * 1024, 101);
    let (measured, report) = apply(&out.sender_tap, &FilterConfig::irix_duplicating(), 101);

    // Find the longest run of duplicated outbound data records and
    // compute both slopes over it.
    let mut firsts: Vec<(Time, u32)> = Vec::new(); // (ts, wire bytes)
    let mut seconds: Vec<(Time, u32)> = Vec::new();
    let mut seen = std::collections::HashMap::new();
    for rec in measured.iter().filter(|r| r.is_data()) {
        let key = (rec.ip.ident, rec.tcp.seq.0);
        let bytes = rec.payload_len + 54;
        match seen.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(rec.ts);
                firsts.push((rec.ts, bytes));
            }
            std::collections::hash_map::Entry::Occupied(_) => seconds.push((rec.ts, bytes)),
        }
    }
    let slope = |points: &[(Time, u32)]| -> f64 {
        // Use the largest burst: contiguous points < 2 ms apart (both
        // copy streams space packets well under that within a burst,
        // while ack-clocked bursts sit ≥ 2.4 ms apart).
        let mut best: Option<(usize, usize)> = None;
        let mut start = 0;
        for i in 1..=points.len() {
            let broke =
                i == points.len() || points[i].0 - points[i - 1].0 > Duration::from_millis(2);
            if broke {
                if best.is_none_or(|(s, e)| i - start > e - s) {
                    best = Some((start, i));
                }
                start = i;
            }
        }
        let (s, e) = best.unwrap_or((0, points.len()));
        if e - s < 3 {
            return 0.0;
        }
        let bytes: u32 = points[s + 1..e].iter().map(|p| p.1).sum();
        let dt = (points[e - 1].0 - points[s].0).as_secs_f64();
        bytes as f64 / dt.max(1e-9)
    };
    let first_rate = slope(&firsts);
    let second_rate = slope(&seconds);

    let cal = Analyzer::at_sender().calibrate(measured).report;

    Section {
        id: "Figure 1".into(),
        title: "Packet filter duplication (IRIX)".into(),
        paper_claim: "Each outgoing data packet appears twice; the first copies' slope \
                      is >2.5 MB/s (OS sourcing rate) and the second copies' almost \
                      exactly 1 MB/s (Ethernet rate) — the earlier timestamps are bogus, \
                      the later accurate. tcpanaly discards the later copy."
            .into(),
        params: "IRIX sender, 100 KB over 8 Mb/s WAN, 10 Mb/s LAN; IRIX duplicating \
                 filter model (OS copy rate 2.5 MB/s)"
            .into(),
        body: String::new(),
        measured: vec![
            (
                "duplicate records added".into(),
                report.duplicates_added.to_string(),
            ),
            (
                "duplicates detected & removed".into(),
                cal.duplicates.len().to_string(),
            ),
            ("first-copy slope".into(), fmt_rate(first_rate)),
            ("second-copy slope".into(), fmt_rate(second_rate)),
        ],
        verdict: if cal.duplicates.len() == report.duplicates_added
            && first_rate > 2.0e6
            && (0.9e6..2.0e6).contains(&second_rate)
        {
            "REPRODUCED: two copies per packet; OS-rate vs wire-rate slopes; all duplicates detected.".into()
        } else {
            format!(
                "PARTIAL: detected {}/{} dups, slopes {} vs {}",
                cal.duplicates.len(),
                report.duplicates_added,
                fmt_rate(first_rate),
                fmt_rate(second_rate)
            )
        },
    }
}

/// Figure 2 — vantage-point ambiguity (§3.2).
///
/// The paper's example: shortly after an ack arrives covering certain
/// data, the sender (apparently) retransmits that very data — because the
/// TCP was still responding to an *earlier* ack when the filter recorded
/// the later one. Neither the filter nor the TCP misbehaved.
pub fn fig2() -> Section {
    // A Solaris sender (whose §8.6 oddity retransmits the segment just
    // above a liberating ack) on a fast path with a sluggish host and an
    // ack-every-packet receiver: acks arrive ~2 ms apart while responses
    // lag arrivals by ~7 ms, so by the time a response is on the wire,
    // the filter has already recorded acks covering it — the paper's
    // ambiguity exactly.
    let mut path = PathSpec::default();
    path.rate_bps = 6_000_000;
    path.one_way_delay = Duration::from_millis(40);
    path.proc_delay = Duration::from_millis(6);
    let out = run_transfer(
        profiles::solaris_2_4(),
        profiles::linux_2_0(),
        &path,
        100 * 1024,
        102,
    );
    let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
    let conn = &calibrated.connections[0];

    // Search for the signature: a retransmission recorded after an ack
    // that already covers it.
    let mut instances = 0usize;
    let mut excerpt = String::new();
    let mut highest = None::<tcpa_wire::SeqNum>;
    let mut last_ack: Option<(Time, tcpa_wire::SeqNum)> = None;
    for (dir, rec) in &conn.records {
        match dir {
            Dir::SenderToReceiver if rec.is_data() => {
                let hi = rec.seq_hi();
                let is_retx = highest.is_some_and(|h| !hi.after(h));
                if is_retx {
                    if let Some((t_ack, ack)) = last_ack {
                        if ack.at_or_after(hi) && rec.ts - t_ack < Duration::from_millis(25) {
                            instances += 1;
                            if instances <= 3 {
                                excerpt.push_str(&format!(
                                    "ack {} recorded {}, then 'needless' retransmit of [{}..{}) at {}\n",
                                    ack,
                                    t_ack,
                                    rec.seq_lo(),
                                    hi,
                                    rec.ts
                                ));
                            }
                        }
                    }
                }
                highest = Some(match highest {
                    Some(h) => h.max(hi),
                    None => hi,
                });
            }
            Dir::ReceiverToSender if rec.is_pure_ack() => {
                last_ack = Some((rec.ts, rec.tcp.ack));
            }
            _ => {}
        }
    }

    // The analyzer must absorb the ambiguity: the correct profile still
    // fits with zero hard issues.
    let fit = fingerprint_one(conn, &profiles::solaris_2_4()).expect("analyzable");

    Section {
        id: "Figure 2".into(),
        title: "Vantage-point ambiguity".into(),
        paper_claim: "A retransmission appears just after the ack that covers it; \
                      neither filter nor TCP erred — the filter's vantage point is \
                      not the TCP's. tcpanaly must cope via look-behind."
            .into(),
        params: "Solaris 2.4 sender, ack-every-packet receiver, 6 ms host \
                 processing delay, 80 ms RTT lossless path"
            .into(),
        body: excerpt,
        measured: vec![
            (
                "apparently-needless retransmissions".into(),
                instances.to_string(),
            ),
            (
                "hard issues under correct profile".into(),
                fit.analysis.hard_issues().to_string(),
            ),
            ("fit of correct profile".into(), fit.fit.to_string()),
        ],
        verdict: if instances > 0 && fit.analysis.hard_issues() == 0 {
            "REPRODUCED: the ambiguity occurs and the analyzer resolves it via look-behind.".into()
        } else {
            format!(
                "PARTIAL: {} instances, {} hard issues",
                instances,
                fit.analysis.hard_issues()
            )
        },
    }
}

/// Figure 3 — the Net/3 uninitialized-cwnd bug (§8.4).
pub fn fig3() -> Section {
    let mut receiver = profiles::reno();
    receiver.send_mss_option = false; // the trigger
    receiver.recv_window = 16_384;
    receiver.recv_window_schedule = vec![16_384, 20_000, 24_576, 32_768];
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(100);
    path.queue_cap = 16;
    let out = run_transfer(profiles::net3(), receiver.clone(), &path, 100 * 1024, 103);
    let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
    let conn = &calibrated.connections[0];
    let plot = SeqPlot::extract(conn);

    // Packets in the first 150 ms after the first data send.
    let data_times: Vec<Time> = conn
        .in_dir(Dir::SenderToReceiver)
        .filter(|r| r.is_data())
        .map(|r| r.ts)
        .collect();
    let t0 = data_times[0];
    let burst = data_times
        .iter()
        .filter(|&&t| t - t0 < Duration::from_millis(150))
        .count();
    let lost_of_burst = out
        .truth
        .queue_drops
        .iter()
        .chain(out.truth.wire_drops.iter())
        .filter(|(t, _)| *t - t0 < Duration::from_millis(400))
        .count();

    Section {
        id: "Figure 3".into(),
        title: "Net/3 uninitialized-cwnd bug".into(),
        paper_claim: "SYN-ack without an MSS option leaves cwnd/ssthresh huge: the \
                      TCP instantly sends all 30 packets fitting the 16,384-byte \
                      offered window; 14 of the first 61 packets were lost."
            .into(),
        params: "Net/3 sender vs MSS-option-less receiver offering 16 KB growing \
                 window; 200 ms RTT, 16-packet bottleneck queue"
            .into(),
        body: plot.render_ascii(72, 18),
        measured: vec![
            ("first-burst packets (150 ms)".into(), burst.to_string()),
            (
                "packets lost near the burst".into(),
                lost_of_burst.to_string(),
            ),
            (
                "retransmissions".into(),
                out.sender_stats.retransmissions.to_string(),
            ),
        ],
        verdict: if burst >= 25 && lost_of_burst > 0 {
            format!(
                "REPRODUCED: {burst}-packet opening blast into the offered window; \
                 the bottleneck queue overflowed ({lost_of_burst} lost)."
            )
        } else {
            format!("PARTIAL: burst {burst}, losses {lost_of_burst}")
        },
    }
}

/// Figure 4 — broken Linux 1.0 retransmission (§8.5).
pub fn fig4() -> Section {
    let mut path = PathSpec::default();
    path.rate_bps = 256_000;
    path.queue_cap = 8;
    path.one_way_delay = Duration::from_millis(60);
    path.loss_data = LossModel::Periodic(20);
    let out = run_transfer(
        profiles::linux_1_0(),
        profiles::linux_1_0(),
        &path,
        100 * 1024,
        104,
    );
    let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
    let conn = &calibrated.connections[0];
    let plot = SeqPlot::extract(conn);

    let pkts = out.sender_stats.data_packets_sent;
    let retx = out.sender_stats.retransmissions;
    let drop_pct =
        100.0 * out.truth.total_drops() as f64 / (pkts + out.receiver_stats.acks_sent) as f64;

    // Control: Linux 2.0 on the identical path.
    let fixed = run_transfer(
        profiles::linux_2_0(),
        profiles::linux_2_0(),
        &path,
        100 * 1024,
        104,
    );

    Section {
        id: "Figure 4".into(),
        title: "Broken Linux 1.0 retransmission".into(),
        paper_claim: "On a dup ack, Linux 1.0 retransmits every packet in flight; \
                      the example connection sent 317 packets, 117 of them \
                      retransmissions, with 20% of packets dropped — 'pouring \
                      gasoline on a fire'. Fixed in later releases."
            .into(),
        params: "Linux 1.0 both ends, 256 kb/s bottleneck, 8-packet queue, 120 ms \
                 RTT, 1-in-20 data loss; control run with Linux 2.0"
            .into(),
        body: plot.render_ascii(72, 18),
        measured: vec![
            ("packets sent".into(), pkts.to_string()),
            (
                "retransmissions".into(),
                format!("{retx} ({:.0}%)", 100.0 * retx as f64 / pkts as f64),
            ),
            ("network drop rate".into(), format!("{drop_pct:.1}%")),
            (
                "burst retransmissions (plot R)".into(),
                plot.count(PointKind::Retransmit).to_string(),
            ),
            (
                "Linux 2.0 control retransmissions".into(),
                format!(
                    "{} ({:.0}%)",
                    fixed.sender_stats.retransmissions,
                    100.0 * fixed.sender_stats.retransmissions as f64
                        / fixed.sender_stats.data_packets_sent as f64
                ),
            ),
        ],
        verdict: if retx as f64 > 0.2 * pkts as f64
            && (fixed.sender_stats.retransmissions as f64) < 0.5 * retx as f64
        {
            "REPRODUCED: a retransmission storm (>20% of packets) that the fixed Linux 2.0 does not exhibit.".into()
        } else {
            format!(
                "PARTIAL: {retx}/{pkts} vs control {}",
                fixed.sender_stats.retransmissions
            )
        },
    }
}

/// Figure 5 — broken Solaris retransmission timer (§8.6).
pub fn fig5() -> Section {
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(335); // RTT ≈ 680 ms
    let out = run_transfer(
        profiles::solaris_2_4(),
        profiles::reno(),
        &path,
        100 * 1024,
        105,
    );
    let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
    let conn = &calibrated.connections[0];
    let plot = SeqPlot::extract(conn);

    let retx = out.sender_stats.retransmissions;
    let fresh = out.sender_stats.data_packets_sent - retx;
    let reno = run_transfer(profiles::reno(), profiles::reno(), &path, 100 * 1024, 105);

    Section {
        id: "Figure 5".into(),
        title: "Broken Solaris 2.3/2.4 retransmission timer".into(),
        paper_claim: "RTT 680 ms exceeds the ~300 ms initial RTO; Solaris sends \
                      almost as many retransmissions as new packets, every one \
                      needless, and the RTO never adapts because acks of \
                      retransmitted data restore it to its erroneously small value."
            .into(),
        params: "Solaris 2.4 sender, California→Netherlands-like path (680 ms RTT), \
                 no loss; Reno control on the same path"
            .into(),
        body: plot.render_ascii(72, 18),
        measured: vec![
            ("new data packets".into(), fresh.to_string()),
            (
                "needless retransmissions".into(),
                format!(
                    "{retx} (network dropped {} packets)",
                    out.truth.total_drops()
                ),
            ),
            (
                "Reno control retransmissions".into(),
                reno.sender_stats.retransmissions.to_string(),
            ),
        ],
        verdict: if out.truth.total_drops() == 0
            && retx as f64 > 0.3 * fresh as f64
            && reno.sender_stats.retransmissions <= 2
        {
            "REPRODUCED: a flood of needless retransmissions unique to the Solaris timer.".into()
        } else {
            format!(
                "PARTIAL: {retx} retx / {fresh} fresh (control {})",
                reno.sender_stats.retransmissions
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces() {
        assert!(
            fig1().verdict.starts_with("REPRODUCED"),
            "{}",
            fig1().verdict
        );
    }

    #[test]
    fn fig2_reproduces() {
        assert!(
            fig2().verdict.starts_with("REPRODUCED"),
            "{}",
            fig2().verdict
        );
    }

    #[test]
    fn fig3_reproduces() {
        assert!(
            fig3().verdict.starts_with("REPRODUCED"),
            "{}",
            fig3().verdict
        );
    }

    #[test]
    fn fig4_reproduces() {
        assert!(
            fig4().verdict.starts_with("REPRODUCED"),
            "{}",
            fig4().verdict
        );
    }

    #[test]
    fn fig5_reproduces() {
        assert!(
            fig5().verdict.starts_with("REPRODUCED"),
            "{}",
            fig5().verdict
        );
    }
}
