//! §9 — receiver acking policies and response delays.

use crate::{Section, TextTable};
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{Duration, Histogram};
use tcpanaly::receiver::{analyze_receiver, AckClass, PolicyGuess};
use tcpanaly::Analyzer;

/// §9.1 — delayed-ack latency distributions and the T·ρ ≤ 2b band.
///
/// The paper: BSD delayed acks are uniform over 0–200 ms (heartbeat);
/// Linux 1.0 acks every packet within ~1 ms; Solaris uses a 50 ms
/// interval timer, which for link rates below ≈20 KB/s guarantees *every*
/// ack is a delayed ack (counter-productively) — a band that includes the
/// then-common 56/64 kb/s links, whereas BSD's 200 ms timer only suffers
/// this below ≈5 KB/s.
pub fn ack_policy() -> Section {
    let mut table = TextTable::new(&[
        "receiver",
        "rate",
        "delayed",
        "normal",
        "stretch",
        "mean delay",
        "cv",
        "policy guess",
    ]);

    let mut bsd_ok = false;
    let mut linux_ok = false;
    let mut solaris_ok = false;
    let mut solaris_all_delayed_at_64k = false;
    let mut bsd_normal_at_64k = false;

    for (cfg, label) in [
        (profiles::reno(), "BSD (200ms hb)"),
        (profiles::linux_1_0(), "Linux 1.0"),
        (profiles::solaris_2_4(), "Solaris 2.4"),
    ] {
        for &rate in &[64_000u64, 1_544_000] {
            let mut path = PathSpec::default();
            path.rate_bps = rate;
            let bytes = if rate < 200_000 {
                48 * 1024
            } else {
                100 * 1024
            };
            let out = run_transfer(profiles::reno(), cfg.clone(), &path, bytes, 900);
            let calibrated = Analyzer::at_receiver().calibrate(out.receiver_trace());
            let a = analyze_receiver(&calibrated.connections[0]).expect("analyzable");
            let delayed = a.count(AckClass::Delayed);
            let normal = a.count(AckClass::Normal);
            let stretch = a.count(AckClass::Stretch);
            let mean = a
                .ack_delays
                .mean()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into());
            // CV of the delayed-ack histogram over 0..250 ms.
            let mut hist = Histogram::new(Duration::ZERO, Duration::from_millis(25), 10);
            for &d in a.delayed_ack_delays.samples() {
                hist.add(d);
            }
            let cv = hist.cv();
            table.row(vec![
                label.into(),
                if rate < 200_000 {
                    "64 kb/s".into()
                } else {
                    "T1".into()
                },
                delayed.to_string(),
                normal.to_string(),
                stretch.to_string(),
                mean,
                format!("{cv:.2}"),
                format!("{:?}", a.policy),
            ]);

            if rate == 64_000 {
                match label {
                    "BSD (200ms hb)" => {
                        bsd_ok = matches!(a.policy, PolicyGuess::Heartbeat { .. });
                        // §9.1: at 64 kb/s BSD still manages normal acks.
                        bsd_normal_at_64k = normal > 0;
                    }
                    "Linux 1.0" => {
                        linux_ok = a.policy == PolicyGuess::EveryPacket;
                    }
                    "Solaris 2.4" => {
                        solaris_ok = matches!(a.policy, PolicyGuess::IntervalTimer { .. });
                        // §9.1: T=50 ms, ρ=8 KB/s, b=1460: Tρ=400 < 2b=2920
                        // ⇒ every in-sequence ack is a delayed ack.
                        solaris_all_delayed_at_64k = normal == 0 && delayed > 10;
                    }
                    _ => {}
                }
            }
        }
    }

    Section {
        id: "§9.1".into(),
        title: "Acking in-sequence data: delayed / normal / stretch".into(),
        paper_claim: "BSD delayed acks spread uniformly over 0–200 ms (heartbeat \
                      timer); Linux 1.0 acks every packet within ~1 ms; Solaris's \
                      50 ms per-packet timer guarantees every ack is delayed \
                      whenever the link rate ρ ≤ 2·MSS/T ≈ 58 KB/s — including \
                      56/64 kb/s links — where BSD's 200 ms timer still produces \
                      normal acks."
            .into(),
        params: "Reno sender; BSD / Linux 1.0 / Solaris receivers at 64 kb/s and T1".into(),
        body: table.render(),
        measured: vec![
            ("BSD policy identified".into(), bsd_ok.to_string()),
            ("Linux policy identified".into(), linux_ok.to_string()),
            ("Solaris policy identified".into(), solaris_ok.to_string()),
            (
                "Solaris at 64 kb/s: all acks delayed".into(),
                solaris_all_delayed_at_64k.to_string(),
            ),
            (
                "BSD at 64 kb/s: normal acks present".into(),
                bsd_normal_at_64k.to_string(),
            ),
        ],
        verdict: if bsd_ok
            && linux_ok
            && solaris_ok
            && solaris_all_delayed_at_64k
            && bsd_normal_at_64k
        {
            "REPRODUCED: all three policies identified; the Solaris 50 ms sub-optimality band includes 64 kb/s exactly as derived in §9.1.".into()
        } else {
            format!(
                "PARTIAL: bsd={bsd_ok} linux={linux_ok} solaris={solaris_ok} \
                 sol64k={solaris_all_delayed_at_64k} bsd64k={bsd_normal_at_64k}"
            )
        },
    }
}

/// §9.3 — receiver response delays (the RTT-measurement noise term).
pub fn response_delay() -> Section {
    let mut table = TextTable::new(&["receiver", "min", "median", "p90", "max"]);
    let mut linux_small = false;
    let mut bsd_large = false;
    for (cfg, label) in [
        (profiles::reno(), "BSD (200ms hb)"),
        (profiles::linux_1_0(), "Linux 1.0"),
        (profiles::solaris_2_4(), "Solaris 2.4"),
    ] {
        let mut path = PathSpec::default();
        path.rate_bps = 128_000;
        let out = run_transfer(profiles::reno(), cfg, &path, 64 * 1024, 901);
        let calibrated = Analyzer::at_receiver().calibrate(out.receiver_trace());
        let a = analyze_receiver(&calibrated.connections[0]).expect("analyzable");
        let d = &a.ack_delays;
        let min = d.min().map(|x| x.to_string()).unwrap_or_default();
        let median = d.median().map(|x| x.to_string()).unwrap_or_default();
        let p90 = d
            .percentile(90.0)
            .map(|x| x.to_string())
            .unwrap_or_default();
        let max = d.max().map(|x| x.to_string()).unwrap_or_default();
        match label {
            "Linux 1.0" => {
                linux_small =
                    d.percentile(90.0).unwrap_or(Duration::from_secs(1)) < Duration::from_millis(5)
            }
            "BSD (200ms hb)" => {
                bsd_large = d.max().unwrap_or(Duration::ZERO) > Duration::from_millis(100)
            }
            _ => {}
        }
        table.row(vec![label.into(), min, median, p90, max]);
    }
    Section {
        id: "§9.3".into(),
        title: "Receiver response delays".into(),
        paper_claim: "Variations in how long receivers take to generate acks \
                      introduce a significant noise term for senders measuring \
                      RTTs to high resolution: ~0–200 ms for BSD heartbeat \
                      receivers versus ~1 ms for ack-every-packet receivers."
            .into(),
        params: "Reno sender at 128 kb/s; per-receiver ack generation delay \
                 statistics"
            .into(),
        body: table.render(),
        measured: vec![
            ("Linux p90 < 5 ms".into(), linux_small.to_string()),
            ("BSD max > 100 ms".into(), bsd_large.to_string()),
        ],
        verdict: if linux_small && bsd_large {
            "REPRODUCED: two orders of magnitude between acking policies — the paper's RTT noise term.".into()
        } else {
            format!("PARTIAL: linux_small={linux_small} bsd_large={bsd_large}")
        },
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn ack_policy_reproduces() {
        let s = super::ack_policy();
        assert!(
            s.verdict.starts_with("REPRODUCED"),
            "{}\n{}",
            s.verdict,
            s.body
        );
    }

    #[test]
    fn response_delay_reproduces() {
        let s = super::response_delay();
        assert!(
            s.verdict.starts_with("REPRODUCED"),
            "{}\n{}",
            s.verdict,
            s.body
        );
    }
}
