//! Ablations: switch each of the analyzer's design choices off in turn
//! and show the misdiagnosis it was preventing.
//!
//! The paper frames these choices as hard-won (§4: one-pass and generic
//! analysis both failed; §3.1.2: duplicates must be removed; §3.2:
//! vantage ambiguity must be tolerated; §6.2: implicit state must be
//! inferred). Each row here is one of those choices, the scenario that
//! needs it, and the analyzer's verdict with the choice on vs off.

use crate::{Section, TextTable};
use tcpa_filter::{apply, FilterConfig};
use tcpa_tcpsim::harness::{run_transfer, run_transfer_with, Extras, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{Connection, Duration, Time};
use tcpanaly::fingerprint::{classify, FitClass};
use tcpanaly::sender::{analyze_sender_with, ReplayOptions};
use tcpanaly::Analyzer;

struct Ablation {
    name: &'static str,
    with_class: FitClass,
    with_issues: usize,
    without_class: FitClass,
    without_issues: usize,
}

fn class_of(
    conn: &Connection,
    cfg: &tcpa_tcpsim::TcpConfig,
    opts: &ReplayOptions,
) -> (FitClass, usize) {
    let a = analyze_sender_with(conn, cfg, opts).expect("analyzable");
    (classify(&a), a.hard_issues())
}

fn run_ablations() -> Vec<Ablation> {
    let mut rows = Vec::new();
    let on = ReplayOptions::default();

    // --- look-behind (§3.2 / Figure 2) -------------------------------
    {
        let mut path = PathSpec::default();
        path.rate_bps = 6_000_000;
        path.one_way_delay = Duration::from_millis(40);
        path.proc_delay = Duration::from_millis(6);
        let out = run_transfer(
            profiles::solaris_2_4(),
            profiles::linux_2_0(),
            &path,
            100 * 1024,
            201,
        );
        let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
        let cfg = profiles::solaris_2_4();
        let off = ReplayOptions {
            lookbehind: Duration::ZERO,
            ..ReplayOptions::default()
        };
        let (wc, wi) = class_of(&calibrated.connections[0], &cfg, &on);
        let (oc, oi) = class_of(&calibrated.connections[0], &cfg, &off);
        rows.push(Ablation {
            name: "look-behind (§3.2 vantage ambiguity)",
            with_class: wc,
            with_issues: wi,
            without_class: oc,
            without_issues: oi,
        });
    }

    // --- ε look-ahead cure (§3.1.3) -----------------------------------
    {
        let mut path = PathSpec::default();
        path.one_way_delay = Duration::from_millis(5);
        path.proc_delay = Duration::from_micros(50);
        let out = run_transfer(profiles::reno(), profiles::reno(), &path, 100 * 1024, 202);
        let (measured, _) = apply(&out.sender_tap, &FilterConfig::solaris_resequencing(), 202);
        let calibrated = Analyzer::at_sender().calibrate(measured);
        let cfg = profiles::reno();
        let off = ReplayOptions {
            epsilon: Duration::ZERO,
            ..ReplayOptions::default()
        };
        let (wc, wi) = class_of(&calibrated.connections[0], &cfg, &on);
        let (oc, oi) = class_of(&calibrated.connections[0], &cfg, &off);
        rows.push(Ablation {
            name: "ε look-ahead cure (§3.1.3 resequencing)",
            with_class: wc,
            with_issues: wi,
            without_class: oc,
            without_issues: oi,
        });
    }

    // --- duplicate removal (§3.1.2 / Figure 1) ------------------------
    {
        let out = run_transfer(
            profiles::irix(),
            profiles::reno(),
            &PathSpec::default(),
            100 * 1024,
            203,
        );
        let (measured, _) = apply(&out.sender_tap, &FilterConfig::irix_duplicating(), 203);
        let cfg = profiles::irix();
        // "Without": analyze the duplicated trace directly, uncalibrated.
        let (oc, oi) = class_of(&Connection::split(&measured).remove(0), &cfg, &on);
        let calibrated = Analyzer::at_sender().calibrate(measured);
        let (wc, wi) = class_of(&calibrated.connections[0], &cfg, &on);
        rows.push(Ablation {
            name: "measurement-duplicate removal (§3.1.2)",
            with_class: wc,
            with_issues: wi,
            without_class: oc,
            without_issues: oi,
        });
    }

    // --- source-quench inference (§6.2) -------------------------------
    {
        let mut path = PathSpec::default();
        path.one_way_delay = Duration::from_millis(50);
        let extras = Extras {
            quench_at: vec![Time::from_millis(700)],
            horizon: None,
            sender_pause: None,
        };
        let out = run_transfer_with(
            profiles::reno(),
            profiles::reno(),
            &path,
            100 * 1024,
            204,
            &extras,
        );
        let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
        let cfg = profiles::reno();
        let off = ReplayOptions {
            infer_quench: false,
            ..ReplayOptions::default()
        };
        let (wc, wi) = class_of(&calibrated.connections[0], &cfg, &on);
        let (oc, oi) = class_of(&calibrated.connections[0], &cfg, &off);
        rows.push(Ablation {
            name: "source-quench inference (§6.2)",
            with_class: wc,
            with_issues: wi,
            without_class: oc,
            without_issues: oi,
        });
    }

    // --- sender-window inference (§6.2) -------------------------------
    {
        let mut cfg = profiles::reno();
        cfg.send_buffer = 8 * 1024;
        let mut path = PathSpec::default();
        path.one_way_delay = Duration::from_millis(100);
        let out = run_transfer(cfg.clone(), profiles::reno(), &path, 100 * 1024, 205);
        let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
        let off = ReplayOptions {
            infer_sender_window: false,
            infer_quench: false, // so the quench heuristic can't mask it
            ..ReplayOptions::default()
        };
        let on_no_quench = ReplayOptions {
            infer_quench: false,
            ..ReplayOptions::default()
        };
        let (wc, wi) = class_of(&calibrated.connections[0], &cfg, &on_no_quench);
        let (oc, oi) = class_of(&calibrated.connections[0], &cfg, &off);
        rows.push(Ablation {
            name: "sender-window inference (§6.2)",
            with_class: wc,
            with_issues: wi,
            without_class: oc,
            without_issues: oi,
        });
    }

    rows
}

/// Runs the ablation matrix.
pub fn run() -> Section {
    let rows = run_ablations();
    let mut table = TextTable::new(&["design choice", "with", "without"]);
    let mut ok = true;
    for r in &rows {
        if r.with_class != FitClass::Close {
            ok = false; // the full analyzer must handle every scenario
        }
        if r.without_class == FitClass::Close && r.without_issues == r.with_issues {
            ok = false; // the ablation must visibly matter
        }
        table.row(vec![
            r.name.into(),
            format!("{} ({} issues)", r.with_class, r.with_issues),
            format!("{} ({} issues)", r.without_class, r.without_issues),
        ]);
    }
    Section {
        id: "Ablations".into(),
        title: "Each analyzer design choice, switched off".into(),
        paper_claim: "§4 recounts the design dead-ends: one-pass analysis foundered on \
                      vantage ambiguity, generic analysis on behavioral diversity; §3 \
                      demands calibration before inference; §6.2 demands implicit-state \
                      inference. Removing any of these should visibly break analysis."
            .into(),
        params: "The scenario that exercises each mechanism, analyzed by the true \
                 profile with the mechanism on vs off"
            .into(),
        body: table.render(),
        measured: vec![],
        verdict: if ok {
            "CONFIRMED: every mechanism is load-bearing — with it the true profile fits closely; without it the same trace is misdiagnosed.".into()
        } else {
            "PARTIAL: see table".into()
        },
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablations_confirm_each_mechanism() {
        let s = super::run();
        assert!(
            s.verdict.starts_with("CONFIRMED"),
            "{}\n{}",
            s.verdict,
            s.body
        );
    }
}
