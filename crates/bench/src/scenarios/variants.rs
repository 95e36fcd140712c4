//! §8.3 — the minor-variant matrix: can the analyzer tell each variant
//! from its negation on a targeted workload?
//!
//! For each catalogued variant we build a scenario that expresses it,
//! generate a trace with the variant ON, and replay it under both the ON
//! and OFF configs. A variant is *distinguished* when the matching config
//! fits closely and the mismatched one accumulates hard issues. Some
//! variants are honestly indistinguishable on short traces (the paper
//! calls several of them "rarely manifested"); those rows are reported
//! as such rather than papered over.

use crate::{Section, TextTable};
use tcpa_netsim::LossModel;
use tcpa_tcpsim::config::{CwndIncrease, TcpConfig};
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::Duration;
use tcpanaly::fingerprint::{fingerprint_one, FitClass};
use tcpanaly::Analyzer;

struct Variant {
    name: &'static str,
    on: TcpConfig,
    off: TcpConfig,
    path: PathSpec,
    receiver: TcpConfig,
    /// Whether we expect a short bulk trace to distinguish the pair.
    expect_distinguish: bool,
}

fn long_ca_path() -> PathSpec {
    // A path that forces a long congestion-avoidance phase: early loss
    // cuts ssthresh, then a lengthy linear-growth tail where the Eqn 1 /
    // Eqn 2 difference accumulates.
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(80);
    path.loss_data = LossModel::DropList(vec![15]);
    path
}

fn variants() -> Vec<Variant> {
    let reno = profiles::reno;
    vec![
        Variant {
            name: "Eqn 1 vs Eqn 2 (super-linear CA increase)",
            on: TcpConfig {
                name: "eqn2",
                cwnd_increase: CwndIncrease::SuperLinear,
                ..reno()
            },
            off: TcpConfig {
                name: "eqn1",
                cwnd_increase: CwndIncrease::Linear,
                ..reno()
            },
            path: long_ca_path(),
            receiver: reno(),
            expect_distinguish: true,
        },
        Variant {
            name: "uninitialized-cwnd bug (Net/3, §8.4)",
            on: TcpConfig {
                name: "uninit-on",
                uninit_cwnd_bug: true,
                ..reno()
            },
            off: TcpConfig {
                name: "uninit-off",
                ..reno()
            },
            path: {
                let mut p = PathSpec::default();
                p.one_way_delay = Duration::from_millis(100);
                p.queue_cap = 64;
                p
            },
            receiver: TcpConfig {
                name: "no-mss-receiver",
                send_mss_option: false,
                ..reno()
            },
            expect_distinguish: true,
        },
        Variant {
            name: "initial ssthresh = 1 MSS (Linux/Solaris)",
            on: TcpConfig {
                name: "ssthresh-1",
                initial_ssthresh_segs: Some(1),
                ..reno()
            },
            off: TcpConfig {
                name: "ssthresh-default",
                ..reno()
            },
            path: PathSpec::default(),
            receiver: reno(),
            expect_distinguish: true,
        },
        Variant {
            name: "header-prediction bug (no deflation after recovery)",
            on: TcpConfig {
                name: "hdr-bug",
                header_prediction_bug: true,
                ..reno()
            },
            off: TcpConfig {
                name: "hdr-ok",
                ..reno()
            },
            path: {
                let mut p = long_ca_path();
                // Drop mid-flight so enough dup acks follow to trigger
                // fast retransmit (the bug only manifests in recovery).
                p.loss_data = LossModel::DropList(vec![18]);
                p
            },
            receiver: reno(),
            expect_distinguish: true,
        },
        Variant {
            name: "ssthresh rounded down to MSS multiple",
            on: TcpConfig {
                name: "round-down",
                ssthresh_round_down: true,
                ..reno()
            },
            off: TcpConfig {
                name: "round-off",
                ..reno()
            },
            path: long_ca_path(),
            receiver: reno(),
            // A ≤MSS-sized ssthresh difference takes a long CA phase to
            // surface; on a 100 KB transfer it rarely manifests (§8.3).
            expect_distinguish: false,
        },
        Variant {
            name: "slow-start boundary test (< vs <=)",
            on: TcpConfig {
                name: "strict",
                ss_test_strict: true,
                ..reno()
            },
            off: TcpConfig {
                name: "lax",
                ..reno()
            },
            path: long_ca_path(),
            receiver: reno(),
            expect_distinguish: false, // one-segment, one-ack difference
        },
    ]
}

/// Runs the variant-discrimination matrix.
pub fn run() -> Section {
    let mut table = TextTable::new(&[
        "variant",
        "self fit",
        "cross fit",
        "distinguished",
        "expected",
    ]);
    let mut ok = true;
    for v in variants() {
        let out = run_transfer(v.on.clone(), v.receiver.clone(), &v.path, 100 * 1024, 800);
        let calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
        let conn = &calibrated.connections[0];
        let on = fingerprint_one(conn, &v.on).expect("analyzable");
        let off = fingerprint_one(conn, &v.off).expect("analyzable");
        // Distinguished when the true config fits closely and the negated
        // one does not (hard issues OR degraded response delays — the
        // paper's imperfect-fit criterion, §6.1).
        let distinguished = on.fit == FitClass::Close && off.fit != FitClass::Close;
        if on.fit != FitClass::Close {
            ok = false;
        }
        if v.expect_distinguish && !distinguished {
            ok = false;
        }
        table.row(vec![
            v.name.into(),
            format!("{} ({} issues)", on.fit, on.analysis.issues.len()),
            format!("{} ({} issues)", off.fit, off.analysis.issues.len()),
            if distinguished {
                "yes".into()
            } else {
                "no".into()
            },
            if v.expect_distinguish {
                "yes".into()
            } else {
                "(rarely manifests)".into()
            },
        ]);
    }
    Section {
        id: "§8.3".into(),
        title: "Minor sender variants".into(),
        paper_claim: "Reno derivatives differ in an assortment of minor ways: Eqn 1 \
                      vs Eqn 2, ssthresh rounding, slow-start boundary test, \
                      dup-ack bookkeeping, MSS confusion, cwnd from the offered \
                      MSS — several 'rarely manifested'."
            .into(),
        params: "Per-variant targeted workloads; trace generated with variant ON, \
                 replayed under both ON and OFF configs"
            .into(),
        body: table.render(),
        measured: vec![],
        verdict: if ok {
            "REPRODUCED: every variant self-fits; each variant expected to manifest is distinguished from its negation (and the rarely-manifested ones behave as the paper says).".into()
        } else {
            "PARTIAL: see table".into()
        },
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn variants_reproduce() {
        let s = super::run();
        assert!(
            s.verdict.starts_with("REPRODUCED"),
            "{}\n{}",
            s.verdict,
            s.body
        );
    }
}
