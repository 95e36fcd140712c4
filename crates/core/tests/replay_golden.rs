//! Golden `fingerprint()` output for three deterministic simulated
//! traces, so any change to the sender replay or the candidate ranking
//! that moves a single figure — order, fit class, a delay statistic, an
//! issue count or an inference — shows up as a diff.
//!
//! On a mismatch the actual document is written next to the test
//! binaries (`replay_fingerprint.actual` under Cargo's target tmpdir);
//! copy it over `goldens/replay_fingerprint.txt` only when the change
//! in analyzer output is intended.

use std::fmt::Write as _;

use tcpa_netsim::LossModel;
use tcpa_tcpsim::config::TcpConfig;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{Connection, Duration};
use tcpanaly::fingerprint::fingerprint;

const GOLDEN: &str = include_str!("goldens/replay_fingerprint.txt");

/// Name, sender profile, transfer size, loss period (0 = clean), seed.
fn cases() -> Vec<(&'static str, TcpConfig, u64, u64, u64)> {
    vec![
        ("reno-loss-1.6MB", profiles::reno(), 1_638_400, 50, 7),
        ("solaris-2.4-100KB", profiles::solaris_2_4(), 102_400, 0, 11),
        ("tahoe-6.4MB", profiles::tahoe(), 6_553_600, 0, 13),
    ]
}

fn ns(d: Option<Duration>) -> String {
    d.map_or_else(|| "-".to_string(), |d| d.0.to_string())
}

fn render_case(out: &mut String, name: &str, conn: &Connection) {
    writeln!(out, "# {name} ({} records)", conn.records.len()).unwrap();
    for r in fingerprint(conn) {
        let delays = &r.analysis.response_delays;
        let median = delays.median();
        let p90 = delays.percentile(90.0);
        writeln!(
            out,
            "{} | {} | delays {} | min {} | median {} | mean {} | p90 {} | hard {} | lulls {} | quenches {} | sender_window {}",
            r.name,
            r.fit,
            delays.count(),
            ns(delays.min()),
            ns(median),
            ns(delays.mean()),
            ns(p90),
            r.analysis.hard_issues(),
            r.analysis.lulls(),
            r.analysis.inferred_quenches.len(),
            r.analysis
                .inferred_sender_window
                .map_or_else(|| "-".to_string(), |w| w.to_string()),
        )
        .unwrap();
    }
}

#[test]
fn fingerprint_output_matches_golden() {
    let mut actual = String::new();
    for (name, cfg, bytes, loss_every, seed) in cases() {
        let mut path = PathSpec::default();
        if loss_every > 0 {
            path.loss_data = LossModel::Periodic(loss_every);
        }
        let out = run_transfer(cfg, profiles::reno(), &path, bytes, seed);
        assert!(out.completed, "{name}: transfer did not complete");
        let conn = Connection::split(&out.sender_trace()).remove(0);
        render_case(&mut actual, name, &conn);
    }
    if actual != GOLDEN {
        let dump =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay_fingerprint.actual");
        std::fs::write(&dump, &actual).unwrap();
        panic!(
            "fingerprint output drifted from goldens/replay_fingerprint.txt; actual written to {}",
            dump.display()
        );
    }
}
