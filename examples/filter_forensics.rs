// PathSpec scenarios are configured field-by-field from the default so
// each deviation reads as one labelled line.
#![allow(clippy::field_reassign_with_default)]

//! The §3 forensics tour: push one perfectly-recorded connection through
//! each faulty packet-filter model and show what calibration finds.
//!
//! ```sh
//! cargo run --example filter_forensics
//! ```

use tcpa_filter::{apply, ClockModel, DropModel, FilterConfig};
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{Duration, Time};
use tcpanaly::Analyzer;

fn main() {
    // One ground-truth connection, tapped at the sender.
    let mut path = PathSpec::default();
    path.rate_bps = 256_000;
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, 100 * 1024, 99);
    println!(
        "ground truth: {} wire events at the sender tap\n",
        out.sender_tap.len()
    );

    let filters: Vec<(&str, FilterConfig)> = vec![
        ("perfect kernel filter", FilterConfig::perfect()),
        (
            "user-level filter shedding 5% of records (§3.1.1)",
            FilterConfig::lossy(0.05),
        ),
        (
            "filter falling behind: 8-record burst shed (§3.1.1)",
            FilterConfig {
                drops: DropModel::Burst { start: 30, len: 8 },
                ..FilterConfig::default()
            },
        ),
        (
            "IRIX 5.2 duplicating filter (§3.1.2, Figure 1)",
            FilterConfig::irix_duplicating(),
        ),
        (
            "Solaris two-path resequencing filter (§3.1.3)",
            FilterConfig::solaris_resequencing(),
        ),
        (
            "BSDI-style fast clock yanked back 150 ms every second (§3.1.4)",
            FilterConfig {
                clock: ClockModel::fast_with_periodic_sync(
                    300.0,
                    Duration::from_secs(1),
                    Duration::from_millis(150),
                    Time::from_secs(60),
                ),
                ..FilterConfig::default()
            },
        ),
        (
            "header-only capture (snap length, §7)",
            FilterConfig {
                headers_only: true,
                ..FilterConfig::default()
            },
        ),
    ];

    for (name, cfg) in filters {
        let (measured, report) = apply(&out.sender_tap, &cfg, 99);
        println!("== {name}");
        println!(
            "   filter wrote {} records (shed {}, duplicated {}, inverted {})",
            measured.len(),
            report.dropped_indices.len(),
            report.duplicates_added,
            report.inversions
        );
        let cal = Analyzer::at_sender().calibrate(measured).report;
        println!(
            "   calibration: {} duplicates removed, {} time-travel, {} resequencing, {} drop-evidence{}",
            cal.duplicates.len(),
            cal.time_travel.len(),
            cal.resequencing.len(),
            cal.drop_evidence.len(),
            if cal.ordering_untrustworthy() {
                " — ordering untrustworthy!"
            } else {
                ""
            }
        );
        for ev in cal.drop_evidence.iter().take(2) {
            println!("     e.g. {:?}: {}", ev.check, ev.detail);
        }
        println!();
    }
}
