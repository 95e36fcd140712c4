//! The owned calibration pass (dedup in place, time travel on the cleaned
//! records, each record moved once into its connection) against the
//! clone-based dedup and `BTreeMap` split it replaced, on interleaved
//! multi-connection captures through the §3 filter presets.

#[path = "support/reference_pass.rs"]
mod reference_pass;

use reference_pass::{check_against_reference, interleaved, Flow};
use tcpa_filter::FilterConfig;
use tcpa_trace::Time;

fn flows(n: usize, seed: u64) -> Vec<Flow> {
    (0..n)
        .map(|k| Flow {
            profile: (seed as usize * 5 + k * 7) % 22,
            loss_every: (k % 2 == 1).then_some(12 + seed % 9),
            start_ms: 1200 + 300 * k as i64,
        })
        .collect()
}

#[test]
fn owned_pass_matches_the_reference_on_filtered_interleaved_captures() {
    let filters = [
        ("irix_duplicating", FilterConfig::irix_duplicating()),
        ("solaris_resequencing", FilterConfig::solaris_resequencing()),
        (
            "time_travelling",
            FilterConfig::time_travelling(Time::from_secs(120)),
        ),
    ];
    for (name, filter) in &filters {
        let (mut duplicates, mut time_travel) = (0, 0);
        for n in [2, 3] {
            for seed in [3, 11] {
                let trace = interleaved(&flows(n, seed), filter, seed);
                let label = format!("{name} n={n} seed={seed}");
                let calibrated = check_against_reference(&label, &trace);
                assert_eq!(calibrated.connections.len(), n, "{label}");
                duplicates += calibrated.report.duplicates.len();
                time_travel += calibrated.report.time_travel.len();
            }
        }
        // Each preset exercises the path it is here for.
        match *name {
            "irix_duplicating" => assert!(duplicates > 0, "{name}: no duplicates"),
            "time_travelling" => assert!(time_travel > 0, "{name}: no time travel"),
            _ => {}
        }
    }
}
