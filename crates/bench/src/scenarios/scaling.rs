//! Companion scenario: how the census's fingerprint cost grows with trace length.
//!
//! Not a paper artifact. The paper's fingerprinting (§5, §6.1) replays
//! every trace against every implementation model, so that stage's
//! per-packet cost decides how far the analyzer scales beyond 100 KB
//! transfers. The census's `census_verdict` per calibrated transfer, from
//! 100 KB to 6.4 MB: per-packet cost should stay flat, and the scenario
//! fails when it doubles.

use crate::{Section, TextTable};
use std::time::Instant;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::reno;
use tcpa_trace::Connection;
use tcpanaly::fingerprint::{census_verdict, fingerprint};
use tcpanaly::Analyzer;

/// Transfer sizes, 100 KB doubling twice per step to 6.4 MB.
const SIZES: [u64; 4] = [102_400, 409_600, 1_638_400, 6_553_600];
/// Timed census verdicts per size; the minimum is reported.
const CENSUS_REPS: usize = 15;
/// Timed all-profile fingerprints per size; the minimum is reported.
const FINGERPRINT_REPS: usize = 3;
/// Largest allowed census ns/packet ratio, 6.4 MB over 100 KB.
const MAX_GROWTH: f64 = 2.0;

/// Wall-clock seconds of one call of `f`.
fn secs(f: impl FnOnce()) -> f64 {
    // tcpa-lint: allow(determinism-hazards) -- the scenario reports fingerprint wall-clock itself; a span would add registry work to the loop it measures
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Per connection, the minimum seconds of `reps` calls of `f`. The
/// repetitions go round-robin over the connections, so a change in host
/// speed during the run hits every size alike instead of skewing the
/// growth ratio.
fn min_secs_interleaved(conns: &[Connection], reps: usize, f: impl Fn(&Connection)) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; conns.len()];
    for _ in 0..reps {
        for (b, conn) in best.iter_mut().zip(conns) {
            *b = b.min(secs(|| f(conn)));
        }
    }
    best
}

/// Runs the scenario.
pub fn run() -> Section {
    let conns: Vec<Connection> = SIZES
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let out = run_transfer(
                reno(),
                reno(),
                &PathSpec::default(),
                bytes,
                0x5ca1e + i as u64,
            );
            let mut calibrated = Analyzer::at_sender().calibrate(out.sender_trace());
            calibrated.connections.remove(0)
        })
        .collect();
    let census = min_secs_interleaved(&conns, CENSUS_REPS, |conn| {
        std::hint::black_box(census_verdict(conn));
    });
    let all = min_secs_interleaved(&conns, FINGERPRINT_REPS, |conn| {
        std::hint::black_box(fingerprint(conn));
    });

    let mut table = TextTable::new(&[
        "transfer",
        "packets",
        "census ns/packet",
        "all-profile fingerprint",
    ]);
    let mut ns_per_packet = Vec::new();
    for (i, conn) in conns.iter().enumerate() {
        let packets = conn.records.len();
        let ns = census[i] * 1e9 / packets.max(1) as f64;
        ns_per_packet.push(ns);
        table.row(vec![
            format!("{} KB", SIZES[i] / 1024),
            packets.to_string(),
            format!("{ns:.0}"),
            format!("{:.1} ms", all[i] * 1e3),
        ]);
    }
    let growth = ns_per_packet[ns_per_packet.len() - 1] / ns_per_packet[0].max(1e-9);
    Section {
        id: "Scaling".into(),
        title: "fingerprint cost versus trace length".into(),
        paper_claim: "tcpanaly replays every trace against every implementation \
                      model (§5, §6.1); one pass with bounded per-packet work keeps \
                      that affordable for long transfers."
            .into(),
        params: format!(
            "Reno -> Reno over the default path, {} to {} KB, calibrated at the \
             sender; one census verdict (minimum of {CENSUS_REPS} runs) and one \
             all-profile fingerprint (minimum of {FINGERPRINT_REPS}) per size",
            SIZES[0] / 1024,
            SIZES[SIZES.len() - 1] / 1024
        ),
        body: table.render(),
        measured: vec![(
            "ns/packet growth (6.4 MB / 100 KB)".into(),
            format!("{growth:.2}x"),
        )],
        verdict: format!(
            "{}: per-packet census fingerprint cost grows {growth:.2}x over a 64x longer trace (limit {MAX_GROWTH}x).",
            if growth <= MAX_GROWTH { "REPRODUCED" } else { "FAILED" }
        ),
    }
}

#[cfg(test)]
mod tests {
    /// The growth bound is a timing, so a burst of host load during one
    /// run can push it over; it is asserted on the best of three runs.
    #[test]
    fn scaling_scenario_reproduces() {
        let mut verdicts = Vec::new();
        for _ in 0..3 {
            let s = super::run();
            if s.verdict.starts_with("REPRODUCED") {
                return;
            }
            verdicts.push(format!("{}\n{}", s.verdict, s.body));
        }
        panic!("{}", verdicts.join("\n"));
    }
}
