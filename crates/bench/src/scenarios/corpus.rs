//! Corpus pipeline — serial vs. parallel batch analysis at paper scale.
//!
//! The paper's catalogues were distilled from ~40,000 traces (§2). This
//! scenario simulates a ~1,000-trace corpus across every implementation,
//! then analyzes it twice through `tcpanaly::corpus` — once on one worker,
//! once on one worker per CPU — and checks the pipeline's two contracts:
//! the merged census must be **byte-identical** regardless of worker
//! count, and parallel throughput should scale with the host's cores.

use crate::{Section, TextTable};
use std::time::Instant;
use tcpa_netsim::rng::SplitMix64;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::{CorpusItem, Duration, MemorySource};
use tcpanaly::calibrate::Vantage;
use tcpanaly::corpus::{analyze_corpus, CorpusConfig, CorpusReport};

/// Corpus size for the full `repro_all` run.
pub const CORPUS_SIZE: usize = 1000;

/// Generates `n` sender-side traces cycling over every implementation and
/// a spread of seeded paths.
fn simulate_corpus(n: usize) -> Vec<CorpusItem> {
    let profiles = all_profiles();
    let mut rng = SplitMix64::new(0xc0_9b05);
    let rates = [256_000u64, 1_544_000, 10_000_000];
    let delays = [10i64, 30, 80];
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        let cfg = profiles[i % profiles.len()].clone();
        let mut path = PathSpec::default();
        path.rate_bps = rates[rng.next_below(rates.len() as u64) as usize];
        path.one_way_delay =
            Duration::from_millis(delays[rng.next_below(delays.len() as u64) as usize]);
        if rng.chance(0.3) {
            path.loss_data = tcpa_netsim::LossModel::Periodic(9);
        }
        let out = run_transfer(
            cfg.clone(),
            tcpa_tcpsim::profiles::reno(),
            &path,
            16 * 1024,
            0x5eed + i as u64,
        );
        items.push(CorpusItem::memory(
            format!("sim/{i:04}-{}", cfg.name),
            out.sender_trace(),
        ));
    }
    items
}

fn timed_run(items: Vec<CorpusItem>, jobs: usize) -> (CorpusReport, f64) {
    let config = CorpusConfig {
        jobs,
        vantage: Vantage::Sender,
        ..CorpusConfig::default()
    };
    // tcpa-lint: allow(determinism-hazards) -- the scenario reports end-to-end wall-clock including span overhead, so it cannot itself run under a span
    let start = Instant::now();
    let report = analyze_corpus(MemorySource::new(items), &config);
    (report, start.elapsed().as_secs_f64())
}

/// Runs the scenario on an `n`-trace corpus (tests use a small `n`; the
/// `repro_all` entry point uses [`CORPUS_SIZE`]).
pub fn run_with(n: usize) -> Section {
    let items = simulate_corpus(n);
    let jobs = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let (serial, serial_secs) = timed_run(items.clone(), 1);
    let (parallel, parallel_secs) = timed_run(items, jobs);

    let identical = serial.render() == parallel.render();
    let speedup = serial_secs / parallel_secs.max(1e-9);

    let mut table = TextTable::new(&["pipeline", "workers", "secs", "traces/sec"]);
    table.row(vec![
        "serial".into(),
        "1".into(),
        format!("{serial_secs:.2}"),
        format!("{:.0}", n as f64 / serial_secs.max(1e-9)),
    ]);
    table.row(vec![
        "parallel".into(),
        jobs.to_string(),
        format!("{parallel_secs:.2}"),
        format!("{:.0}", n as f64 / parallel_secs.max(1e-9)),
    ]);
    let mut body = table.render();
    body.push('\n');
    body.push_str(&parallel.render());

    // Speedup is only a meaningful claim when the host has the cores;
    // byte-identity must hold everywhere.
    let scaling_ok = jobs < 8 || speedup >= 3.0;
    Section {
        id: "Corpus".into(),
        title: "parallel batch analysis of a simulated corpus".into(),
        paper_claim: "tcpanaly analyzed the measurement corpus (~40,000 traces) \
                      in batch; conclusions are per-trace and order-independent."
            .into(),
        params: format!(
            "{n} simulated sender-side traces (16 KiB transfers, every \
             implementation, seeded paths), analyzed serially and with \
             {jobs} workers. IRIX 4.0, NetBSD 1.0 and Generic Reno set every \
             knob as DEC OSF/1 2.0, BSDI 2.0 and HP/UX 10.00 do; each ties \
             with that earlier profile, which wins, so they are never a \
             best fit"
        ),
        body,
        measured: vec![
            (
                "census byte-identical (1 vs N workers)".into(),
                identical.to_string(),
            ),
            ("failed items".into(), parallel.census.failed().to_string()),
            ("speedup".into(), format!("{speedup:.2}x")),
        ],
        verdict: if identical && parallel.census.failed() == 0 && scaling_ok {
            if jobs >= 8 {
                format!(
                    "REPRODUCED: deterministic census, {speedup:.1}x speedup on {jobs} workers."
                )
            } else {
                format!(
                    "REPRODUCED: deterministic census; host has only {jobs} core(s), \
                     speedup check not applicable ({speedup:.2}x measured)."
                )
            }
        } else if !identical {
            "FAILED: parallel census differs from serial".into()
        } else if parallel.census.failed() > 0 {
            format!("FAILED: {} corpus items failed", parallel.census.failed())
        } else {
            format!("PARTIAL: deterministic but only {speedup:.2}x speedup on {jobs} workers")
        },
    }
}

/// The `repro_all` entry point at full corpus size.
pub fn run() -> Section {
    run_with(CORPUS_SIZE)
}

#[cfg(test)]
mod tests {
    #[test]
    fn corpus_scenario_reproduces_small() {
        let s = super::run_with(60);
        assert!(
            s.verdict.starts_with("REPRODUCED"),
            "{}\n{}",
            s.verdict,
            s.body
        );
    }
}
