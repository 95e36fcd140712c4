//! `perfbench` — the Rust half of the end-to-end benchmark (`run.py` is
//! the other half and the entry point).
//!
//! ```text
//! perfbench gen   --workload NAME --seed N --out DIR
//! perfbench trace --workload NAME --dir DIR [--min-seconds S]
//! ```
//!
//! `gen` writes a workload's seeded corpus and its manifest; it is not
//! timed. `trace` is the traced per-layer run over a generated corpus: it
//! calls the analyzer's public functions in `Analyzer::analyze`'s order,
//! one span around each, and prints one JSON object of per-layer metrics
//! and checks.
//!
//! Why not `BENCH_stage_timings.json`: that document is built from the
//! program's `tcpa_obs` registry, whose log2 histograms give percentiles
//! only as bucket bounds (2x resolution), whose `since` carries a stale
//! maximum into scenarios with no samples, and whose scenarios mostly run
//! once for under a millisecond. This benchmark times the release binary
//! from outside over corpora on disk, repeats runs and reports medians,
//! keeps exact nanosecond samples for its own spans, and starts a fresh
//! process for every workload run, so no registry state leaks between
//! workloads.

mod gen;
mod spans;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sender-side 100 KB transfers over all 22 profiles, batch mode with
    /// auto vantage: fingerprint-bound.
    Census,
    /// One single-file process per trace, 100 KB to 6.4 MB: replay growth
    /// and whole-trace memory.
    LongFlow,
    /// Receiver-vantage captures, some filtered or damaged, batch mode
    /// with salvage and every observability flag.
    ReceiverForensics,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "census" => Some(Workload::Census),
            "long-flow" => Some(Workload::LongFlow),
            "receiver-forensics" => Some(Workload::ReceiverForensics),
            _ => None,
        }
    }

    /// The workload's name on the command line and in the manifest.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Census => "census",
            Workload::LongFlow => "long-flow",
            Workload::ReceiverForensics => "receiver-forensics",
        }
    }
}

const USAGE: &str = "usage: perfbench gen --workload NAME --seed N --out DIR
       perfbench trace --workload NAME --dir DIR [--min-seconds S]";

fn run() -> Result<(), String> {
    // tcpa-lint: allow(determinism-hazards) -- command-line parsing, the one place this tool reads its environment
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut min_seconds = 0.0;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--out" | "--dir" => dir = Some(PathBuf::from(value)),
            "--min-seconds" => {
                min_seconds = value.parse().map_err(|e| format!("--min-seconds: {e}"))?
            }
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    let dir = dir.ok_or(USAGE)?;
    match command.as_str() {
        "gen" => gen::generate(workload, seed.ok_or(USAGE)?, &dir).map_err(|e| e.to_string()),
        "trace" => {
            // tcpa-lint: allow(no-raw-eprintln) -- the metrics object on stdout is this tool's output, read by run.py
            println!("{}", traced::run(workload, &dir, min_seconds)?);
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // tcpa-lint: allow(no-raw-eprintln) -- a standalone benchmark tool without the obs logger reports its own errors
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
