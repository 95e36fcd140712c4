//! `tcpa-bench` — bench-document tooling. Currently one subcommand:
//!
//! ```text
//! tcpa-bench compare [--threshold-pct N] [--floor-ms N] OLD.json NEW.json
//! ```
//!
//! Diffs two `tcpa-bench/v1` stage-timing documents (the committed
//! `BENCH_stage_timings.json` baseline vs. a fresh `repro_all` run),
//! prints the per-scenario delta table on stdout, and exits 1 when any
//! scenario regressed beyond the thresholds — the CI perf gate.
//!
//! Exit codes: 0 no regression, 1 regression, 2 usage/parse error.

use std::process::ExitCode;
use tcpa_bench::compare::{compare, CompareConfig};

const USAGE: &str = "usage: tcpa-bench compare [options] OLD.json NEW.json

Diff two tcpa-bench/v1 stage-timing documents and fail on regressions.

options:
  --threshold-pct N   regression threshold as percent of the baseline
                      wall clock (default 25)
  --floor-ms N        ignore deltas under N milliseconds, whatever the
                      percentage (default 1.0)

exit codes: 0 no regression, 1 regression, 2 usage or parse error
";

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("tcpa-bench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail_usage(&format!("unknown subcommand {other:?}")),
        None => fail_usage("no subcommand given"),
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut config = CompareConfig::default();
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // `--flag=value` is `--flag value`.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        let slot = match flag {
            "--threshold-pct" => &mut config.threshold_pct,
            "--floor-ms" => &mut config.floor_ms,
            _ if flag.starts_with('-') => return fail_usage(&format!("unknown option {arg}")),
            _ => {
                files.push(arg);
                continue;
            }
        };
        let Some(v) = inline.or_else(|| it.next().map(String::as_str)) else {
            return fail_usage(&format!("{flag} requires a number"));
        };
        match v.parse() {
            Ok(v) => *slot = v,
            Err(_) => return fail_usage(&format!("{flag}: invalid number {v:?}")),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return fail_usage("compare takes exactly two documents: OLD.json NEW.json");
    };
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let (old_text, new_text) = match (read(old_path), read(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return fail_usage(&e),
    };
    match compare(&old_text, &new_text, config) {
        Ok(report) => {
            print!("{}", report.render());
            if report.has_regressions() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail_usage(&e),
    }
}
