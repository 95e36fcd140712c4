//! `tcpanaly` — the command-line analyzer, as the paper shipped it.
//!
//! ```text
//! tcpanaly [--sender|--receiver] [--impl NAME] [--handshake]
//!          [--receiver-fingerprint] [--list-impls] [--jobs N]
//!          TRACE.pcap... | DIR...
//! ```
//!
//! Reads tcpdump-format captures, calibrates them (§3), and reports the
//! per-connection implementation fingerprint (§5/§6) and receiver audit
//! (§7/§9). With `--impl NAME` it checks a single candidate and prints
//! the full disagreement detail instead of the ranking.
//!
//! Every argument is a pcap file or a directory of them. Each trace runs
//! through the corpus item pipeline (`tcpanaly::corpus::run_corpus`) and
//! its report is printed as soon as it is done. With `--jobs N` the
//! corpus is analyzed on `N` worker threads (`0` = one per CPU, at most
//! one per trace) and a single merged census is printed instead,
//! byte-identical for any `N`.
//!
//! In both modes, `--degrade MODE` decides what a damaged capture does to
//! the run: `skip` (default) reports it as a failed item, `salvage`
//! recovers what it can and accounts the damage, `strict` aborts with
//! exit code 3. `--timeout-secs N` bounds each trace's analysis.
//!
//! Observability: `--metrics-out FILE` writes a `tcpa-metrics/v1` JSON
//! snapshot of every counter and stage histogram, `--audit-dir DIR`
//! writes one `tcpa-audit/v1` event log per trace, `--trace-out FILE`
//! writes the run's hierarchical span tree in Chrome `trace_event`
//! format (open it in Perfetto or `chrome://tracing`), `--progress`
//! prints a periodic stderr status line, and `--quiet`/`-v`/`-vv` set
//! diagnostic verbosity. Machine output (census, reports) stays on
//! stdout; diagnostics stay on stderr.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tcpa_tcpsim::profiles::{all_profiles, profile_by_name};
use tcpa_tcpsim::TcpConfig;
use tcpa_trace::source::{CorpusItem, Loaded};
use tcpa_trace::MemorySource;
use tcpanaly::calibrate::{Calibrated, Vantage};
use tcpanaly::corpus::{analyze_corpus, run_corpus, AnalysisError, CorpusConfig, DegradePolicy};
use tcpanaly::fingerprint::{fingerprint_one, fingerprint_receiver, receiver_fits};
use tcpanaly::obs::{self, log};
use tcpanaly::report::emit_stdout;
use tcpanaly::sender::SenderIssueKind;
use tcpanaly::{AnalysisReport, Analyzer, ItemOutcome};

#[derive(Default)]
struct Options {
    vantage: Vantage,
    sections: Sections,
    jobs: Option<usize>,
    degrade: DegradePolicy,
    timeout_secs: Option<u64>,
    metrics_out: Option<PathBuf>,
    audit_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    progress: bool,
    level: log::Level,
    files: Vec<String>,
}

const USAGE: &str = "usage: tcpanaly [options] TRACE.pcap...

options:
  --sender                trace was captured at the data sender (default: auto-detect)
  --receiver              trace was captured at the receiver
  --impl NAME             check one implementation instead of ranking all
  --handshake             also report the SYN-retry schedule
  --receiver-fingerprint  also rank receiver-side (acking policy) candidates
  --list-impls            list known implementations and exit
  --jobs N                batch mode: analyze a corpus of pcaps (or directories
                          of pcaps) on N worker threads (0 = one per CPU) and
                          print one merged census
  --degrade MODE          damaged-capture policy: skip (default) reports the
                          item as failed, salvage recovers readable records and
                          accounts the damage, strict aborts the run
  --timeout-secs N        per-trace analysis budget, checked as each stage
                          starts; overruns are reported as timed-out items
  --metrics-out FILE      write a tcpa-metrics/v1 JSON snapshot of all
                          counters and stage-duration histograms on exit
  --audit-dir DIR         write one tcpa-audit/v1 JSON event log per trace
                          (stage durations, retries, errors, verdicts)
  --trace-out FILE        write the run's span tree as a Chrome trace_event
                          JSON file (one lane per worker; view in Perfetto
                          or chrome://tracing)
  --progress              print a periodic status line to stderr while the
                          traces drain (stdout is never touched)
  --quiet                 only error diagnostics on stderr
  -v / -vv                info / debug diagnostics on stderr

exit codes: 0 success, 1 failed items, 2 usage error, 3 strict-mode abort
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // `--flag=value` is `--flag value`.
        let (flag, mut inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag.to_string(), Some(value.into())),
            _ => (arg, None),
        };
        let mut value = |what: &str| {
            inline
                .take()
                .or_else(|| args.next())
                .ok_or(format!("{flag} requires {what}"))
        };
        match flag.as_str() {
            "--sender" => opts.vantage = Vantage::Sender,
            "--receiver" => opts.vantage = Vantage::Receiver,
            "--impl" => {
                let name = value("a name")?;
                let cfg = profile_by_name(&name)
                    .ok_or_else(|| format!("unknown implementation {name:?}; try --list-impls"))?;
                opts.sections.implementation = Some(cfg);
            }
            "--jobs" => opts.jobs = Some(count(&flag, value("a count")?)?),
            "--degrade" => opts.degrade = value("a mode")?.parse()?,
            "--timeout-secs" => opts.timeout_secs = Some(count(&flag, value("a count")?)?),
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("a path")?)),
            "--audit-dir" => opts.audit_dir = Some(PathBuf::from(value("a directory")?)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("a path")?)),
            "--progress" => opts.progress = true,
            "--quiet" => opts.level = log::Level::Error,
            "-v" => opts.level = log::Level::Info,
            "-vv" => opts.level = log::Level::Debug,
            "--handshake" => opts.sections.handshake = true,
            "--receiver-fingerprint" => opts.sections.receiver_fp = true,
            "--list-impls" => {
                let list: String = all_profiles()
                    .iter()
                    .map(|p| format!("{:<22} ({})\n", p.name, p.lineage))
                    .collect();
                let _ = emit_stdout(&list);
                std::process::exit(0);
            }
            "--help" | "-h" => {
                let _ = emit_stdout(USAGE);
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            file => opts.files.push(file.to_string()),
        }
        if let Some(value) = inline {
            return Err(format!("unknown option {flag}={value}"));
        }
    }
    if opts.files.is_empty() {
        return Err("no trace files given".into());
    }
    let sections = &opts.sections;
    if opts.jobs.is_some()
        && (sections.implementation.is_some() || sections.handshake || sections.receiver_fp)
    {
        return Err(
            "--jobs batch mode is incompatible with --impl/--handshake/--receiver-fingerprint"
                .into(),
        );
    }
    Ok(opts)
}

/// Parses the count given to `flag`.
fn count<N: std::str::FromStr>(flag: &str, n: String) -> Result<N, String> {
    n.parse()
        .map_err(|_| format!("{flag}: invalid count {n:?}"))
}

/// Expands the trace arguments: files pass through, directories expand
/// to their `*.pcap` entries sorted by name.
fn corpus_items(args: &[String]) -> Result<Vec<CorpusItem>, String> {
    let mut items = Vec::new();
    for arg in args {
        if !Path::new(arg).is_dir() {
            items.push(CorpusItem::pcap(arg));
            continue;
        }
        let dir = MemorySource::from_pcap_dir(arg).map_err(|e| format!("{arg}: {e}"))?;
        if dir.is_empty() {
            return Err(format!("{arg}: directory contains no .pcap files"));
        }
        items.extend(dir.into_items());
    }
    Ok(items)
}

/// What single-trace mode prints for each trace.
#[derive(Default)]
struct Sections {
    implementation: Option<TcpConfig>,
    handshake: bool,
    receiver_fp: bool,
}

impl Sections {
    /// One trace's report: the ingest header, the auto-vantage line, then
    /// either the `--impl` check or the full report with the
    /// `--handshake` / `--receiver-fingerprint` sections, all drawn from
    /// one calibration of the trace, into which the trace's records move.
    fn render(&self, analyzer: &Analyzer, id: &str, loaded: Loaded) -> String {
        let mut out = match &loaded.salvage {
            Some(report) => format!("== {id}: {report}\n"),
            None => format!(
                "== {id}: {} records ({} non-TCP skipped)\n",
                loaded.trace.len(),
                loaded.skipped
            ),
        };
        let calibrated = analyzer.calibrate(loaded.trace);
        if analyzer.vantage() == Vantage::Unknown {
            let _ = writeln!(
                out,
                "vantage: auto-detected {:?} (override with --sender/--receiver)",
                calibrated.vantage
            );
        }
        if let Some(cfg) = &self.implementation {
            obs::time("stage.fingerprint", || {
                check_one(&mut out, cfg, &calibrated)
            });
            return out;
        }
        let report = calibrated.analyze();
        obs::time("stage.render", || {
            out.push_str(&report.render());
            self.render_sections(&mut out, &calibrated, &report);
        });
        out
    }

    /// Each connection's `--handshake` and `--receiver-fingerprint` sections.
    fn render_sections(&self, out: &mut String, calibrated: &Calibrated, report: &AnalysisReport) {
        for (report, conn) in report.connections.iter().zip(&calibrated.connections) {
            if self.handshake {
                match &report.handshake {
                    Some(h) => {
                        let _ = writeln!(
                            out,
                            "handshake {}: {} retries, initial RTO {}, backoff {:?}",
                            report.description,
                            h.retries(),
                            h.initial_rto.map_or_else(|| "-".into(), |d| d.to_string()),
                            h.shape
                        );
                    }
                    None => out.push_str("handshake: no SYN captured\n"),
                }
            }
            if !self.receiver_fp {
                continue;
            }
            let fits = match calibrated.vantage {
                Vantage::Receiver => report.receiver_fingerprint.clone(),
                // A sender vantage runs no receiver stage.
                Vantage::Sender => fingerprint_receiver(conn),
                Vantage::Unknown => report.receiver.iter().flat_map(receiver_fits).collect(),
            };
            out.push_str("receiver-side candidates (consistent first):\n");
            for fit in fits.iter().take(8) {
                let _ = writeln!(
                    out,
                    "  {:<22} {}",
                    fit.name,
                    if fit.consistent {
                        "consistent".to_string()
                    } else {
                        format!("contradicted: {}", fit.contradictions.join("; "))
                    }
                );
            }
        }
    }
}

/// The `--impl` check: the calibration findings, then one candidate's
/// fit and disagreements per connection.
fn check_one(out: &mut String, cfg: &TcpConfig, calibrated: &Calibrated) {
    let cal = &calibrated.report;
    if !cal.is_clean() {
        let _ = writeln!(
            out,
            "calibration: {} dups removed, {} time travel, {} reseq, {} drop evidence",
            cal.duplicates.len(),
            cal.time_travel.len(),
            cal.resequencing.len(),
            cal.drop_evidence.len()
        );
    }
    for conn in &calibrated.connections {
        let _ = writeln!(out, "-- connection {} -> {}", conn.sender, conn.receiver);
        match fingerprint_one(conn, cfg) {
            None => out.push_str("   no analyzable bulk data\n"),
            Some(fit) => {
                let delays = &fit.analysis.response_delays;
                let _ = writeln!(
                    out,
                    "   {}: {} — {} issues, delays p50 {} p90 {}",
                    cfg.name,
                    fit.fit,
                    fit.analysis.issues.len(),
                    delays.median().map(|d| d.to_string()).unwrap_or_default(),
                    delays
                        .percentile(90.0)
                        .map(|d| d.to_string())
                        .unwrap_or_default()
                );
                for issue in fit.analysis.issues.iter().take(10) {
                    let _ = write!(
                        out,
                        "   {:?} @{}: {}",
                        issue.kind(),
                        issue.time,
                        issue.detail
                    );
                    // The replay's detail names no candidate.
                    if issue.kind() == SenderIssueKind::UnexplainedRetransmission {
                        let _ = write!(out, " of {}", cfg.name);
                    }
                    out.push('\n');
                }
                if fit.analysis.issues.len() > 10 {
                    let _ = writeln!(out, "   … {} more", fit.analysis.issues.len() - 10);
                }
            }
        }
    }
}

/// Analyzes every trace through the corpus item pipeline: batch mode
/// prints one merged census, single-trace mode a report per trace as it
/// finishes. Exit code 0 when every item analyzed (possibly salvaged), 1
/// when any failed, 3 when a strict-policy run aborted on a malformed
/// capture.
fn run(opts: &Options) -> ExitCode {
    let items = match corpus_items(&opts.files) {
        Ok(items) => items,
        Err(e) => {
            log::error(&format!("{e}\n{USAGE}"));
            return ExitCode::from(2);
        }
    };
    let config = CorpusConfig {
        jobs: opts.jobs.unwrap_or(1),
        vantage: opts.vantage,
        degrade: opts.degrade,
        timeout: opts.timeout_secs.map(std::time::Duration::from_secs),
        audit_dir: opts.audit_dir.clone(),
        // --quiet wins over --progress: errors only means errors only.
        progress: opts.progress && opts.level != log::Level::Error,
    };
    // A panicking trace is reported as a failed item; keep the default
    // hook from interleaving backtrace noise with the report.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures: Vec<(String, AnalysisError)> = Vec::new();
    match opts.jobs {
        Some(jobs) => {
            log::info(&format!(
                "batch mode: {} traces, {jobs} jobs, degrade={}",
                items.len(),
                opts.degrade
            ));
            let report = analyze_corpus(MemorySource::new(items), &config);
            // A closed stdout needs no handling: the census is the last output.
            let _ = emit_stdout(&report.render());
            failures.extend(report.items.into_iter().filter_map(|r| match r.outcome {
                ItemOutcome::Failed(e) => Some((r.id, e)),
                _ => None,
            }));
        }
        None => {
            run_corpus(
                MemorySource::new(items),
                &config,
                |analyzer: &Analyzer, id: &str, loaded: Loaded| {
                    opts.sections.render(analyzer, id, loaded)
                },
                |item| match item.outcome {
                    // A closed stdout ends the run.
                    ItemOutcome::Analyzed(text) | ItemOutcome::Salvaged { summary: text, .. } => {
                        emit_stdout(&text).is_ok()
                    }
                    ItemOutcome::Failed(e) => {
                        log::error(&format!("{}: {e}", item.id));
                        failures.push((item.id, e));
                        true
                    }
                },
            );
        }
    }
    std::panic::set_hook(prior_hook);
    let strict = opts.degrade == DegradePolicy::Strict;
    if let Some((id, e)) = failures.iter().find(|(_, e)| strict && e.is_malformed()) {
        log::error(&format!("strict mode aborted on {id}: {e}"));
        ExitCode::from(3)
    } else if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the `tcpa-metrics/v1` snapshot of the whole run.
fn write_metrics(path: &Path, started: Instant) -> Result<(), obs::write::WriteError> {
    let snapshot = obs::registry::global().snapshot();
    obs::write::write_with_parents(path, &snapshot.to_json(started.elapsed().as_secs_f64()))
}

/// Drains the span-tree collector and streams the Chrome trace_event
/// document to `path`.
fn write_trace_out(path: &Path) -> Result<(), obs::write::WriteError> {
    let items = obs::trace::drain();
    if log::enabled(log::Level::Debug) {
        log::debug(&obs::trace::summary_line(&items));
    }
    obs::write::stream_with_parents(path, |out| obs::trace::write_chrome(&items, out))
}

fn main() -> ExitCode {
    // tcpa-lint: allow(determinism-hazards) -- wall-clock here only feeds the metrics wall_clock gauge, which is outside the byte-stability contract
    let started = Instant::now();
    log::set_program("tcpanaly");
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            log::error(&format!("{e}\n{USAGE}"));
            return ExitCode::from(2);
        }
    };
    log::set_level(opts.level);
    if opts.trace_out.is_some() {
        obs::trace::enable();
    }
    let code = run(&opts);
    if let Some(path) = &opts.trace_out {
        if let Err(e) = write_trace_out(path) {
            log::error(&format!("trace: {e}"));
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = write_metrics(path, started) {
            log::error(&format!("metrics: {e}"));
            return ExitCode::from(2);
        }
    }
    if let Some(line) = obs::registry::global().snapshot().human_summary() {
        log::info(&line);
    }
    code
}
