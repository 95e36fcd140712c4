//! Corpus-scale batch analysis (§8–§10 at production size).
//!
//! The paper's behavioral catalogues came from ~40,000 traces; one trace
//! at a time on one thread does not get there. This module runs a corpus
//! of traces — a [`MemorySource`] item list — on `N` worker threads
//! (scoped `std::thread`s that claim items through one shared index, no
//! external runtime) and merges the per-trace conclusions into a
//! Table-1-style census.
//!
//! Guarantees the rest of the system builds on:
//!
//! * **Determinism** — results are merged in input order, so the census
//!   (and its rendering) is byte-identical whatever the worker count or
//!   completion order.
//! * **Fault isolation** — one bad trace costs exactly one item, never
//!   the pipeline. Failures carry a typed [`AnalysisError`] (I/O,
//!   malformed bytes, timeout, panic) so the census can say *why*, and a
//!   [`DegradePolicy`] decides whether damaged captures abort the run
//!   ([`DegradePolicy::Strict`]), are skipped as failed items
//!   ([`DegradePolicy::Skip`]), or are salvage-read with the recovered
//!   records analyzed and the damage accounted
//!   ([`DegradePolicy::Salvage`]).
//! * **Bounded patience** — transient I/O errors are retried with
//!   backoff; a per-item analysis deadline (when configured) is checked
//!   at every span start on the item's own worker, so an overrunning
//!   analysis unwinds into an [`AnalysisError::Timeout`] failure instead
//!   of running on. An item overruns its budget by at most the span in
//!   progress: one stage, or one connection's lockstep `detail.sender_replay`.
//! * **One lifecycle** — the census and the CLI's per-trace reports run
//!   the same item pipeline ([`run_corpus`]); only the per-item step
//!   differs, and it calibrates each trace once ([`Analyzer::calibrate`]).
//! * **Observability** — each item is one [`tcpa_obs`] item log: its
//!   stage spans and its fault and verdict events are recorded once,
//!   and the stage histograms, the optional per-trace audit trail
//!   ([`CorpusConfig::audit_dir`]) and the trace are derived from it
//!   when the item ends. Counters for retries, timeouts, panics, degrade
//!   outcomes and salvage losses go to the global registry, and
//!   [`CorpusConfig::progress`] prints a periodic stderr status line.
//!   None of it perturbs the deterministic census.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use crate::calibrate::{CalibrationReport, Vantage};
use crate::fingerprint::CensusVerdict;
use crate::report::Analyzer;
use tcpa_obs::progress::{ItemClass, Progress};
use tcpa_obs::{AuditTrail, EventKind};
use tcpa_trace::pcap_io::IngestReport;
use tcpa_trace::source::{CorpusItem, LoadError, LoadMode, Loaded, MemorySource};
use tcpa_trace::{Duration, Summary};

/// What to do with a damaged (malformed but partially recoverable)
/// capture. Clean traces behave identically under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Abort the whole run on the first malformed capture (distinct exit
    /// code in the CLI). For pipelines where damage means the corpus
    /// itself is suspect.
    Strict,
    /// Salvage-read damaged captures: skip damaged byte regions, analyze
    /// the recovered records, and account for the degradation in the
    /// census. For unattended runs over imperfect data (§3).
    Salvage,
    /// Report damaged captures as failed items and keep going (the
    /// historical behavior).
    #[default]
    Skip,
}

impl DegradePolicy {
    /// Stable lowercase name (CLI flag values).
    pub fn name(self) -> &'static str {
        match self {
            DegradePolicy::Strict => "strict",
            DegradePolicy::Salvage => "salvage",
            DegradePolicy::Skip => "skip",
        }
    }
}

impl core::fmt::Display for DegradePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DegradePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<DegradePolicy, String> {
        match s {
            "strict" => Ok(DegradePolicy::Strict),
            "salvage" => Ok(DegradePolicy::Salvage),
            "skip" => Ok(DegradePolicy::Skip),
            other => Err(format!(
                "unknown degradation mode {other:?} (expected strict, salvage or skip)"
            )),
        }
    }
}

/// Batch-pipeline configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Worker threads; `0` means one per available CPU. A run starts no
    /// more workers than it has items.
    pub jobs: usize,
    /// Vantage assumed for every trace. [`Vantage::Unknown`] auto-detects
    /// per trace (§3.2), like the CLI's default single-trace mode.
    pub vantage: Vantage,
    /// How damaged captures are treated.
    pub degrade: DegradePolicy,
    /// Per-item wall-clock budget for the analysis step. `None` (the
    /// default) sets no deadline; `Some(d)` arms one on the worker for
    /// each analysis, and the first span started after it has passed
    /// unwinds the analysis into [`AnalysisError::Timeout`]. The budget
    /// is overrun by at most the span in progress when it expires: one
    /// stage, or one connection's lockstep `detail.sender_replay`.
    pub timeout: Option<std::time::Duration>,
    /// When set, one `tcpa-audit/v1` JSON event log is written here per
    /// processed trace (the directory is created if absent). Write
    /// failures are logged and counted, never fatal.
    pub audit_dir: Option<std::path::PathBuf>,
    /// When set, a status line is printed to stderr periodically (and
    /// once at the end) while the corpus drains. Stdout is never touched.
    pub progress: bool,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            jobs: 0,
            vantage: Vantage::Unknown,
            degrade: DegradePolicy::default(),
            timeout: None,
            audit_dir: None,
            progress: false,
        }
    }
}

/// Retries for a *transient* I/O error (interrupted, would-block, timed
/// out) when loading a trace. Non-transient errors (not found, permission
/// denied) never retry.
const IO_RETRIES: u32 = 2;

/// Backoff before the first retry; doubles per attempt.
const RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(20);

impl CorpusConfig {
    /// The concrete worker count this config resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Why one corpus item produced no (full) analysis — the typed failure
/// taxonomy the census aggregates and the CLI renders per item.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The trace bytes could not be read at all (after retries).
    Io {
        /// Description including the path and OS error.
        detail: String,
    },
    /// The capture is malformed and salvage would recover nothing.
    Malformed {
        /// Description including the path and byte offset of the damage.
        detail: String,
    },
    /// The capture is damaged but salvageable; the policy
    /// ([`DegradePolicy::Strict`]/[`DegradePolicy::Skip`]) refused to
    /// degrade. The report says what a salvage run would recover.
    Salvaged {
        /// The ingest ledger a salvage read produced.
        report: IngestReport,
    },
    /// Analysis exceeded the configured per-item wall-clock budget.
    Timeout {
        /// The budget that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The analyzer panicked on this trace.
    Panicked {
        /// The panic payload message.
        message: String,
    },
}

impl core::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AnalysisError::Io { detail } => write!(f, "i/o error: {detail}"),
            AnalysisError::Malformed { detail } => write!(f, "malformed capture: {detail}"),
            AnalysisError::Salvaged { report } => write!(
                f,
                "damaged capture ({report}); rerun with --degrade=salvage to recover"
            ),
            AnalysisError::Timeout { limit_ms } => {
                write!(f, "analysis timed out after {limit_ms} ms")
            }
            AnalysisError::Panicked { message } => write!(f, "analyzer panic: {message}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl AnalysisError {
    /// `true` for a malformed capture, the failure that aborts a
    /// [`DegradePolicy::Strict`] run.
    pub fn is_malformed(&self) -> bool {
        matches!(
            self,
            AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. }
        )
    }

    /// Stable failure-class name used in metrics counters and audit
    /// outcomes (`failed.io`, `failed.malformed`, …).
    pub fn class(&self) -> &'static str {
        match self {
            AnalysisError::Io { .. } => "io",
            AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. } => "malformed",
            AnalysisError::Timeout { .. } => "timeout",
            AnalysisError::Panicked { .. } => "panic",
        }
    }
}

/// What happened to one corpus item; `T` is what the item step made of
/// the trace ([`ItemSummary`] for the census).
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<T = ItemSummary> {
    /// Analyzed successfully from an undamaged trace.
    Analyzed(T),
    /// The capture was damaged; the salvaged records were analyzed and
    /// the degradation is accounted in `report`.
    Salvaged {
        /// Conclusions from the recovered records.
        summary: T,
        /// The ingest ledger: bytes skipped, damage classes, offsets.
        report: IngestReport,
    },
    /// No analysis was produced.
    Failed(AnalysisError),
}

impl<T> ItemOutcome<T> {
    /// `true` when the item produced an analysis (possibly degraded).
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            ItemOutcome::Analyzed(_) | ItemOutcome::Salvaged { .. }
        )
    }

    /// Stable outcome name used in metrics counters and audit trails:
    /// `analyzed`, `salvaged`, or `failed.<class>`.
    pub fn name(&self) -> String {
        match self {
            ItemOutcome::Analyzed(_) => "analyzed".into(),
            ItemOutcome::Salvaged { .. } => "salvaged".into(),
            ItemOutcome::Failed(e) => format!("failed.{}", e.class()),
        }
    }

    /// Bumps the corpus-level counters this outcome contributes to.
    /// Sums are order-independent, so the resulting metrics are
    /// deterministic whatever the worker count.
    fn count_into_metrics(&self) {
        tcpa_obs::add("corpus.items_total", 1);
        match self {
            ItemOutcome::Analyzed(_) => tcpa_obs::add("corpus.analyzed", 1),
            ItemOutcome::Salvaged { report, .. } => {
                tcpa_obs::add("corpus.salvaged", 1);
                tcpa_obs::add("corpus.salvage.bytes_skipped", report.bytes_skipped);
                tcpa_obs::add("corpus.salvage.damage_regions", report.damage.len() as u64);
            }
            ItemOutcome::Failed(e) => {
                tcpa_obs::add(
                    match e {
                        AnalysisError::Io { .. } => "corpus.failed.io",
                        AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. } => {
                            "corpus.failed.malformed"
                        }
                        AnalysisError::Timeout { .. } => "corpus.failed.timeout",
                        AnalysisError::Panicked { .. } => "corpus.failed.panic",
                    },
                    1,
                );
            }
        }
    }

    /// The progress-meter classification of this outcome.
    fn progress_class(&self) -> ItemClass {
        match self {
            ItemOutcome::Analyzed(_) => ItemClass::Analyzed,
            ItemOutcome::Salvaged { .. } => ItemClass::Salvaged,
            ItemOutcome::Failed(_) => ItemClass::Failed,
        }
    }
}

/// Per-item result, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemReport<T = ItemSummary> {
    /// Position in the corpus (0-based input order).
    pub index: usize,
    /// The item's label (file path or synthetic name).
    pub id: String,
    /// What happened.
    pub outcome: ItemOutcome<T>,
}

/// The distilled per-trace conclusions kept by the census: the part
/// Table 1 needs. The census runs no stage but each connection's
/// [`CensusVerdict`], for which a candidate is replayed only until it is
/// settled whether it fits closely
/// ([`Calibrated::census`](crate::calibrate::Calibrated::census)). The
/// summary is the same as the full report's.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemSummary {
    /// Packets in the trace.
    pub records: usize,
    /// Connections found after calibration.
    pub connections: usize,
    /// Per connection: the close best-fit implementation (lowest mean
    /// response delay, the earlier profile on a tie), if any.
    pub best_fits: Vec<Option<&'static str>>,
    /// Measurement duplicates removed (§3.1.2).
    pub duplicates: usize,
    /// Timestamp decreases (§3.1.4).
    pub time_travel: usize,
    /// Filter resequencing evidence (§3.1.3).
    pub resequencing: usize,
    /// Packet-filter drop evidence (§3.1.1).
    pub drop_evidence: usize,
    /// Response-delay samples of each connection's best-fit candidate.
    pub response_delays: Vec<Duration>,
}

impl ItemSummary {
    /// `true` when calibration flagged any measurement error.
    pub fn has_calibration_errors(&self) -> bool {
        self.duplicates + self.time_travel + self.resequencing + self.drop_evidence > 0
    }
}

/// Distills the census's verdicts and calibration counts into the
/// trace's summary. Only the verdicts' `best` is read here.
fn distill(verdicts: Vec<CensusVerdict>, cal: &CalibrationReport, records: usize) -> ItemSummary {
    let mut response_delays = Vec::new();
    for top in verdicts.iter().filter_map(|v| v.best.as_ref()) {
        response_delays.extend_from_slice(top.analysis.response_delays.samples());
    }
    ItemSummary {
        records,
        connections: verdicts.len(),
        best_fits: verdicts
            .iter()
            .map(|v| v.best.as_ref().map(|top| top.name))
            .collect(),
        duplicates: cal.duplicates.len(),
        time_travel: cal.time_travel.len(),
        resequencing: cal.resequencing.len(),
        drop_evidence: cal.drop_evidence.len(),
        response_delays,
    }
}

/// Aggregated, order-independent corpus conclusions.
#[derive(Debug, Clone, Default)]
pub struct Census {
    /// Items fed in.
    pub items_total: usize,
    /// Items analyzed successfully from undamaged traces.
    pub analyzed: usize,
    /// Items analyzed from salvaged (damaged) captures.
    pub salvaged: usize,
    /// Items whose bytes could not be read (after retries).
    pub io_errors: usize,
    /// Items with malformed or policy-refused damaged captures.
    pub malformed: usize,
    /// Items whose analysis exceeded the wall-clock budget.
    pub timeouts: usize,
    /// Items that panicked the analyzer.
    pub panics: usize,
    /// Bytes skipped as damaged across all salvaged items.
    pub bytes_skipped: u64,
    /// Damaged regions across all salvaged items.
    pub damage_regions: usize,
    /// Connections across all successfully analyzed traces.
    pub connections: usize,
    /// Packets across all successfully analyzed traces.
    pub records: u64,
    /// Close best-fit counts per implementation name (Table 1's census).
    pub best_fit: BTreeMap<&'static str, usize>,
    /// Connections with no close-fitting candidate.
    pub unidentified: usize,
    /// Measurement duplicates removed, summed.
    pub duplicates: usize,
    /// Time-travel instances, summed.
    pub time_travel: usize,
    /// Resequencing evidence, summed.
    pub resequencing: usize,
    /// Filter-drop evidence, summed.
    pub drop_evidence: usize,
    /// Traces with at least one calibration finding.
    pub traces_with_calibration_errors: usize,
    /// Best-fit response delays pooled across the corpus.
    pub response_delays: Summary,
}

impl Census {
    fn absorb_summary(&mut self, s: &ItemSummary) {
        self.connections += s.connections;
        self.records += s.records as u64;
        for fit in &s.best_fits {
            match fit {
                Some(name) => *self.best_fit.entry(name).or_insert(0) += 1,
                None => self.unidentified += 1,
            }
        }
        self.duplicates += s.duplicates;
        self.time_travel += s.time_travel;
        self.resequencing += s.resequencing;
        self.drop_evidence += s.drop_evidence;
        if s.has_calibration_errors() {
            self.traces_with_calibration_errors += 1;
        }
        for &d in &s.response_delays {
            self.response_delays.add(d);
        }
    }

    fn absorb(&mut self, report: &ItemReport) {
        self.items_total += 1;
        match &report.outcome {
            ItemOutcome::Analyzed(s) => {
                self.analyzed += 1;
                self.absorb_summary(s);
            }
            ItemOutcome::Salvaged { summary, report } => {
                self.salvaged += 1;
                self.bytes_skipped += report.bytes_skipped;
                self.damage_regions += report.damage.len();
                self.absorb_summary(summary);
            }
            ItemOutcome::Failed(e) => match e {
                AnalysisError::Io { .. } => self.io_errors += 1,
                AnalysisError::Malformed { .. } | AnalysisError::Salvaged { .. } => {
                    self.malformed += 1
                }
                AnalysisError::Timeout { .. } => self.timeouts += 1,
                AnalysisError::Panicked { .. } => self.panics += 1,
            },
        }
    }

    /// Items that did not produce an analysis.
    pub fn failed(&self) -> usize {
        self.io_errors + self.malformed + self.timeouts + self.panics
    }
}

/// Everything a corpus run yields: ordered per-item reports + the census.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// One entry per input item that was processed, ordered by input
    /// index regardless of which worker finished when. Under
    /// [`DegradePolicy::Strict`] an abort leaves later items unprocessed.
    pub items: Vec<ItemReport>,
    /// The merged census.
    pub census: Census,
    /// `true` when a strict-policy run aborted on a malformed capture
    /// before draining the source.
    pub aborted: bool,
}

impl CorpusReport {
    /// The lowest-index failed item, if any (under strict policy, the
    /// malformed capture that stopped the run).
    pub fn first_failure(&self) -> Option<&ItemReport> {
        self.items.iter().find(|r| !r.outcome.is_success())
    }

    /// Renders the Table-1-style census plus a failure list. Deterministic:
    /// identical corpora yield byte-identical output whatever `jobs` was.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.census;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Corpus census: {} traces ({} analyzed, {} salvaged, {} failed) ==",
            c.items_total,
            c.analyzed,
            c.salvaged,
            c.failed()
        );
        if self.aborted {
            let _ = writeln!(out, "  RUN ABORTED (strict mode, malformed capture)");
        }
        let _ = writeln!(
            out,
            "  connections: {}   packets: {}",
            c.connections, c.records
        );
        let _ = writeln!(
            out,
            "  calibration: {} dup records removed, {} time travel, {} reseq, {} filter-drop evidence ({} traces affected)",
            c.duplicates, c.time_travel, c.resequencing, c.drop_evidence,
            c.traces_with_calibration_errors
        );
        if c.salvaged > 0 {
            let _ = writeln!(
                out,
                "  salvage: {} traces degraded, {} damaged regions, {} bytes skipped",
                c.salvaged, c.damage_regions, c.bytes_skipped
            );
        }
        if c.failed() > 0 {
            let _ = writeln!(
                out,
                "  failures: {} i/o, {} malformed, {} timeout, {} panic",
                c.io_errors, c.malformed, c.timeouts, c.panics
            );
        }
        let delays = &c.response_delays;
        if let (Some(p50), Some(p90), Some(max)) =
            (delays.median(), delays.percentile(90.0), delays.max())
        {
            let _ = writeln!(
                out,
                "  best-fit response delays: p50 {} p90 {} max {} ({} samples)",
                p50,
                p90,
                max,
                delays.count()
            );
        }
        let _ = writeln!(out, "  {:<26} best-fit connections", "implementation");
        let _ = writeln!(out, "  {}", "-".repeat(46));
        for (name, count) in &c.best_fit {
            let _ = writeln!(out, "  {name:<26} {count}");
        }
        if c.unidentified > 0 {
            let _ = writeln!(out, "  {:<26} {}", "(no close fit)", c.unidentified);
        }
        let failures: Vec<(&ItemReport, String)> = self
            .items
            .iter()
            .filter_map(|r| match &r.outcome {
                ItemOutcome::Failed(e) => Some((r, e.to_string())),
                _ => None,
            })
            .collect();
        if !failures.is_empty() {
            let _ = writeln!(out, "  failed items:");
            for (r, what) in failures {
                let _ = writeln!(out, "    [{:>4}] {}: {}", r.index, r.id, what);
            }
        }
        out
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The census step: calibrates one loaded trace, reads its census
/// verdicts, distills them, and records the verdict as an item event, in
/// stage spans chained from `stage.dedup` to `stage.distill`. The trace's
/// records move into the calibration's connections, freed in the last.
fn analyze_one(analyzer: &Analyzer, _id: &str, loaded: Loaded) -> ItemSummary {
    let records = loaded.trace.len();
    let (calibrated, span) = analyzer.calibrate_open(loaded.trace);
    let (verdicts, span) = calibrated.census(span);
    // The last stage states the verdict, so the stages span the item. It
    // is the trace's stage, so it drops the last connection's key.
    let mut span = span.then("stage.distill");
    span.note(String::new());
    let summary = distill(verdicts, &calibrated.report, records);
    drop(calibrated);
    tcpa_obs::event(EventKind::Verdict, "summary", summarize(&summary));
    drop(span);
    summary
}

/// Loads one item through `load` under the policy's load mode, retrying
/// transient I/O errors with exponential backoff. A malformed capture
/// under a non-salvage policy is probed with a salvage read so the error
/// can say what degradation would have recovered.
fn load_item(
    degrade: DegradePolicy,
    mut load: impl FnMut(LoadMode) -> Result<Loaded, LoadError>,
) -> Result<Loaded, AnalysisError> {
    let mode = match degrade {
        DegradePolicy::Salvage => LoadMode::Salvage,
        DegradePolicy::Strict | DegradePolicy::Skip => LoadMode::Strict,
    };
    let mut attempt = 0u32;
    loop {
        match load(mode) {
            Ok(loaded) => return Ok(loaded),
            Err(e) if e.is_transient() && attempt < IO_RETRIES => {
                tcpa_obs::add("corpus.io_retries", 1);
                tcpa_obs::event(
                    EventKind::Retry,
                    "retry",
                    format!("attempt {}: {e}", attempt + 1),
                );
                thread::sleep(RETRY_BACKOFF * 2u32.saturating_pow(attempt));
                attempt += 1;
            }
            Err(LoadError::Io { detail, .. }) => return Err(AnalysisError::Io { detail }),
            Err(LoadError::Malformed { detail }) => {
                // What would salvage have recovered? (Damaged files only,
                // so the extra read is off the common path.)
                let probe = load(LoadMode::Salvage).ok().and_then(|l| l.salvage);
                return Err(match probe {
                    Some(report) if report.records > 0 => AnalysisError::Salvaged { report },
                    _ => AnalysisError::Malformed { detail },
                });
            }
        }
    }
}

/// One line of verdict detail for the audit trail.
fn summarize(s: &ItemSummary) -> String {
    let fits: Vec<&str> = s
        .best_fits
        .iter()
        .map(|f| f.unwrap_or("(no close fit)"))
        .collect();
    format!(
        "{} records, {} connections, best fits [{}], calibration findings {}",
        s.records,
        s.connections,
        fits.join(", "),
        s.duplicates + s.time_travel + s.resequencing + s.drop_evidence,
    )
}

/// Loads one item through `load` (see [`load_item`]) and runs `step` on
/// it under the `analyze.total` span, converting every failure mode —
/// panic, I/O, malformed bytes, timeout — into a reported outcome. Load
/// and step share one panic guard, so a poisoned item costs one item,
/// not the worker. When `config.timeout` is set, a deadline is armed
/// around the step alone; it unwinds out of the step at the first span
/// started after it has passed, and that unwind is reported as
/// [`AnalysisError::Timeout`], any other as [`AnalysisError::Panicked`].
/// When `config.audit_dir` is set, the item's whole trip is recorded
/// into an audit trail (returned sealed, for the worker to write out).
fn process_item<T>(
    config: &CorpusConfig,
    step: &impl Fn(&Analyzer, &str, Loaded) -> T,
    index: usize,
    id: &str,
    load: impl FnMut(LoadMode) -> Result<Loaded, LoadError>,
) -> (ItemOutcome<T>, Option<AuditTrail>) {
    tcpa_obs::begin_item(id, index as u64, config.audit_dir.is_some());
    let outcome = {
        // The item's root span: every stage span and fault event below
        // parents under it.
        let mut root = tcpa_obs::span("corpus.item");
        root.note(id);
        let analyzer = Analyzer {
            vantage: config.vantage,
        };
        let analyzed = catch_unwind(AssertUnwindSafe(|| {
            let loaded = load_item(config.degrade, load)?;
            // The step prints the ingest ledger of a clean or damaged
            // capture alike, so only a damaged one's is copied out.
            let damage = loaded.salvage.as_ref().filter(|r| !r.is_clean()).cloned();
            let _deadline = config.timeout.map(tcpa_obs::deadline::arm);
            let _total = tcpa_obs::span("analyze.total");
            Ok((step(&analyzer, id, loaded), damage))
        }));
        let outcome = match analyzed {
            Ok(Ok((summary, Some(report)))) => ItemOutcome::Salvaged { summary, report },
            Ok(Ok((summary, None))) => ItemOutcome::Analyzed(summary),
            Ok(Err(e)) => ItemOutcome::Failed(e),
            Err(payload) => ItemOutcome::Failed(match config.timeout {
                Some(limit) if tcpa_obs::deadline::is_expiry(&*payload) => AnalysisError::Timeout {
                    limit_ms: limit.as_millis() as u64,
                },
                _ => AnalysisError::Panicked {
                    message: panic_message(payload),
                },
            }),
        };
        match &outcome {
            ItemOutcome::Salvaged { report, .. } => {
                tcpa_obs::event(EventKind::Info, "salvage", report.to_string());
            }
            ItemOutcome::Failed(e) => {
                tcpa_obs::event(EventKind::Error, e.class(), e.to_string());
            }
            ItemOutcome::Analyzed(_) => {}
        }
        outcome
    };
    let trail = tcpa_obs::end_item(&outcome.name());
    (outcome, trail)
}

/// The corpus item lifecycle, shared by the census and the CLI's
/// per-trace reports. `config.effective_jobs()` workers, but no more than
/// there are items, claim items in input order through one shared index,
/// load each one under the degrade policy, run `step` on it under the
/// `analyze.total` span with panic isolation and the optional deadline,
/// count and audit the outcome, and hand it to `emit`. Every item runs
/// start to finish on the worker that claimed it.
///
/// `step` gets an [`Analyzer`] for `config.vantage`, the item's label and
/// the loaded trace, which it owns, so its own stages can free it. `emit`
/// sees items in completion order, which is input order at one worker.
/// Workers stop claiming items once `emit`
/// returns `false`, and under [`DegradePolicy::Strict`] once a malformed
/// capture has been seen; items already claimed still reach `emit`.
pub fn run_corpus<T: Send>(
    source: MemorySource,
    config: &CorpusConfig,
    step: impl Fn(&Analyzer, &str, Loaded) -> T + Send + Sync,
    emit: impl FnMut(ItemReport<T>) -> bool + Send,
) {
    // Declare the counters a healthy run never touches, so a metrics
    // document carries the full vocabulary with stable zeros.
    for name in [
        "corpus.io_retries",
        "corpus.failed.io",
        "corpus.failed.malformed",
        "corpus.failed.timeout",
        "corpus.failed.panic",
        "corpus.salvaged",
        "corpus.salvage.bytes_skipped",
        "corpus.salvage.damage_regions",
        "corpus.audit.write_errors",
    ] {
        tcpa_obs::registry::global().declare(name);
    }
    let items = source.into_items();
    let jobs = config.effective_jobs().min(items.len()).max(1);
    let progress = config.progress.then(|| Progress::start(items.len()));
    let next = AtomicUsize::new(0);
    let emit = Mutex::new(emit);
    let stop = AtomicBool::new(false);
    let work = |worker: usize| {
        tcpa_obs::trace::set_lane(&format!("worker-{worker}"));
        while !stop.load(Ordering::Relaxed) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(CorpusItem { id, input }) = items.get(index) else {
                break;
            };
            let (outcome, trail) =
                process_item(config, &step, index, id, |mode| input.load_mode(mode));
            outcome.count_into_metrics();
            if let (Some(trail), Some(dir)) = (trail, config.audit_dir.as_deref()) {
                if let Err(e) = trail.write_to(dir) {
                    tcpa_obs::add("corpus.audit.write_errors", 1);
                    tcpa_obs::log::warn(&format!(
                        "audit trail for {} not written: {e}",
                        trail.trace_id
                    ));
                }
            }
            if let Some(meter) = &progress {
                meter.observe(outcome.progress_class());
            }
            if let ItemOutcome::Failed(e) = &outcome {
                if config.degrade == DegradePolicy::Strict && e.is_malformed() {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            let report = ItemReport {
                index,
                id: id.clone(),
                outcome,
            };
            let mut emit = emit.lock().unwrap_or_else(PoisonError::into_inner);
            if !(*emit)(report) {
                stop.store(true, Ordering::Relaxed);
            }
        }
    };
    // One worker runs on the calling thread; more run on scoped threads.
    if jobs == 1 {
        work(0);
    } else {
        thread::scope(|scope| {
            for worker in 0..jobs {
                let work = &work;
                scope.spawn(move || work(worker));
            }
        });
    }
    if let Some(meter) = progress {
        meter.finish();
    }
}

/// Runs the corpus through `config.effective_jobs()` workers (see
/// [`run_corpus`]) and merges the results deterministically.
///
/// Items are put back in input order, so the returned [`CorpusReport`] —
/// and its rendering — is byte-identical to a `jobs = 1` run. Under
/// [`DegradePolicy::Strict`] the first malformed capture stops the run
/// and the report is marked [`CorpusReport::aborted`].
pub fn analyze_corpus(source: MemorySource, config: &CorpusConfig) -> CorpusReport {
    let mut items = Vec::new();
    run_corpus(source, config, analyze_one, |item| {
        items.push(item);
        true
    });
    items.sort_unstable_by_key(|r| r.index);
    let mut census = Census::default();
    for report in &items {
        census.absorb(report);
    }
    let aborted = config.degrade == DegradePolicy::Strict
        && items
            .iter()
            .any(|r| matches!(&r.outcome, ItemOutcome::Failed(e) if e.is_malformed()));
    CorpusReport {
        items,
        census,
        aborted,
    }
}

#[cfg(test)]
#[path = "../tests/support/obs_docs.rs"]
mod obs_docs;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;
    use tcpa_trace::source::load_capture;
    use tcpa_trace::Trace;

    /// A load attempt whose first `failures` calls fail with a transient
    /// I/O error before an empty trace loads.
    fn flaky(mut failures: u32) -> impl FnMut(LoadMode) -> Result<Loaded, LoadError> {
        move |_| match failures.checked_sub(1) {
            Some(rest) => {
                failures = rest;
                Err(LoadError::Io {
                    kind: ErrorKind::Interrupted,
                    detail: "injected transient i/o failure".into(),
                })
            }
            None => Ok(Loaded {
                trace: Trace::new(),
                skipped: 0,
                salvage: None,
            }),
        }
    }

    /// A Reno sender trace of `bytes` bulk data, as capture bytes.
    fn capture(bytes: u64, seed: u64) -> Vec<u8> {
        use tcpa_tcpsim::harness::{run_transfer, PathSpec};
        let reno = tcpa_tcpsim::profiles::reno;
        let trace = run_transfer(reno(), reno(), &PathSpec::default(), bytes, seed).sender_trace();
        tcpa_trace::pcap_io::write_pcap(&trace, Vec::new(), tcpa_wire::TsResolution::Micro, 0)
            .expect("vec write")
    }

    fn config(jobs: usize) -> CorpusConfig {
        CorpusConfig {
            jobs,
            ..CorpusConfig::default()
        }
    }

    #[test]
    fn empty_corpus_renders() {
        let report = analyze_corpus(MemorySource::default(), &CorpusConfig::default());
        assert_eq!(report.census.items_total, 0);
        assert!(!report.aborted);
        assert!(report.render().contains("0 traces"));
    }

    #[test]
    fn effective_jobs_defaults_to_parallelism() {
        assert!(CorpusConfig::default().effective_jobs() >= 1);
        assert_eq!(config(1).effective_jobs(), 1);
    }

    #[test]
    fn load_error_is_isolated_and_typed() {
        let source = MemorySource::new(vec![CorpusItem::pcap("/nonexistent/never.pcap")]);
        let report = analyze_corpus(source, &CorpusConfig::default());
        assert_eq!(report.census.io_errors, 1);
        assert!(matches!(
            report.items[0].outcome,
            ItemOutcome::Failed(AnalysisError::Io { .. })
        ));
        assert!(report.render().contains("i/o error"));
        assert!(
            report.render().contains("never.pcap"),
            "failure line must name the originating path"
        );
    }

    #[test]
    fn transient_io_errors_retry_and_count() {
        let before = tcpa_obs::registry::global().snapshot();
        let (outcome, _) = process_item(&config(1), &analyze_one, 0, "flaky.pcap", flaky(2));
        assert!(matches!(outcome, ItemOutcome::Analyzed(_)), "{outcome:?}");
        let after = tcpa_obs::registry::global().snapshot().since(&before);
        assert!(
            after
                .counters
                .get("corpus.io_retries")
                .copied()
                .unwrap_or(0)
                >= 2,
            "both injected failures must be counted as retries"
        );
        // One failure more than the retries allow fails the item.
        let (outcome, _) = process_item(&config(1), &analyze_one, 0, "flaky.pcap", flaky(3));
        assert!(
            matches!(&outcome, ItemOutcome::Failed(AnalysisError::Io { detail }) if detail.contains("injected")),
            "{outcome:?}"
        );
    }

    /// A capture reader that fails with `kind` once `fail_at` bytes have
    /// been read.
    struct CutOff<'a> {
        bytes: &'a [u8],
        read: usize,
        fail_at: usize,
        kind: ErrorKind,
    }

    impl std::io::Read for CutOff<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.read >= self.fail_at {
                return Err(std::io::Error::new(self.kind, "injected read failure"));
            }
            let end = self.fail_at.min(self.bytes.len());
            let n = (end - self.read).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.read..self.read + n]);
            self.read += n;
            Ok(n)
        }
    }

    /// A load attempt streaming a capture whose first read fails half-way
    /// with `kind`; later attempts read it whole.
    fn cut_off_once(kind: ErrorKind) -> impl FnMut(LoadMode) -> Result<Loaded, LoadError> {
        let bytes = capture(16 * 1024, 1);
        let mut first = true;
        move |mode| {
            let fail_at = if std::mem::take(&mut first) {
                bytes.len() / 2
            } else {
                usize::MAX
            };
            let input = CutOff {
                bytes: &bytes,
                read: 0,
                fail_at,
                kind,
            };
            let capture = tcpa_wire::pcap::Capture::stream(input, None);
            load_capture(capture, mode, &"cut-off.pcap")
        }
    }

    #[test]
    fn mid_stream_io_errors_keep_their_kind_and_transient_ones_retry() {
        let (outcome, _) = process_item(
            &config(1),
            &analyze_one,
            0,
            "cut-off.pcap",
            cut_off_once(ErrorKind::TimedOut),
        );
        assert!(matches!(outcome, ItemOutcome::Analyzed(_)), "{outcome:?}");
        let (outcome, _) = process_item(
            &config(1),
            &analyze_one,
            0,
            "cut-off.pcap",
            cut_off_once(ErrorKind::ConnectionReset),
        );
        match &outcome {
            ItemOutcome::Failed(AnalysisError::Io { detail }) => {
                assert!(detail.contains("cut-off.pcap"), "{detail}")
            }
            other => panic!("expected an i/o failure, got {other:?}"),
        }
    }

    #[test]
    fn a_panicking_load_costs_one_item() {
        let (outcome, _) = process_item(&config(1), &analyze_one, 0, "poisoned", |_| {
            panic!("poisoned corpus item loaded")
        });
        assert!(
            matches!(&outcome, ItemOutcome::Failed(AnalysisError::Panicked { message }) if message.contains("poisoned corpus item")),
            "{outcome:?}"
        );
    }

    #[test]
    fn audit_trail_records_retries_and_outcome() {
        // `process_item` only records the trail; the worker writes it.
        let config = CorpusConfig {
            audit_dir: Some("unwritten".into()),
            ..config(1)
        };
        let (_, trail) = process_item(&config, &analyze_one, 0, "flaky.pcap", flaky(1));
        let flaky = trail.expect("audit trail requested").to_json().to_owned();
        super::obs_docs::validate_audit(&flaky).expect("schema-valid trail");
        assert!(flaky.contains("\"kind\": \"retry\""), "{flaky}");
        assert!(flaky.contains("\"outcome\": \"analyzed\""), "{flaky}");
        assert!(flaky.contains("\"kind\": \"verdict\""), "{flaky}");

        let never = CorpusItem::pcap("/nonexistent/never.pcap");
        let (_, trail) = process_item(&config, &analyze_one, 1, &never.id, |mode| {
            never.input.load_mode(mode)
        });
        let failed = trail.expect("audit trail requested").to_json().to_owned();
        super::obs_docs::validate_audit(&failed).expect("schema-valid trail");
        assert!(failed.contains("\"outcome\": \"failed.io\""), "{failed}");
        assert!(failed.contains("\"kind\": \"error\""), "{failed}");
    }

    /// At one worker, a strict run stops claiming after the first
    /// malformed capture: the items before it and it are reported.
    #[test]
    fn strict_run_stops_claiming_after_the_malformed_item() {
        let clean = |i: u64| CorpusItem::pcap_bytes(format!("c{i}"), capture(4 * 1024, 70 + i));
        let damaged = tcpa_trace::mangle::inject(
            &capture(4 * 1024, 80),
            tcpa_trace::FaultKind::GarbageSplice,
            0xdead,
        )
        .expect("injectable")
        .0;
        let items = vec![
            clean(0),
            CorpusItem::pcap_bytes("damaged", damaged),
            clean(2),
            clean(3),
        ];
        let strict = CorpusConfig {
            degrade: DegradePolicy::Strict,
            ..config(1)
        };
        let report = analyze_corpus(MemorySource::new(items), &strict);
        assert!(report.aborted);
        let ids: Vec<&str> = report.items.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["c0", "damaged"], "{}", report.render());
        assert_eq!(report.items[1].outcome.name(), "failed.malformed");
    }

    /// At one worker, once `emit` refuses item `k` no further item is
    /// claimed: exactly `k + 1` items are reported.
    #[test]
    fn emit_refusal_stops_claiming_after_that_item() {
        for k in 0..4 {
            let items = (0..4)
                .map(|i| CorpusItem::memory(format!("m{i}"), Trace::new()))
                .collect();
            let mut seen = Vec::new();
            run_corpus(
                MemorySource::new(items),
                &config(1),
                |_: &Analyzer, _: &str, loaded: Loaded| loaded.trace.len(),
                |report| {
                    seen.push(report.index);
                    report.index != k
                },
            );
            assert_eq!(seen, (0..=k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn degrade_policy_parses_and_prints() {
        for policy in [
            DegradePolicy::Strict,
            DegradePolicy::Salvage,
            DegradePolicy::Skip,
        ] {
            assert_eq!(policy.name().parse::<DegradePolicy>(), Ok(policy));
        }
        assert!("lenient".parse::<DegradePolicy>().is_err());
        assert_eq!(DegradePolicy::default(), DegradePolicy::Skip);
    }
}
