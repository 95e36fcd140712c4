//! Trace calibration (§3): finding and coping with measurement error
//! before any behavioral conclusion is drawn.

pub mod drops;
pub mod dups;
pub mod reseq;
pub mod timing;
pub mod vantage;

use tcpa_obs::Span;
use tcpa_trace::{Connection, Trace};

pub use drops::{DropCheck, DropEvidence, Vantage};
pub use dups::DupRemoval;
pub use reseq::ReseqEvidence;
pub use timing::TimeTravel;
pub(crate) use vantage::vote;
pub use vantage::{infer_vantage, VantageInference};

/// Aggregate calibration result for one trace.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// Measurement duplicates found and removed (§3.1.2).
    pub duplicates: Vec<DupRemoval>,
    /// Timestamp decreases (§3.1.4).
    pub time_travel: Vec<TimeTravel>,
    /// Resequencing evidence (§3.1.3).
    pub resequencing: Vec<ReseqEvidence>,
    /// Filter-drop evidence from the self-consistency checks (§3.1.1).
    pub drop_evidence: Vec<DropEvidence>,
}

impl CalibrationReport {
    /// `true` when no measurement error of any kind was detected.
    pub fn is_clean(&self) -> bool {
        self.duplicates.is_empty()
            && self.time_travel.is_empty()
            && self.resequencing.is_empty()
            && self.drop_evidence.is_empty()
    }

    /// `true` when the trace's event *ordering* cannot be trusted for
    /// cause-and-effect analysis (§3.1.3: resequencing "destroys any
    /// ready assessment of cause-and-effect").
    pub fn ordering_untrustworthy(&self) -> bool {
        !self.resequencing.is_empty() || !self.time_travel.is_empty()
    }
}

/// Runs all calibration stages on a trace, returning the *cleaned* trace
/// (duplicates removed) alongside the report. The analyzer calibrates
/// through [`crate::Analyzer::calibrate`] instead, which keeps no cleaned
/// copy.
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// Where the filter sat; gates the vantage-specific drop checks.
    pub vantage: Vantage,
}

impl Calibrator {
    /// Calibrates a trace: removes measurement duplicates, then runs every
    /// detector on the cleaned trace. The calibration consumes a copy of
    /// `trace`, and the cleaned trace returned is a second one.
    pub fn calibrate(&self, trace: &Trace) -> (Trace, CalibrationReport) {
        let (clean, calibrated, _) = calibrate_once(trace.clone(), |_| self.vantage, Trace::clone);
        (clean, calibrated.report)
    }
}

/// A trace calibrated once: the connections of the cleaned trace, the
/// findings, and the vantage the drop checks ran under. The
/// per-connection stages ([`Calibrated::analyze`]) work from these same
/// connections.
#[derive(Debug)]
pub struct Calibrated {
    /// The vantage the drop checks ran under and the analysis assumes.
    pub vantage: Vantage,
    /// The cleaned trace's connections, in first-seen order.
    pub connections: Vec<Connection>,
    /// The calibration findings.
    pub report: CalibrationReport,
}

/// The one calibration sequence, each step once: remove duplicates and
/// detect time travel on the cleaned trace, move its records into their
/// connections, then detect resequencing, settle the vantage from those
/// connections, and run the drop checks under it. Returns what `keep`
/// makes of the cleaned trace, before the split consumes it, beside the
/// result.
///
/// The three steps are contiguous sibling spans — `stage.dedup`,
/// `stage.split`, `stage.calibrate` — so stage durations never count the
/// split twice. The trace's own buffer is freed inside `stage.split`.
/// The `stage.calibrate` span is returned open, for a next stage to chain.
pub(crate) fn calibrate_once<K>(
    trace: Trace,
    vantage: impl FnOnce(&[Connection]) -> Vantage,
    keep: impl FnOnce(&Trace) -> K,
) -> (K, Calibrated, Span) {
    let span = tcpa_obs::span("stage.dedup");
    let (clean, duplicates) = dups::remove_duplicates(trace);
    let time_travel = timing::detect_time_travel(&clean);
    let kept = keep(&clean);
    let span = span.then("stage.split");
    let connections = Connection::split_owned(clean);
    let span = span.then("stage.calibrate");
    let resequencing = connections
        .iter()
        .flat_map(reseq::detect_resequencing)
        .collect();
    let vantage = vantage(&connections);
    let drop_evidence = connections
        .iter()
        .flat_map(|conn| drops::detect_drops(conn, vantage))
        .collect();
    let report = CalibrationReport {
        duplicates,
        time_travel,
        resequencing,
        drop_evidence,
    };
    (
        kept,
        Calibrated {
            vantage,
            connections,
            report,
        },
        span,
    )
}
