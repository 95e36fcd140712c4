//! Scenario builders — one per table/figure of the paper (DESIGN.md §5).

pub mod ablation;
pub mod calibration;
pub mod conformance;
pub mod corpus;
pub mod figures;
pub mod fingerprints;
pub mod policy;
pub mod robustness;
pub mod scaling;
pub mod static_analysis;
pub mod table1;
pub mod variants;

use crate::Section;

/// A scenario builder function, keyed by its stable slug in [`entries`].
pub type ScenarioFn = fn() -> Section;

/// Every scenario in paper order, as `(slug, builder)` pairs. The slug
/// is the stable key `repro_all` uses to label stage-timing rows in
/// `BENCH_stage_timings.json`.
pub fn entries() -> Vec<(&'static str, ScenarioFn)> {
    vec![
        ("table1", table1::run as ScenarioFn),
        ("fig1", figures::fig1),
        ("fig2", figures::fig2),
        ("fig3", figures::fig3),
        ("fig4", figures::fig4),
        ("fig5", figures::fig5),
        ("calibration_drops", calibration::drops),
        ("calibration_resequencing", calibration::resequencing),
        ("calibration_time_travel", calibration::time_travel),
        ("calibration_quench", calibration::quench),
        ("fingerprint_confusion", fingerprints::confusion_matrix),
        ("ack_policy", policy::ack_policy),
        ("response_delay", policy::response_delay),
        ("variants", variants::run),
        ("conformance", conformance::run),
        ("ablation", ablation::run),
        ("corpus", corpus::run),
        ("robustness", robustness::run),
        ("scaling", scaling::run),
        ("static_analysis", static_analysis::run),
    ]
}
