//! The reproduction's evidence comes from the pipeline `tcpanaly` ships:
//! each trace a scenario analyzes is calibrated once by
//! `Analyzer::calibrate`, which records one `stage.calibrate` span into
//! the global registry. A scenario that split or replayed its traces on
//! a private path would record none.
//!
//! This binary holds one test, so no other test records into the
//! registry while it counts.

use tcpa_bench::scenarios::{figures, fingerprints, variants};
use tcpanaly::obs;

#[test]
fn scenarios_calibrate_every_trace_they_analyze() {
    // One trace per generator of the 5×5 §6.1 matrix, one for Figure 2,
    // and one per §8.3 variant.
    let traces = 5 + 1 + 6;
    let before = obs::registry::global().snapshot();
    fingerprints::confusion_matrix();
    figures::fig2();
    variants::run();
    let delta = obs::registry::global().snapshot().since(&before);
    let calibrations = delta.stages.get("stage.calibrate").map_or(0, |h| h.count());
    assert!(
        calibrations >= traces,
        "{calibrations} stage.calibrate spans for {traces} analyzed traces"
    );
}
