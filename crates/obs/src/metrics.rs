//! Metrics exposition — the versioned `tcpa-metrics/v1` JSON schema.
//!
//! The document has exactly two parts:
//!
//! ```json
//! {
//!   "schema": "tcpa-metrics/v1",
//!   "counters": { "<name>": <u64>, ... },
//!   "wall_clock": {
//!     "elapsed_secs": <float>,
//!     "stages": {
//!       "<stage>": { "count": n, "total_ns": ..., "p50_ns": ...,
//!                     "p90_ns": ..., "p99_ns": ..., "max_ns": ... },
//!       ...
//!     },
//!     "stages_summary": { "count": ..., "total_ns": ..., "p50_ns": ...,
//!                          "p90_ns": ..., "p99_ns": ..., "max_ns": ... }
//!   }
//! }
//! ```
//!
//! `stages_summary` pools every `stage.*` histogram (the per-connection
//! pipeline stages; `analyze.*`/`ingest.*`/`detail.*` aggregates are
//! excluded so totals are not double-counted) into one distribution —
//! the operator's "how long does a stage usually take" answer without
//! reading N objects. The field is additive; the schema stays v1.
//!
//! **Determinism contract:** everything *outside* the top-level
//! `wall_clock` member depends only on the corpus and configuration —
//! same input, byte-identical, whatever the worker count. Everything
//! timing-dependent (stage histograms included — their *counts* are
//! deterministic but their bucket contents are wall time) lives under
//! `wall_clock`. The tests compare documents with that member removed
//! (`strip_wall_clock` in `crates/core/tests/support/obs_docs.rs`).

use crate::hist::LogHistogram;
use crate::json::{self, Value};
use std::collections::BTreeMap;

/// The metrics document schema identifier.
pub const METRICS_SCHEMA: &str = "tcpa-metrics/v1";

/// The audit-trail document schema identifier.
pub const AUDIT_SCHEMA: &str = "tcpa-audit/v1";

/// A point-in-time copy of a [`crate::Registry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Stage duration histograms by name.
    pub stages: BTreeMap<&'static str, LogHistogram>,
}

impl MetricsSnapshot {
    /// The difference `self - earlier`, for measuring one phase of a
    /// longer run (both must come from the same registry).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| {
                (
                    k,
                    v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|(&k, h)| match earlier.stages.get(k) {
                Some(prev) => (k, h.since(prev)),
                None => (k, h.clone()),
            })
            .collect();
        MetricsSnapshot { counters, stages }
    }

    /// Sum of recorded nanoseconds across the given stage names.
    pub fn stage_total_ns(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.stages.get(n))
            .map(LogHistogram::sum)
            .sum()
    }

    /// The `wall_clock.stages` object for this snapshot.
    fn stages_object(&self) -> Value {
        Value::Obj(
            self.stages
                .iter()
                .map(|(name, h)| (name.to_string(), hist_object(h)))
                .collect(),
        )
    }

    /// Every `stage.*` histogram pooled into one distribution.
    pub fn stages_summary(&self) -> LogHistogram {
        let mut pooled = LogHistogram::new();
        for (name, h) in &self.stages {
            if name.starts_with("stage.") {
                pooled.merge(h);
            }
        }
        pooled
    }

    /// One human-readable line over the pooled stage distribution, for
    /// `-v` output. Empty when no stages ran.
    pub fn human_summary(&self) -> Option<String> {
        let pooled = self.stages_summary();
        if pooled.count() == 0 {
            return None;
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        Some(format!(
            "stages: {} spans, p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            pooled.count(),
            ms(pooled.percentile(50.0)),
            ms(pooled.percentile(90.0)),
            ms(pooled.percentile(99.0)),
            ms(pooled.max()),
        ))
    }

    /// Renders the full `tcpa-metrics/v1` document. `elapsed_secs` is
    /// the run's wall clock as measured by the caller.
    pub fn to_json(&self, elapsed_secs: f64) -> String {
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str(METRICS_SCHEMA.into())),
            ("counters".into(), json::counters_object(&self.counters)),
            (
                "wall_clock".into(),
                Value::Obj(vec![
                    (
                        "elapsed_secs".into(),
                        Value::Num(format!("{elapsed_secs:.6}")),
                    ),
                    ("stages".into(), self.stages_object()),
                    ("stages_summary".into(), hist_object(&self.stages_summary())),
                ]),
            ),
        ]);
        doc.to_json()
    }
}

/// One histogram as its exposition object.
fn hist_object(h: &LogHistogram) -> Value {
    let num = |v: u64| Value::Num(v.to_string());
    Value::Obj(vec![
        ("count".into(), num(h.count())),
        ("total_ns".into(), num(h.sum())),
        ("p50_ns".into(), num(h.percentile(50.0))),
        ("p90_ns".into(), num(h.percentile(90.0))),
        ("p99_ns".into(), num(h.percentile(99.0))),
        ("max_ns".into(), num(h.max())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::time::Duration;

    fn sample() -> MetricsSnapshot {
        let r = Registry::new();
        r.add("corpus.analyzed", 3);
        r.declare("corpus.io_retries");
        r.record("stage.calibrate", Duration::from_micros(120));
        r.record("stage.calibrate", Duration::from_micros(80));
        r.record("analyze.total", Duration::from_micros(250));
        r.snapshot()
    }

    #[test]
    fn since_isolates_a_phase() {
        let r = Registry::new();
        r.add("n", 1);
        r.record("stage.x", Duration::from_nanos(100));
        let early = r.snapshot();
        r.add("n", 4);
        r.record("stage.x", Duration::from_nanos(900));
        let delta = r.snapshot().since(&early);
        assert_eq!(delta.counters.get("n"), Some(&4));
        let h = delta.stages.get("stage.x").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 900);
    }

    #[test]
    fn stages_summary_pools_stage_histograms_only() {
        let snap = sample();
        let pooled = snap.stages_summary();
        // Two stage.calibrate samples; analyze.total is excluded.
        assert_eq!(pooled.count(), 2);
        assert_eq!(pooled.sum(), 200_000);
        let line = snap.human_summary().expect("stages ran");
        assert!(line.starts_with("stages: 2 spans"), "{line}");
        assert!(line.contains("p99"), "{line}");
        assert!(MetricsSnapshot::default().human_summary().is_none());
    }

    #[test]
    fn stage_total_sums_named_stages() {
        let snap = sample();
        let total = snap.stage_total_ns(&["stage.calibrate", "missing"]);
        assert_eq!(total, 200_000);
    }
}
