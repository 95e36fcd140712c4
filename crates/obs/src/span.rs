//! RAII stage spans.
//!
//! A [`Span`] measures the wall-clock time of one pipeline stage with a
//! monotonic clock. On drop it records the duration into the global
//! registry's histogram for the stage and — when a per-trace audit trail
//! is active on this thread — appends a `stage` event to it. Starting a
//! span is also where an armed item [`crate::deadline`] is checked. This
//! is the only instrumentation call sites need:
//!
//! ```
//! let result = tcpa_obs::time("stage.calibrate", || 2 + 2);
//! assert_eq!(result, 4);
//! ```

use crate::{audit, deadline, registry, trace};
use std::time::Instant;

/// An in-flight stage timer; records on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    detail: String,
    /// Span-tree bookkeeping, present only while tracing is enabled and
    /// an item context is open on this thread.
    traced: Option<trace::OpenSpan>,
}

impl Span {
    /// Starts timing `name` now, first unwinding out of the item if this
    /// thread's deadline has passed.
    pub fn start(name: &'static str) -> Span {
        let start = Instant::now();
        deadline::check(start);
        Span {
            name,
            start,
            detail: String::new(),
            traced: trace::open_span(start),
        }
    }

    /// Attaches a human-readable note carried into the audit event
    /// (ignored by the metrics histogram).
    pub fn note(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// The stage name this span records under.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        registry::global().record(self.name, elapsed);
        if let Some(open) = self.traced.take() {
            trace::close_span(open, self.name, &self.detail);
        }
        audit::stage_event(self.name, elapsed, std::mem::take(&mut self.detail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_global_registry() {
        let before = registry::global().snapshot();
        {
            let mut s = Span::start("stage.test_span");
            s.note("noted");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let after = registry::global().snapshot();
        let h = after.stages.get("stage.test_span").expect("recorded");
        let earlier = before
            .stages
            .get("stage.test_span")
            .map(|h| h.count())
            .unwrap_or(0);
        assert_eq!(h.count(), earlier + 1);
        assert!(h.sum() >= 1_000_000, "slept ≥1ms");
    }
}
