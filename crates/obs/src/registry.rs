//! The process-wide metrics registry: named counters and duration
//! histograms behind mutexes.
//!
//! Metric names are `&'static str` on purpose: the set of stages and
//! counters is a closed, code-defined vocabulary (dynamic labels would
//! make the exposition schema unstable). Counters are plain sums and
//! histograms merge by bucket addition, so a snapshot's deterministic
//! part is identical whatever the worker count or completion order.

use crate::hist::LogHistogram;
use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// A set of named counters and duration histograms.
///
/// Most callers use the process-wide [`global`] instance; tests that
/// need isolation can construct their own.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    durations: Mutex<BTreeMap<&'static str, LogHistogram>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            durations: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `n` to the counter `name` (creating it at 0).
    pub fn add(&self, name: &'static str, n: u64) {
        let mut counters = lock_recover(&self.counters);
        *counters.entry(name).or_insert(0) += n;
    }

    /// Ensures the counter `name` exists (at 0) so rarely-hit counters
    /// still appear in every exposition with a stable value.
    pub fn declare(&self, name: &'static str) {
        let mut counters = lock_recover(&self.counters);
        counters.entry(name).or_insert(0);
    }

    /// Records a duration into the histogram `name`.
    pub fn record(&self, name: &'static str, duration: Duration) {
        self.record_all([(name, crate::span::nanos(duration))]);
    }

    /// Records `(histogram, nanoseconds)` durations under one lock.
    pub(crate) fn record_all(&self, durations: impl IntoIterator<Item = (&'static str, u64)>) {
        let mut histograms = lock_recover(&self.durations);
        for (name, nanos) in durations {
            histograms.entry(name).or_default().record(nanos);
        }
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock_recover(&self.counters).clone(),
            stages: lock_recover(&self.durations).clone(),
        }
    }
}

/// Locks a mutex, recovering from poisoning: observability must never
/// cascade a panic from an unrelated thread.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry every span and counter hook records into.
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_declare_is_zero() {
        let r = Registry::new();
        r.add("x", 2);
        r.add("x", 3);
        r.declare("y");
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("x"), Some(&5));
        assert_eq!(snap.counters.get("y"), Some(&0));
        assert_eq!(snap.counters.get("never"), None);
    }

    #[test]
    fn durations_land_in_histograms() {
        let r = Registry::new();
        r.record("stage.a", Duration::from_nanos(100));
        r.record("stage.a", Duration::from_nanos(200));
        let snap = r.snapshot();
        let h = snap.stages.get("stage.a").expect("histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 300);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let r = std::sync::Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counters.get("n"), Some(&8000));
    }
}
