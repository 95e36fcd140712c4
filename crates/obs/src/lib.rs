#![warn(missing_docs)]

//! `tcpa-obs` — the workspace's observability layer.
//!
//! The paper's tcpanaly "shows its work": every verdict comes with the
//! calibration findings and replay evidence behind it. The corpus
//! pipeline needs the same property at production scale — where did the
//! wall-clock go, which items were retried or salvaged, what did each
//! stage conclude — without taking on any external crate (CI is
//! offline). This crate provides exactly that around one recorder:
//!
//! * **The item log** ([`mod@span`]) — RAII stage timers ([`Span`]) and
//!   [`event`]s (retries, errors, salvage ledgers, verdicts) append one
//!   [`Entry`] each to the [`ItemLog`] of the corpus item open on this
//!   thread; nothing else is touched per span. That log is the item's one
//!   record. When the item ends ([`end_item`]), it is read in place, never
//!   copied:
//!   * **Metrics** ([`registry`], [`metrics`]) — the stage durations
//!     merge under one lock into a global registry of counters and
//!     log-scale duration histograms. Bucketed histograms merge by
//!     addition, so the exposition (a versioned, stable JSON schema,
//!     `tcpa-metrics/v1`) is byte-identical outside its top-level
//!     `wall_clock` object whatever `--jobs` was. A span outside any
//!     item records into the registry directly.
//!   * **Audit trail** ([`audit`]) — the log rendered as one JSON event
//!     log per analyzed trace (schema `tcpa-audit/v1`) recording each
//!     stage's duration, retries, errors, and the final verdict.
//!   * **Trace** ([`trace`]) — the log moved to the trace sink and
//!     rendered as Chrome `trace_event` JSON: spans as complete events,
//!     the other entries (the audit trail's non-stage events) as
//!     instants.
//! * **Item deadlines** ([`deadline`]) — a per-thread time budget that
//!   span starts check, so an overrunning item unwinds out of its
//!   analysis on its own worker.
//! * **Operator surface** ([`progress`], [`log`]) — a periodic stderr
//!   status line for long corpus runs and a leveled logger, both strictly
//!   on stderr so machine output on stdout never interleaves.
//!
//! Everything is `std`-only; JSON reading/writing lives in [`json`].
//! The crate writes these documents but does not check them: the
//! schema validators, the span-tree checker and the determinism
//! strippers that only tests call are test support of the `tcpanaly`
//! crate (`crates/core/tests/support/obs_docs.rs`).

pub mod audit;
pub mod deadline;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod progress;
pub mod registry;
pub mod span;
pub mod trace;
pub mod write;

pub use audit::AuditTrail;
pub use hist::LogHistogram;
pub use metrics::MetricsSnapshot;
pub use registry::Registry;
pub use span::{begin_item, end_item, event, Entry, EventKind, ItemLog, Span};

/// Starts a stage span; it records when dropped (see [`mod@span`]).
pub fn span(name: &'static str) -> Span {
    Span::start(name)
}

/// Times a closure as a stage span.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = Span::start(name);
    f()
}

/// Adds to a counter in the global registry.
pub fn add(name: &'static str, n: u64) {
    registry::global().add(name, n);
}

/// Serializes the unit tests that open items or drain the process-global
/// trace collector.
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    registry::lock_recover(&LOCK)
}
