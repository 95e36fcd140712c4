#![warn(missing_docs)]

//! `tcpa-obs` — the workspace's observability layer.
//!
//! The paper's tcpanaly "shows its work": every verdict comes with the
//! calibration findings and replay evidence behind it. The corpus
//! pipeline needs the same property at production scale — where did the
//! wall-clock go, which items were retried or salvaged, what did each
//! stage conclude — without taking on any external crate (CI is
//! offline). This crate provides exactly that, in five always-cheap
//! pieces:
//!
//! * **Stage spans + registry** ([`span`], [`registry`]) — RAII timers
//!   that record into a global, thread-safe registry of counters and
//!   log-scale duration histograms. Bucketed histograms merge by
//!   addition, so the aggregated output is independent of worker count
//!   and completion order.
//! * **Metrics exposition** ([`metrics`]) — a versioned, stable JSON
//!   schema (`tcpa-metrics/v1`). Everything outside the top-level
//!   `wall_clock` object is deterministic: same corpus, same counters,
//!   byte-identical, whatever `--jobs` was.
//! * **Per-trace audit trail** ([`audit`]) — one JSON event log per
//!   analyzed trace (schema `tcpa-audit/v1`) recording each stage's
//!   duration, retries, errors, and the final verdict.
//! * **Item deadlines** ([`deadline`]) — a per-thread time budget that
//!   span starts check, so an overrunning item unwinds out of its
//!   analysis on its own worker.
//! * **Operator surface** ([`progress`], [`log`]) — a periodic stderr
//!   status line for long corpus runs and a leveled logger, both strictly
//!   on stderr so machine output on stdout never interleaves.
//!
//! Everything is `std`-only; JSON reading/writing lives in [`json`].

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

pub use hist::LogHistogram;
pub use metrics::MetricsSnapshot;
pub use registry::Registry;
pub use span::Span;

/// Starts a stage span recording into the global registry on drop.
pub fn span(name: &'static str) -> Span {
    Span::start(name)
}

/// Times a closure as a stage span.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = Span::start(name);
    f()
}

/// Times a closure as a stage span carrying a human-readable note
/// (surfaced in the audit trail and the trace `args.detail`).
pub fn time_noted<R>(name: &'static str, detail: &str, f: impl FnOnce() -> R) -> R {
    let mut span = Span::start(name);
    span.note(detail);
    f()
}

/// Adds to a counter in the global registry.
pub fn add(name: &'static str, n: u64) {
    registry::global().add(name, n);
}
