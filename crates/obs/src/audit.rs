//! Per-trace audit trails — the pipeline's "show your work" record.
//!
//! The paper's tcpanaly justifies every verdict with the evidence behind
//! it; at corpus scale that record must survive the run. When auditing
//! is enabled, each analyzed trace produces one JSON event log (schema
//! `tcpa-audit/v1`) listing, in order, every stage that ran (with its
//! duration), every retry and error, and the final verdict.
//!
//! The active trail lives in a thread-local so instrumentation deep in
//! the analyzer ([`crate::span`], ad-hoc [`event`] calls) needs no
//! plumbing: the corpus worker [`begin`]s a trail, the analysis runs,
//! and the worker [`take`]s the finished trail and writes it out.

use crate::json;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cap on events kept per trail; a pathological trace must not turn its
/// audit record into a memory leak. Overflow is counted, not silent.
pub const MAX_EVENTS: usize = 4096;

/// What kind of thing an audit event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A pipeline stage completed (duration attached).
    Stage,
    /// A transient failure was retried.
    Retry,
    /// A failure (I/O, malformed bytes, timeout, panic).
    Error,
    /// A conclusion: calibration findings, best fits, outcome.
    Verdict,
    /// Anything else worth the record (salvage ledgers, notes).
    Info,
}

impl EventKind {
    /// Stable lowercase name used in the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Stage => "stage",
            EventKind::Retry => "retry",
            EventKind::Error => "error",
            EventKind::Verdict => "verdict",
            EventKind::Info => "info",
        }
    }
}

/// One entry in a trace's audit trail.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Stage or subsystem name (`stage.fingerprint`, `load`, …).
    pub name: String,
    /// Duration in nanoseconds, for `Stage` events.
    pub dur_ns: Option<u64>,
    /// Human-readable detail (may be empty).
    pub detail: String,
}

/// The ordered event log of one trace's trip through the pipeline.
#[derive(Debug, Clone)]
pub struct AuditTrail {
    /// The corpus item's label (file path or synthetic name).
    pub trace_id: String,
    /// The item's 0-based input-order index.
    pub index: u64,
    /// Events in the order they happened.
    pub events: Vec<AuditEvent>,
    /// Events discarded beyond [`MAX_EVENTS`].
    pub dropped: u64,
    /// Final outcome name (`analyzed`, `salvaged`, `failed.io`, …);
    /// empty until [`take`] seals the trail.
    pub outcome: String,
    /// Wall-clock nanoseconds from [`begin`] to [`take`].
    pub total_ns: u64,
    started: Instant,
}

impl AuditTrail {
    fn new(trace_id: String, index: u64) -> AuditTrail {
        AuditTrail {
            trace_id,
            index,
            events: Vec::new(),
            dropped: 0,
            outcome: String::new(),
            total_ns: 0,
            started: Instant::now(),
        }
    }

    fn push(&mut self, event: AuditEvent) {
        if self.events.len() >= MAX_EVENTS {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }

    /// Renders the trail as `tcpa-audit/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"tcpa-audit/v1\",\n");
        out.push_str(&format!("  \"trace\": {},\n", json::escape(&self.trace_id)));
        out.push_str(&format!("  \"index\": {},\n", self.index));
        out.push_str(&format!(
            "  \"outcome\": {},\n",
            json::escape(&self.outcome)
        ));
        out.push_str(&format!("  \"events_dropped\": {},\n", self.dropped));
        out.push_str("  \"events\": [");
        for (seq, event) in self.events.iter().enumerate() {
            if seq > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"seq\": {seq}, "));
            out.push_str(&format!(
                "\"kind\": {}, ",
                json::escape(event.kind.as_str())
            ));
            out.push_str(&format!("\"name\": {}, ", json::escape(&event.name)));
            if let Some(ns) = event.dur_ns {
                out.push_str(&format!("\"dur_ns\": {ns}, "));
            }
            out.push_str(&format!("\"detail\": {}}}", json::escape(&event.detail)));
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"wall_clock\": {{ \"total_ns\": {} }}\n",
            self.total_ns
        ));
        out.push_str("}\n");
        out
    }

    /// The file name this trail writes under: input index plus the
    /// trace id sanitized to a portable character set.
    pub fn file_name(&self) -> String {
        let mut slug: String = self
            .trace_id
            .chars()
            .map(|c| match c {
                'a'..='z' | 'A'..='Z' | '0'..='9' | '.' | '-' | '_' => c,
                _ => '_',
            })
            .collect();
        slug.truncate(80);
        format!("{:05}-{}.json", self.index, slug)
    }

    /// Writes the trail into `dir` (created if absent, parents
    /// included) as [`AuditTrail::file_name`], reporting the failing
    /// path and step on error.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, crate::write::WriteError> {
        crate::write::ensure_dir(dir)?;
        let path = dir.join(self.file_name());
        crate::write::write_with_parents(&path, &self.to_json())?;
        Ok(path)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<AuditTrail>> = const { RefCell::new(None) };
}

/// Opens a trail for `trace_id` on this thread, replacing (and
/// discarding) any unfinished one.
pub fn begin(trace_id: impl Into<String>, index: u64) {
    CURRENT.with(|cell| {
        *cell.borrow_mut() = Some(AuditTrail::new(trace_id.into(), index));
    });
}

/// `true` when a trail is open on this thread.
pub fn is_active() -> bool {
    CURRENT.with(|cell| cell.borrow().is_some())
}

/// Seals and returns this thread's trail, stamping the outcome and the
/// total wall-clock. Returns `None` when no trail was open.
pub fn take(outcome: &str) -> Option<AuditTrail> {
    CURRENT.with(|cell| {
        cell.borrow_mut().take().map(|mut trail| {
            trail.outcome = outcome.to_string();
            trail.total_ns = trail.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            trail
        })
    })
}

/// Appends an event to this thread's trail; a no-op when none is open.
pub fn event(kind: EventKind, name: impl Into<String>, detail: impl Into<String>) {
    CURRENT.with(|cell| {
        if let Some(trail) = cell.borrow_mut().as_mut() {
            trail.push(AuditEvent {
                kind,
                name: name.into(),
                dur_ns: None,
                detail: detail.into(),
            });
        }
    });
}

/// Appends a completed-stage event (called by [`crate::Span`] on drop).
pub(crate) fn stage_event(name: &'static str, elapsed: std::time::Duration, detail: String) {
    CURRENT.with(|cell| {
        if let Some(trail) = cell.borrow_mut().as_mut() {
            trail.push(AuditEvent {
                kind: EventKind::Stage,
                name: name.to_string(),
                dur_ns: Some(elapsed.as_nanos().min(u64::MAX as u128) as u64),
                detail,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trail_collects_spans_and_events() {
        begin("tests/a.pcap", 7);
        assert!(is_active());
        crate::time("stage.test_audit", || ());
        event(EventKind::Retry, "load", "attempt 1: interrupted");
        event(EventKind::Verdict, "outcome", "1 connection");
        let trail = take("analyzed").expect("trail");
        assert!(!is_active());
        assert_eq!(trail.trace_id, "tests/a.pcap");
        assert_eq!(trail.index, 7);
        assert_eq!(trail.outcome, "analyzed");
        assert_eq!(trail.events.len(), 3);
        assert_eq!(trail.events[0].kind, EventKind::Stage);
        assert!(trail.events[0].dur_ns.is_some());
        assert_eq!(trail.events[1].kind, EventKind::Retry);
        let json = trail.to_json();
        assert!(crate::metrics::validate_audit(&json).is_ok(), "{json}");
        assert_eq!(trail.file_name(), "00007-tests_a.pcap.json");
    }

    #[test]
    fn events_without_a_trail_are_dropped() {
        assert!(take("x").is_none());
        event(EventKind::Info, "nobody", "listening");
        assert!(!is_active());
    }

    #[test]
    fn overflow_is_counted() {
        begin("big", 0);
        for i in 0..(MAX_EVENTS + 10) {
            event(EventKind::Info, "e", format!("{i}"));
        }
        let trail = take("analyzed").expect("trail");
        assert_eq!(trail.events.len(), MAX_EVENTS);
        assert_eq!(trail.dropped, 10);
    }

    #[test]
    fn empty_trail_is_valid_json() {
        begin("empty", 3);
        let trail = take("failed.io").expect("trail");
        let json = trail.to_json();
        assert!(crate::metrics::validate_audit(&json).is_ok(), "{json}");
    }
}
