//! Per-trace audit trails — the pipeline's "show your work" record.
//!
//! The paper's tcpanaly justifies every verdict with the evidence behind
//! it; at corpus scale that record must survive the run. When auditing
//! is enabled, each analyzed trace produces one JSON event log (schema
//! `tcpa-audit/v1`) listing, in order, every stage that ran (with its
//! duration), every retry and error, and the final verdict.
//!
//! A trail is a projection of the item's log ([`mod@crate::span`]): the
//! corpus worker opens an item with auditing on, the analysis runs, and
//! [`crate::end_item`] hands back the sealed trail for the worker to
//! write out.

use crate::json;
use crate::span::{nanos, ItemLog};
use std::path::{Path, PathBuf};

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
    /// Stage or event name (`stage.fingerprint`, `retry`, …).
    pub name: &'static str,
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
    /// Final outcome name (`analyzed`, `salvaged`, `failed.io`, …).
    pub outcome: String,
    /// Wall-clock nanoseconds the item was open.
    pub total_ns: u64,
}

impl AuditTrail {
    /// The trail of a finished item: its log in record order, capped at
    /// [`MAX_EVENTS`], sealed with `outcome`.
    pub(crate) fn project(item: &ItemLog, outcome: &str) -> AuditTrail {
        let events = item
            .entries
            .iter()
            .take(MAX_EVENTS)
            .map(|e| AuditEvent {
                kind: e.kind,
                name: e.name,
                dur_ns: (e.kind == EventKind::Stage).then_some(e.dur_ns),
                detail: e.detail.clone(),
            })
            .collect();
        AuditTrail {
            trace_id: item.id.to_string(),
            index: item.index,
            events,
            dropped: item.entries.len().saturating_sub(MAX_EVENTS) as u64,
            outcome: outcome.to_string(),
            total_ns: nanos(item.started.elapsed()),
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
            out.push_str(&format!("\"name\": {}, ", json::escape(event.name)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{begin_item, end_item, event};

    #[test]
    fn overflow_is_counted_while_the_trace_keeps_every_entry() {
        let _guard = crate::test_lock();
        crate::trace::enable();
        let _ = crate::trace::drain();
        begin_item("big", 0, true);
        for _ in 0..MAX_EVENTS {
            crate::time("stage.test_cap", || ());
        }
        for i in 0..10 {
            event(EventKind::Info, "e", format!("{i}"));
        }
        let trail = end_item("analyzed").expect("trail");
        assert_eq!(trail.events.len(), MAX_EVENTS);
        assert_eq!(trail.dropped, 10);
        let items = crate::trace::drain();
        let [item] = &items[..] else {
            panic!("one item expected");
        };
        assert_eq!(item.entries.len(), MAX_EVENTS + 10);
        assert_eq!(item.entries[MAX_EVENTS + 9].detail, "9");
    }
}
