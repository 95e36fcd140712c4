//! Per-trace audit trails — the pipeline's "show your work" record.
//!
//! The paper's tcpanaly justifies every verdict with the evidence behind
//! it; at corpus scale that record must survive the run. When auditing
//! is enabled, each analyzed trace produces one JSON event log (schema
//! `tcpa-audit/v1`) listing, in order, every stage that ran (with its
//! duration), every retry and error, and the final verdict.
//!
//! A trail is a rendering of the item's log ([`mod@crate::span`]), not a
//! copy of it: the corpus worker opens an item with auditing on, the
//! analysis runs, and [`crate::end_item`] renders the log's first
//! [`MAX_EVENTS`] entries into the document and hands back the sealed
//! trail for the worker to write out.

use crate::json::{escape_into, push_u64};
use crate::metrics::AUDIT_SCHEMA;
use crate::span::{EventKind, ItemLog};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cap on events kept per trail; a pathological trace must not turn its
/// audit record into a memory leak. Overflow is counted, not silent.
pub const MAX_EVENTS: usize = 4096;

/// One trace's trip through the pipeline, rendered as `tcpa-audit/v1`.
#[derive(Debug, Clone)]
pub struct AuditTrail {
    /// The corpus item's label (file path or synthetic name).
    pub trace_id: Arc<str>,
    /// The item's 0-based input-order index.
    pub index: u64,
    json: String,
}

impl AuditTrail {
    /// Renders the trail of a finished item: its log in record order,
    /// capped at [`MAX_EVENTS`] with the overflow counted, sealed with
    /// `outcome` and the `total_ns` the item was open.
    pub(crate) fn render(log: &ItemLog, outcome: &str, total_ns: u64) -> AuditTrail {
        let events = &log.entries[..log.entries.len().min(MAX_EVENTS)];
        let mut out = String::with_capacity(256 + 128 * events.len());
        out.push_str("{\n  \"schema\": ");
        escape_into(&mut out, AUDIT_SCHEMA);
        out.push_str(",\n  \"trace\": ");
        escape_into(&mut out, &log.label);
        out.push_str(",\n  \"index\": ");
        push_u64(&mut out, log.index);
        out.push_str(",\n  \"outcome\": ");
        escape_into(&mut out, outcome);
        out.push_str(",\n  \"events_dropped\": ");
        push_u64(&mut out, (log.entries.len() - events.len()) as u64);
        out.push_str(",\n  \"events\": [");
        for (seq, e) in events.iter().enumerate() {
            if seq > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"seq\": ");
            push_u64(&mut out, seq as u64);
            out.push_str(", \"kind\": ");
            escape_into(&mut out, e.kind.as_str());
            out.push_str(", \"name\": ");
            escape_into(&mut out, e.name);
            if e.kind == EventKind::Stage {
                out.push_str(", \"dur_ns\": ");
                push_u64(&mut out, e.dur_ns);
            }
            out.push_str(", \"detail\": ");
            escape_into(&mut out, &e.detail);
            out.push('}');
        }
        if !events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"wall_clock\": { \"total_ns\": ");
        push_u64(&mut out, total_ns);
        out.push_str(" }\n}\n");
        AuditTrail {
            trace_id: Arc::clone(&log.label),
            index: log.index,
            json: out,
        }
    }

    /// The trail as `tcpa-audit/v1` JSON.
    pub fn to_json(&self) -> &str {
        &self.json
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
        crate::write::write_with_parents(&path, &self.json)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
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
        let doc = Value::parse(trail.to_json()).expect("parse trail");
        let events = doc.get("events").and_then(Value::as_arr).expect("events");
        assert_eq!(events.len(), MAX_EVENTS);
        assert_eq!(doc.get("events_dropped").and_then(Value::as_u64), Some(10));
        let items = crate::trace::drain();
        let [item] = &items[..] else {
            panic!("one item expected");
        };
        assert_eq!(item.entries.len(), MAX_EVENTS + 10);
        assert_eq!(item.entries[MAX_EVENTS + 9].detail, "9");
    }

    #[test]
    fn labels_and_details_are_escaped() {
        let _guard = crate::test_lock();
        begin_item("dir/\"quoted\"\t.pcap", 4, true);
        event(EventKind::Error, "failed.io", "a\\b\nc\u{1}");
        let trail = end_item("failed.io").expect("trail");
        let doc = Value::parse(trail.to_json()).expect("parse trail");
        assert_eq!(
            doc.get("trace").and_then(Value::as_str),
            Some("dir/\"quoted\"\t.pcap")
        );
        let events = doc.get("events").and_then(Value::as_arr).expect("events");
        assert_eq!(
            events[0].get("detail").and_then(Value::as_str),
            Some("a\\b\nc\u{1}")
        );
        assert_eq!(trail.file_name(), "00004-dir__quoted__.pcap.json");
        let _ = crate::trace::drain();
    }
}
