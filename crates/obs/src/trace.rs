//! Hierarchical span tracing with Chrome `trace_event` export.
//!
//! The flat registry ([`crate::registry`]) can say *how long* the
//! fingerprint stage takes in aggregate; it cannot say where connection
//! #4217 spent its 80 ms, on which worker, or whether a retry
//! interleaved. This module records the *causal* picture — a span tree
//! per corpus item, one lane per thread — and exports it in the Chrome
//! `trace_event` JSON format, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Design constraints, in order:
//!
//! * **Off means free.** Tracing is disabled until [`enable`] is called
//!   (the CLI's `--trace-out`); until then a finished item's log is
//!   simply dropped.
//! * **One lock per item.** Spans and instants are entries of the item's
//!   log ([`mod@crate::span`]); the global sink mutex is touched only when an
//!   item ends, to append its events with the lane and item attached.
//! * **Deterministic modulo timestamps.** Span ids are per-item
//!   sequence numbers (an item runs start to finish on one worker, so
//!   its id assignment does not depend on scheduling). [`canonicalize`]
//!   strips the fields that legitimately vary between runs —
//!   timestamps, durations, and lane/thread assignment — and sorts by
//!   `(item, id)`; the result is byte-identical whatever `--jobs` was.

use crate::audit::EventKind;
use crate::json::{escape, Value};
use crate::registry::lock_recover;
use crate::span::{nanos, ItemLog};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The phase of one trace event (a subset of the Chrome vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph:"X"`): name + start + duration.
    Complete,
    /// An instant event (`ph:"i"`): a point in time (retry, salvage…).
    Instant,
}

/// One recorded event, before export.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event phase.
    pub phase: Phase,
    /// Span or event name (`stage.fingerprint`, `retry`, …).
    pub name: &'static str,
    /// Lane (thread role) the event happened on (`main`, `worker-3`).
    pub lane: Arc<str>,
    /// The corpus item's label (file path or synthetic name).
    pub item_id: Arc<str>,
    /// The corpus item's 0-based input-order index.
    pub item_index: u64,
    /// This event's id: its 1-based sequence number within the item.
    pub id: u64,
    /// The enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Nanoseconds since [`enable`] at which the event started.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Human-readable detail (connection key, retry reason, …).
    pub detail: String,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Finished items' events, in completion order.
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// Every lane named with [`set_lane`] while recording, so the export
/// names a worker that ran even if it recorded no event.
static LANES: Mutex<BTreeSet<Arc<str>>> = Mutex::new(BTreeSet::new());

/// Turns the collector on (idempotent). Every item that ends after this
/// call is kept.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Release);
}

/// `at` as nanoseconds since the collector's epoch.
fn ns_at(at: Instant) -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    nanos(at.saturating_duration_since(*epoch))
}

/// Names the current thread's lane (`worker-0`, …). The default lane is
/// `main`. Cheap no-op when tracing is off.
pub fn set_lane(name: &str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let lane: Arc<str> = Arc::from(name);
    lock_recover(&LANES).insert(Arc::clone(&lane));
    crate::span::set_lane(lane);
}

/// Hands a finished item's log to the sink, attaching its lane and
/// item; dropped when tracing is off.
pub(crate) fn ship(item: ItemLog) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ItemLog {
        id: item_id,
        index,
        lane,
        entries,
        ..
    } = item;
    let events = entries.into_iter().map(|e| TraceEvent {
        phase: match e.kind {
            EventKind::Stage => Phase::Complete,
            _ => Phase::Instant,
        },
        name: e.name,
        lane: Arc::clone(&lane),
        item_id: Arc::clone(&item_id),
        item_index: index,
        id: e.id,
        parent: e.parent,
        ts_ns: ns_at(e.start),
        dur_ns: e.dur_ns,
        detail: e.detail,
    });
    lock_recover(&SINK).extend(events);
}

/// Takes every collected event, sorted deterministically by
/// `(item_index, id, ts)`. The collector keeps running; a subsequent
/// drain returns only newer events.
pub fn drain() -> Vec<TraceEvent> {
    let mut events = std::mem::take(&mut *lock_recover(&SINK));
    events.sort_by(|a, b| {
        (a.item_index, a.id, a.ts_ns)
            .cmp(&(b.item_index, b.id, b.ts_ns))
            .then_with(|| a.item_id.cmp(&b.item_id))
    });
    events
}

/// Microseconds with 3 decimals (Chrome `ts`/`dur` are µs floats).
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// Renders events as a Chrome `trace_event` JSON document: one process,
/// one lane (tid) per thread role — every lane an event ran on or
/// [`set_lane`] named — with `thread_name` metadata first, then complete
/// and instant events with `args` carrying the item key and the
/// span-tree links. Each event is written straight into the text.
pub fn render_chrome(events: &[TraceEvent]) -> String {
    let mut lanes = lock_recover(&LANES).clone();
    lanes.extend(events.iter().map(|e| Arc::clone(&e.lane)));
    let lanes: Vec<Arc<str>> = lanes.into_iter().collect();
    let tid_of = |lane: &str| -> u64 {
        lanes
            .iter()
            .position(|l| &**l == lane)
            .map(|i| i as u64)
            .unwrap_or(0)
            + 1
    };
    let mut doc = String::from("{\n  \"traceEvents\": [");
    let metadata = |doc: &mut String, name: &str, tid: u64, value: &str| {
        let _ = write!(
            doc,
            "\n    {{\n      \"name\": \"{name}\",\n      \"ph\": \"M\",\n      \"pid\": 1,\
             \n      \"tid\": {tid},\n      \"args\": {{\n        \"name\": {}\n      }}\n    }}",
            escape(value)
        );
    };
    metadata(&mut doc, "process_name", 0, "tcpanaly");
    for lane in &lanes {
        doc.push(',');
        metadata(&mut doc, "thread_name", tid_of(lane), lane);
    }
    for e in events {
        let cat = e.name.split('.').next().unwrap_or("event");
        let ph = match e.phase {
            Phase::Complete => "X",
            Phase::Instant => "i",
        };
        let _ = write!(
            doc,
            ",\n    {{\n      \"name\": {},\n      \"cat\": {},\n      \"ph\": \"{ph}\",\
             \n      \"pid\": 1,\n      \"tid\": {},\n      \"ts\": {},\n      ",
            escape(e.name),
            escape(cat),
            tid_of(&e.lane),
            Micros(e.ts_ns)
        );
        let _ = match e.phase {
            Phase::Complete => write!(doc, "\"dur\": {}", Micros(e.dur_ns)),
            Phase::Instant => write!(doc, "\"s\": \"t\""),
        };
        let _ = write!(
            doc,
            ",\n      \"args\": {{\n        \"trace\": {},\n        \"item\": {},\
             \n        \"id\": {}",
            escape(&e.item_id),
            e.item_index,
            e.id
        );
        if let Some(parent) = e.parent {
            let _ = write!(doc, ",\n        \"parent\": {parent}");
        }
        if !e.detail.is_empty() {
            let _ = write!(doc, ",\n        \"detail\": {}", escape(&e.detail));
        }
        doc.push_str("\n      }\n    }");
    }
    doc.push_str("\n  ]\n}\n");
    doc
}

fn events_of(doc: &Value) -> Result<&[Value], String> {
    doc.get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "trace: traceEvents is not an array".to_string())
}

fn is_metadata(event: &Value) -> bool {
    event.get("ph").and_then(Value::as_str) == Some("M")
}

/// Validates a Chrome `trace_event` document as this module writes it,
/// returning the first problem.
pub fn validate_trace(text: &str) -> Result<(), String> {
    let doc = Value::parse(text)?;
    for (i, event) in events_of(&doc)?.iter().enumerate() {
        let what = format!("trace event {i}");
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: ph is not a string"))?;
        event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: name is not a string"))?;
        for key in ["pid", "tid"] {
            event
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{what}: {key} is not a non-negative integer"))?;
        }
        match ph {
            "M" => continue,
            "X" | "i" => {}
            other => return Err(format!("{what}: unknown ph {other:?}")),
        }
        event
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{what}: ts is not a number"))?;
        if ph == "X" {
            event
                .get("dur")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{what}: dur is not a number"))?;
        }
        let args = event
            .get("args")
            .ok_or_else(|| format!("{what}: missing args"))?;
        args.get("trace")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: args.trace is not a string"))?;
        for key in ["item", "id"] {
            args.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{what}: args.{key} is not a non-negative integer"))?;
        }
    }
    Ok(())
}

/// Checks the span-tree invariants over an exported document: within
/// each item, event ids are unique and every `parent` reference names an
/// existing **complete** span of the same item. Returns the first
/// violation.
pub fn check_tree_invariants(text: &str) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    let doc = Value::parse(text)?;
    // item index -> (complete span ids, all (id, parent) pairs)
    let mut spans: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut edges: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut ids: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for event in events_of(&doc)? {
        if is_metadata(event) {
            continue;
        }
        let args = event.get("args").ok_or("trace: event missing args")?;
        let item = args
            .get("item")
            .and_then(Value::as_u64)
            .ok_or("trace: args.item missing")?;
        let id = args
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("trace: args.id missing")?;
        ids.entry(item).or_default().push(id);
        if event.get("ph").and_then(Value::as_str) == Some("X") {
            spans.entry(item).or_default().insert(id);
        }
        if let Some(parent) = args.get("parent").and_then(Value::as_u64) {
            edges.entry(item).or_default().push((id, parent));
        }
    }
    for (item, mut item_ids) in ids {
        let n = item_ids.len();
        item_ids.sort_unstable();
        item_ids.dedup();
        if item_ids.len() != n {
            return Err(format!("item {item}: duplicate event ids"));
        }
    }
    let empty = BTreeSet::new();
    for (item, pairs) in &edges {
        let closed = spans.get(item).unwrap_or(&empty);
        for &(id, parent) in pairs {
            if !closed.contains(&parent) {
                return Err(format!(
                    "item {item}: event {id} is orphaned — parent {parent} has no \
                     complete span (unclosed or missing)"
                ));
            }
        }
    }
    Ok(())
}

/// The determinism contract, made checkable: strips every field that
/// legitimately varies run-to-run or with `--jobs` — timestamps (`ts`,
/// `dur`), lane/thread assignment (`tid`, `thread_name` metadata) — and
/// re-serializes the rest sorted by `(item, id)`. Two runs over the same
/// corpus produce byte-identical canonical forms whatever the worker
/// count.
pub fn canonicalize(text: &str) -> Result<String, String> {
    let doc = Value::parse(text)?;
    let mut rows: Vec<(u64, u64, Value)> = Vec::new();
    for event in events_of(&doc)? {
        if is_metadata(event) {
            continue;
        }
        let args = event.get("args").ok_or("trace: event missing args")?;
        let item = args
            .get("item")
            .and_then(Value::as_u64)
            .ok_or("trace: args.item missing")?;
        let id = args
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("trace: args.id missing")?;
        let keep_keys = ["name", "cat", "ph", "args"];
        let members: Vec<(String, Value)> = event
            .as_obj()
            .ok_or("trace: event is not an object")?
            .iter()
            .filter(|(k, _)| keep_keys.contains(&k.as_str()))
            .cloned()
            .collect();
        rows.push((item, id, Value::Obj(members)));
    }
    rows.sort_by_key(|row| (row.0, row.1));
    let canon = Value::Obj(vec![(
        "traceEvents".into(),
        Value::Arr(rows.into_iter().map(|(_, _, v)| v).collect()),
    )]);
    Ok(canon.to_json())
}

/// One human-readable line summarizing a drained event set (for `-v`).
pub fn summary_line(events: &[TraceEvent]) -> String {
    let spans = events.iter().filter(|e| e.phase == Phase::Complete).count();
    let instants = events.len() - spans;
    let items: std::collections::BTreeSet<&str> = events.iter().map(|e| &*e.item_id).collect();
    let mut line = String::new();
    let _ = write!(
        line,
        "trace: {spans} spans + {instants} instants across {} items",
        items.len()
    );
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _guard = crate::test_lock();
        // Once another test has enabled the collector this cannot be
        // observed in-process any more.
        if !ENABLED.load(Ordering::Relaxed) {
            crate::begin_item("x", 0, false);
            crate::time("stage.trace_off", || ());
            crate::end_item("analyzed");
            assert!(drain().is_empty());
        }
    }

    #[test]
    fn span_tree_nests_and_exports() {
        let _guard = crate::test_lock();
        enable();
        let _ = drain();
        crate::begin_item("tests/a.pcap", 3, false);
        {
            let _outer = crate::span("corpus.item_test");
            crate::event(EventKind::Retry, "retry", "attempt 1");
            crate::time("stage.inner_test", || ());
        }
        crate::end_item("analyzed");
        let events = drain();
        assert_eq!(events.len(), 3, "{events:?}");
        // Sorted by id: outer span has id 1 but closes last; ordering is
        // by id, not completion.
        assert_eq!(events[0].id, 1);
        assert_eq!(events[0].name, "corpus.item_test");
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].name, "retry");
        assert_eq!(events[1].phase, Phase::Instant);
        assert_eq!(events[1].parent, Some(1));
        assert_eq!(events[2].name, "stage.inner_test");
        assert_eq!(events[2].parent, Some(1));
        assert!(events.iter().all(|e| e.item_index == 3));

        let json = render_chrome(&events);
        validate_trace(&json).expect("valid chrome trace");
        check_tree_invariants(&json).expect("tree invariants hold");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert_eq!(
            Value::parse(&json).expect("parse").to_json(),
            json,
            "layout"
        );
    }

    #[test]
    fn canonicalize_strips_timing_and_lanes() {
        let _guard = crate::test_lock();
        enable();
        let _ = drain();
        set_lane("worker-0");
        crate::begin_item("c.pcap", 1, false);
        crate::time("stage.canon_test", || ());
        crate::end_item("analyzed");
        let first = render_chrome(&drain());

        set_lane("worker-5");
        crate::begin_item("c.pcap", 1, false);
        crate::time("stage.canon_test", || ());
        crate::end_item("analyzed");
        let second = render_chrome(&drain());

        assert_ne!(first, second, "raw exports differ in lane and ts");
        let canon_a = canonicalize(&first).expect("canonicalize");
        let canon_b = canonicalize(&second).expect("canonicalize");
        assert_eq!(canon_a, canon_b, "canonical forms are byte-identical");
        assert!(!canon_a.contains("\"ts\""), "{canon_a}");
        assert!(!canon_a.contains("\"tid\""), "{canon_a}");
        set_lane("main");
    }

    #[test]
    fn invariant_checker_catches_orphans() {
        let bad = r#"{"traceEvents": [
            {"name": "stage.x", "cat": "stage", "ph": "X", "pid": 1, "tid": 1,
             "ts": 1.0, "dur": 2.0,
             "args": {"trace": "t", "item": 0, "id": 2, "parent": 9}}
        ]}"#;
        validate_trace(bad).expect("shape is valid");
        let err = check_tree_invariants(bad).expect_err("orphan parent");
        assert!(err.contains("orphan"), "{err}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_trace("{}").is_err());
        assert!(validate_trace(r#"{"traceEvents": [{}]}"#).is_err());
        assert!(validate_trace(
            r#"{"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1}]}"#
        )
        .is_err());
    }
}
