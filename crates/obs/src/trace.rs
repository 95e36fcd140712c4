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
//!   item ends, to append one [`ItemTrace`]: the item's label, index and
//!   lane once, and its entries in id order.
//! * **Streamed export.** [`write_chrome`] renders the items in index
//!   order straight into a bounded buffer that it flushes to the output,
//!   so the document never exists whole in memory.
//! * **Deterministic modulo timestamps.** Span ids are per-item
//!   sequence numbers (an item runs start to finish on one worker, so
//!   its id assignment does not depend on scheduling). [`canonicalize`]
//!   strips the fields that legitimately vary between runs —
//!   timestamps, durations, and lane/thread assignment — and sorts by
//!   `(item, id)`; the result is byte-identical whatever `--jobs` was.

use crate::audit::EventKind;
use crate::json::{escape_into, Value};
use crate::registry::lock_recover;
use crate::span::{nanos, ItemLog};
use std::collections::BTreeSet;
use std::io;
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

/// One span or instant of an item, before export.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Event phase.
    pub phase: Phase,
    /// Span or event name (`stage.fingerprint`, `retry`, …).
    pub name: &'static str,
    /// This entry's id: its 1-based sequence number within the item.
    pub id: u64,
    /// The enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Nanoseconds since [`enable`] at which the entry started.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Human-readable detail (connection key, retry reason, …).
    pub detail: String,
}

/// One finished corpus item's trace.
#[derive(Debug, Clone)]
pub struct ItemTrace {
    /// The item's label (file path or synthetic name).
    pub label: Arc<str>,
    /// The item's 0-based input-order index.
    pub index: u64,
    /// Lane (thread role) the item ran on (`main`, `worker-3`).
    pub lane: Arc<str>,
    /// The item's spans and instants, sorted by id.
    pub entries: Vec<TraceEntry>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Finished items, in completion order.
static SINK: Mutex<Vec<ItemTrace>> = Mutex::new(Vec::new());
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

/// Hands a finished item's log to the sink as one [`ItemTrace`];
/// dropped when tracing is off.
pub(crate) fn ship(item: ItemLog) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ItemLog {
        id: label,
        index,
        lane,
        entries,
        ..
    } = item;
    let mut entries: Vec<TraceEntry> = entries
        .into_iter()
        .map(|e| TraceEntry {
            phase: match e.kind {
                EventKind::Stage => Phase::Complete,
                _ => Phase::Instant,
            },
            name: e.name,
            id: e.id,
            parent: e.parent,
            ts_ns: ns_at(e.start),
            dur_ns: e.dur_ns,
            detail: e.detail,
        })
        .collect();
    // A span is logged when it closes, after the spans nested in it;
    // ids are unique within an item.
    entries.sort_unstable_by_key(|e| e.id);
    lock_recover(&SINK).push(ItemTrace {
        label,
        index,
        lane,
        entries,
    });
}

/// Takes every collected item, sorted by index (items that share an
/// index stay in completion order). The collector keeps running; a
/// subsequent drain returns only newer items.
pub fn drain() -> Vec<ItemTrace> {
    let mut items = std::mem::take(&mut *lock_recover(&SINK));
    items.sort_by_key(|item| item.index);
    items
}

/// How much rendered text [`write_chrome`] holds before it writes it out.
const CHUNK: usize = 64 * 1024;

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if let Ok(text) = std::str::from_utf8(&digits[at..]) {
        out.push_str(text);
    }
}

/// Appends nanoseconds as microseconds with 3 decimals (Chrome
/// `ts`/`dur` are µs floats).
fn push_micros(out: &mut String, ns: u64) {
    push_u64(out, ns / 1000);
    let frac = ns % 1000;
    out.push('.');
    for digit in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + digit as u8));
    }
}

/// Appends one metadata record naming the process or a lane.
fn push_metadata(out: &mut String, name: &str, tid: u64, value: &str) {
    out.push_str("\n    {\n      \"name\": \"");
    out.push_str(name);
    out.push_str("\",\n      \"ph\": \"M\",\n      \"pid\": 1,\n      \"tid\": ");
    push_u64(out, tid);
    out.push_str(",\n      \"args\": {\n        \"name\": ");
    escape_into(out, value);
    out.push_str("\n      }\n    }");
}

/// Appends one span or instant of the item whose escaped label is
/// `label` and whose lane is `tid`.
fn push_entry(out: &mut String, e: &TraceEntry, label: &str, index: u64, tid: u64) {
    out.push_str(",\n    {\n      \"name\": ");
    escape_into(out, e.name);
    out.push_str(",\n      \"cat\": ");
    escape_into(out, e.name.split('.').next().unwrap_or("event"));
    out.push_str(match e.phase {
        Phase::Complete => ",\n      \"ph\": \"X\"",
        Phase::Instant => ",\n      \"ph\": \"i\"",
    });
    out.push_str(",\n      \"pid\": 1,\n      \"tid\": ");
    push_u64(out, tid);
    out.push_str(",\n      \"ts\": ");
    push_micros(out, e.ts_ns);
    match e.phase {
        Phase::Complete => {
            out.push_str(",\n      \"dur\": ");
            push_micros(out, e.dur_ns);
        }
        Phase::Instant => out.push_str(",\n      \"s\": \"t\""),
    }
    out.push_str(",\n      \"args\": {\n        \"trace\": ");
    out.push_str(label);
    out.push_str(",\n        \"item\": ");
    push_u64(out, index);
    out.push_str(",\n        \"id\": ");
    push_u64(out, e.id);
    if let Some(parent) = e.parent {
        out.push_str(",\n        \"parent\": ");
        push_u64(out, parent);
    }
    if !e.detail.is_empty() {
        out.push_str(",\n        \"detail\": ");
        escape_into(out, &e.detail);
    }
    out.push_str("\n      }\n    }");
}

/// Writes items as a Chrome `trace_event` JSON document to `out`: one
/// process, one lane (tid) per thread role — every lane an item ran on
/// or [`set_lane`] named — with `thread_name` metadata first, then each
/// item's complete and instant events in item order, with `args`
/// carrying the item key and the span-tree links. The text is rendered
/// into a bounded buffer and written out a chunk at a time.
pub fn write_chrome(items: &[ItemTrace], out: &mut dyn io::Write) -> io::Result<()> {
    let mut lanes = lock_recover(&LANES).clone();
    lanes.extend(items.iter().map(|item| Arc::clone(&item.lane)));
    let lanes: Vec<Arc<str>> = lanes.into_iter().collect();
    let tid_of = |lane: &str| -> u64 {
        lanes
            .iter()
            .position(|l| &**l == lane)
            .map(|i| i as u64)
            .unwrap_or(0)
            + 1
    };
    let mut buf = String::with_capacity(2 * CHUNK);
    buf.push_str("{\n  \"traceEvents\": [");
    push_metadata(&mut buf, "process_name", 0, "tcpanaly");
    for lane in &lanes {
        buf.push(',');
        push_metadata(&mut buf, "thread_name", tid_of(lane), lane);
    }
    let mut label = String::new();
    for item in items {
        let tid = tid_of(&item.lane);
        label.clear();
        escape_into(&mut label, &item.label);
        for e in &item.entries {
            push_entry(&mut buf, e, &label, item.index, tid);
            if buf.len() >= CHUNK {
                out.write_all(buf.as_bytes())?;
                buf.clear();
            }
        }
    }
    buf.push_str("\n  ]\n}\n");
    out.write_all(buf.as_bytes())
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

/// One human-readable line summarizing drained items (for `-v`).
pub fn summary_line(items: &[ItemTrace]) -> String {
    let entries = items.iter().flat_map(|item| &item.entries);
    let spans = entries
        .clone()
        .filter(|e| e.phase == Phase::Complete)
        .count();
    let instants = entries.count() - spans;
    format!(
        "trace: {spans} spans + {instants} instants across {} items",
        items.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(items: &[ItemTrace]) -> String {
        let mut doc = Vec::new();
        write_chrome(items, &mut doc).expect("write to a Vec");
        String::from_utf8(doc).expect("UTF-8 document")
    }

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
        let items = drain();
        let [item] = &items[..] else {
            panic!("one item expected: {items:?}");
        };
        assert_eq!(item.index, 3);
        assert_eq!(&*item.label, "tests/a.pcap");
        let entries = &item.entries;
        assert_eq!(entries.len(), 3, "{entries:?}");
        // Sorted by id: outer span has id 1 but closes last; ordering is
        // by id, not completion.
        assert_eq!(entries[0].id, 1);
        assert_eq!(entries[0].name, "corpus.item_test");
        assert_eq!(entries[0].parent, None);
        assert_eq!(entries[1].name, "retry");
        assert_eq!(entries[1].phase, Phase::Instant);
        assert_eq!(entries[1].parent, Some(1));
        assert_eq!(entries[2].name, "stage.inner_test");
        assert_eq!(entries[2].parent, Some(1));
        assert_eq!(
            summary_line(&items),
            "trace: 2 spans + 1 instants across 1 items"
        );

        let json = render(&items);
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
    fn export_streams_items_in_index_order_across_chunks() {
        let entry = |id: u64, detail: &str| TraceEntry {
            phase: if id == 1 {
                Phase::Complete
            } else {
                Phase::Instant
            },
            name: "stage.chunk_test",
            id,
            parent: (id > 1).then_some(1),
            ts_ns: 1_234_567 * id,
            dur_ns: 1_000_005,
            detail: detail.to_string(),
        };
        // Enough entries that the document spans several chunks, and
        // labels and details that need escaping.
        let items: Vec<ItemTrace> = (0..40u64)
            .map(|index| ItemTrace {
                label: Arc::from(format!("dir/\"quoted\"\t{index}.pcap").as_str()),
                index,
                lane: Arc::from(format!("worker-{}", index % 3).as_str()),
                entries: (1..=100)
                    .map(|id| entry(id, if id % 2 == 0 { "a\\b\nc" } else { "" }))
                    .collect(),
            })
            .collect();
        let json = render(&items);
        assert!(json.len() > 3 * CHUNK, "{} bytes", json.len());
        validate_trace(&json).expect("valid chrome trace");
        check_tree_invariants(&json).expect("tree invariants hold");
        let doc = Value::parse(&json).expect("parse");
        assert_eq!(doc.to_json(), json, "layout");
        let events = events_of(&doc).expect("events");
        let keys: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| !is_metadata(e))
            .filter_map(|e| {
                let args = e.get("args")?;
                Some((args.get("item")?.as_u64()?, args.get("id")?.as_u64()?))
            })
            .collect();
        let expected: Vec<(u64, u64)> = (0..40)
            .flat_map(|i| (1..=100).map(move |id| (i, id)))
            .collect();
        assert_eq!(keys, expected);
        let last = events.last().expect("an event");
        assert_eq!(last.get("ts").and_then(Value::as_f64), Some(123_456.7));
        assert_eq!(
            last.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Value::as_str),
            Some("dir/\"quoted\"\t39.pcap")
        );
        assert!(json.contains("\"dur\": 1000.005"), "{json}");
    }

    #[test]
    fn digit_writers_match_formatting() {
        for n in [0, 7, 10, 999, 1000, 1001, 123_456_789, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
            out.clear();
            push_micros(&mut out, n);
            assert_eq!(out, format!("{}.{:03}", n / 1000, n % 1000));
        }
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
        let first = render(&drain());

        set_lane("worker-5");
        crate::begin_item("c.pcap", 1, false);
        crate::time("stage.canon_test", || ());
        crate::end_item("analyzed");
        let second = render(&drain());

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
