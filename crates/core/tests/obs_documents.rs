//! The documents `tcpa-obs` writes, checked by the test-support
//! checkers: metrics and audit trails against their schemas, and Chrome
//! traces against their schema, span-tree invariants and canonical form.
//! Each document is built in-process through the public `tcpa_obs` API.

#[path = "support/obs_docs.rs"]
mod obs_docs;

use obs_docs::{
    canonicalize, check_tree_invariants, events_of, is_metadata, strip_wall_clock, validate_audit,
    validate_metrics, validate_trace,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use tcpa_obs::json::Value;
use tcpa_obs::trace;
use tcpa_obs::{begin_item, end_item, event, Entry, EventKind, ItemLog, MetricsSnapshot, Registry};

/// Serializes the tests that open items or drain the process-global
/// trace collector.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn render(items: &[ItemLog]) -> String {
    let mut doc = Vec::new();
    trace::write_chrome(items, &mut doc).expect("write to a Vec");
    String::from_utf8(doc).expect("UTF-8 document")
}

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
fn exposition_validates_and_strips() {
    let json = sample().to_json(1.25);
    validate_metrics(&json).expect("valid metrics document");
    let stripped = strip_wall_clock(&json).expect("strip");
    assert!(stripped.contains("corpus.analyzed"));
    assert!(!stripped.contains("wall_clock"));
    assert!(!stripped.contains("elapsed_secs"));
    // Stripping is idempotent.
    assert_eq!(strip_wall_clock(&stripped).unwrap(), stripped);
}

#[test]
fn validators_reject_wrong_schema_and_shape() {
    assert!(validate_metrics("{}").is_err());
    assert!(validate_metrics(r#"{"schema": "nope"}"#).is_err());
    let mut json = sample().to_json(0.0);
    json = json.replace("\"count\"", "\"qount\"");
    assert!(validate_metrics(&json).is_err());
    assert!(validate_audit(r#"{"schema": "tcpa-audit/v2"}"#).is_err());
}

#[test]
fn strip_wall_clock_drops_only_that_member() {
    let stripped = strip_wall_clock(r#"{"keep": 1, "wall_clock": 2}"#).unwrap();
    let v = Value::parse(&stripped).unwrap();
    assert!(v.get("keep").is_some());
    assert!(v.get("wall_clock").is_none());
}

#[test]
fn trail_collects_spans_and_events() {
    let _guard = obs_lock();
    begin_item("tests/a.pcap", 7, true);
    tcpa_obs::time("stage.test_audit", || ());
    event(EventKind::Retry, "retry", "attempt 1: interrupted");
    event(EventKind::Verdict, "summary", "1 connection");
    let trail = end_item("analyzed").expect("trail");
    assert_eq!(&*trail.trace_id, "tests/a.pcap");
    assert_eq!(trail.index, 7);
    let json = trail.to_json();
    assert!(validate_audit(json).is_ok(), "{json}");
    let doc = Value::parse(json).expect("parse trail");
    assert_eq!(doc.get("outcome").and_then(Value::as_str), Some("analyzed"));
    let events = doc.get("events").and_then(Value::as_arr).expect("events");
    let kind = |i: usize| events[i].get("kind").and_then(Value::as_str);
    assert_eq!(events.len(), 3);
    assert_eq!(kind(0), Some(EventKind::Stage.as_str()));
    assert!(events[0].get("dur_ns").is_some());
    assert_eq!(kind(1), Some(EventKind::Retry.as_str()));
    assert!(events[1].get("dur_ns").is_none());
    assert_eq!(trail.file_name(), "00007-tests_a.pcap.json");
    let _ = trace::drain();
}

#[test]
fn empty_trail_is_valid_json() {
    let _guard = obs_lock();
    begin_item("empty", 3, true);
    let trail = end_item("failed.io").expect("trail");
    let json = trail.to_json();
    assert!(validate_audit(json).is_ok(), "{json}");
    let _ = trace::drain();
}

#[test]
fn span_tree_nests_and_exports() {
    let _guard = obs_lock();
    trace::enable();
    let _ = trace::drain();
    begin_item("tests/a.pcap", 3, false);
    {
        let _outer = tcpa_obs::span("corpus.item_test");
        event(EventKind::Retry, "retry", "attempt 1");
        tcpa_obs::time("stage.inner_test", || ());
    }
    end_item("analyzed");
    let items = trace::drain();
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
    assert_eq!(entries[1].kind, EventKind::Retry);
    assert_eq!(entries[1].parent, Some(1));
    assert_eq!(entries[2].name, "stage.inner_test");
    assert_eq!(entries[2].parent, Some(1));
    assert_eq!(
        trace::summary_line(&items),
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
    // `write_chrome` flushes its buffer every 64 KiB.
    const CHUNK: usize = 64 * 1024;
    let entry = |id: u64, detail: &str| Entry {
        kind: if id == 1 {
            EventKind::Stage
        } else {
            EventKind::Info
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
    let items: Vec<ItemLog> = (0..40u64)
        .map(|index| ItemLog {
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
fn canonicalize_strips_timing_and_lanes() {
    let _guard = obs_lock();
    trace::enable();
    let _ = trace::drain();
    trace::set_lane("worker-0");
    begin_item("c.pcap", 1, false);
    tcpa_obs::time("stage.canon_test", || ());
    end_item("analyzed");
    let first = render(&trace::drain());

    trace::set_lane("worker-5");
    begin_item("c.pcap", 1, false);
    tcpa_obs::time("stage.canon_test", || ());
    end_item("analyzed");
    let second = render(&trace::drain());

    assert_ne!(first, second, "raw exports differ in lane and ts");
    let canon_a = canonicalize(&first).expect("canonicalize");
    let canon_b = canonicalize(&second).expect("canonicalize");
    assert_eq!(canon_a, canon_b, "canonical forms are byte-identical");
    assert!(!canon_a.contains("\"ts\""), "{canon_a}");
    assert!(!canon_a.contains("\"tid\""), "{canon_a}");
    trace::set_lane("main");
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
    assert!(
        validate_trace(r#"{"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1}]}"#)
            .is_err()
    );
}
