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
//!   (the CLI's `--trace-out`); every hook starts with one relaxed
//!   atomic load and bails.
//! * **Lock-free-enough.** Each thread appends events to a thread-local
//!   buffer; the global sink mutex is touched only when an item
//!   finishes ([`end_item`]) or a thread exits, so workers never contend
//!   per-span.
//! * **Deterministic modulo timestamps.** Span ids are per-item
//!   sequence numbers (an item runs start to finish on one worker, so
//!   its id assignment does not depend on scheduling). [`canonicalize`]
//!   strips the fields that legitimately vary between runs —
//!   timestamps, durations, and lane/thread assignment — and sorts by
//!   `(item, id)`; the result is byte-identical whatever `--jobs` was.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Context for one span opened on the current thread (held by
/// [`crate::Span`] while in flight).
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    ts_ns: u64,
}

#[derive(Debug)]
struct ItemCtx {
    id: Arc<str>,
    index: u64,
    /// The last id handed out in this item.
    seq: u64,
    /// Open-span stack (ids); the top is the parent of the next event.
    stack: Vec<u64>,
}

#[derive(Debug, Default)]
struct ThreadCtx {
    lane: Option<Arc<str>>,
    item: Option<ItemCtx>,
    buf: Vec<TraceEvent>,
}

impl ThreadCtx {
    fn lane(&self) -> Arc<str> {
        self.lane.clone().unwrap_or_else(|| Arc::from("main"))
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        // A thread exiting with buffered events (worker threads flush per
        // item, but a final partial buffer may remain) ships them to the
        // sink so drain() sees them.
        if !self.buf.is_empty() {
            sink_append(std::mem::take(&mut self.buf));
        }
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// Every lane named with [`set_lane`] while recording, so the export
/// names a worker that ran even if it recorded no event.
static LANES: Mutex<BTreeSet<Arc<str>>> = Mutex::new(BTreeSet::new());
/// Spans opened while no item context was active (they are not
/// recorded); exposed so coverage tests can prove the blind spot is
/// empty on instrumented paths.
static ORPHAN_SPANS: AtomicU64 = AtomicU64::new(0);

fn sink_append(mut events: Vec<TraceEvent>) {
    let mut sink = match SINK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    sink.append(&mut events);
}

/// Turns the collector on (idempotent). All spans and instants recorded
/// after this call, on threads with an open item context, are kept.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Release);
}

/// `true` when the collector is recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// `at` as nanoseconds since the collector's epoch.
fn ns_at(at: Instant) -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(*epoch)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// Names the current thread's lane (`worker-0`, …). The default lane is
/// `main`. Cheap no-op when tracing is off.
pub fn set_lane(name: &str) {
    if !is_enabled() {
        return;
    }
    let lane: Arc<str> = Arc::from(name);
    LANES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .insert(Arc::clone(&lane));
    CTX.with(|cell| cell.borrow_mut().lane = Some(lane));
}

/// Opens an item context on this thread: subsequent spans and instants
/// are attributed to `(id, index)` with ids drawn from a fresh counter.
pub fn begin_item(id: &str, index: u64) {
    if !is_enabled() {
        return;
    }
    CTX.with(|cell| {
        cell.borrow_mut().item = Some(ItemCtx {
            id: Arc::from(id),
            index,
            seq: 0,
            stack: Vec::new(),
        });
    });
}

/// Closes this thread's item context and flushes the thread-local
/// buffer into the global sink.
pub fn end_item() {
    if !is_enabled() {
        return;
    }
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        ctx.item = None;
        if !ctx.buf.is_empty() {
            let events = std::mem::take(&mut ctx.buf);
            drop(ctx);
            sink_append(events);
        }
    });
}

/// Called by [`crate::Span::start`]: allocates an id, pushes it on the
/// open-span stack, and remembers the span's start time `start`, so the
/// span covers this bookkeeping too. Returns `None` (and records nothing)
/// when tracing is off or no item context is open.
pub(crate) fn open_span(start: Instant) -> Option<OpenSpan> {
    if !is_enabled() {
        return None;
    }
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        match ctx.item.as_mut() {
            None => {
                ORPHAN_SPANS.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(item) => {
                item.seq += 1;
                let id = item.seq;
                let parent = item.stack.last().copied();
                item.stack.push(id);
                Some(OpenSpan {
                    id,
                    parent,
                    ts_ns: ns_at(start),
                })
            }
        }
    })
}

/// Called by [`crate::Span`] on drop: pops the stack and buffers the
/// complete (`ph:"X"`) event. The span ends once the event is buffered,
/// so it covers this bookkeeping too.
pub(crate) fn close_span(open: OpenSpan, name: &'static str, detail: &str) {
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        let lane = ctx.lane();
        let Some(item) = ctx.item.as_mut() else {
            // The item closed while this span was open (should not
            // happen on instrumented paths); drop the event rather than
            // misattribute it.
            return;
        };
        // Pop this span (it is the top unless an inner span leaked, in
        // which case retain-to-position keeps the stack consistent).
        if let Some(pos) = item.stack.iter().rposition(|&id| id == open.id) {
            item.stack.truncate(pos);
        }
        let event = TraceEvent {
            phase: Phase::Complete,
            name,
            lane,
            item_id: Arc::clone(&item.id),
            item_index: item.index,
            id: open.id,
            parent: open.parent,
            ts_ns: open.ts_ns,
            dur_ns: 0,
            detail: detail.to_string(),
        };
        ctx.buf.push(event);
        if let Some(event) = ctx.buf.last_mut() {
            event.dur_ns = now_ns().saturating_sub(event.ts_ns);
        }
    });
}

/// Records an instant event (`ph:"i"`) attached to the currently-open
/// span: retries, timeouts, degrade decisions, salvage ledgers. A no-op
/// when tracing is off or no item context is open.
pub fn instant(name: &'static str, detail: &str) {
    if !is_enabled() {
        return;
    }
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        let lane = ctx.lane();
        let Some(item) = ctx.item.as_mut() else {
            return;
        };
        item.seq += 1;
        let id = item.seq;
        let event = TraceEvent {
            phase: Phase::Instant,
            name,
            lane,
            item_id: Arc::clone(&item.id),
            item_index: item.index,
            id,
            parent: item.stack.last().copied(),
            ts_ns: now_ns(),
            dur_ns: 0,
            detail: detail.to_string(),
        };
        ctx.buf.push(event);
    });
}

/// Spans started under tracing but outside any item context (they were
/// not recorded). Zero on fully instrumented paths.
pub fn orphan_spans() -> u64 {
    ORPHAN_SPANS.load(Ordering::Relaxed)
}

/// Flushes the calling thread's buffer and takes every collected event,
/// sorted deterministically by `(item_index, id, ts)`. The collector
/// keeps running; a subsequent drain returns only newer events.
pub fn drain() -> Vec<TraceEvent> {
    CTX.with(|cell| {
        let mut ctx = cell.borrow_mut();
        if !ctx.buf.is_empty() {
            let events = std::mem::take(&mut ctx.buf);
            drop(ctx);
            sink_append(events);
        }
    });
    let mut events = {
        let mut sink = match SINK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::take(&mut *sink)
    };
    events.sort_by(|a, b| {
        (a.item_index, a.id, a.ts_ns)
            .cmp(&(b.item_index, b.id, b.ts_ns))
            .then_with(|| a.item_id.cmp(&b.item_id))
    });
    events
}

/// Microseconds with 3 decimals (Chrome `ts`/`dur` are µs floats).
fn micros(ns: u64) -> Value {
    Value::Num(format!("{}.{:03}", ns / 1000, ns % 1000))
}

/// Renders events as a Chrome `trace_event` JSON document: one process,
/// one lane (tid) per thread role — every lane an event ran on or
/// [`set_lane`] named — with `thread_name` metadata first, then complete
/// and instant events with `args` carrying the item key and the
/// span-tree links.
pub fn render_chrome(events: &[TraceEvent]) -> String {
    let mut lanes = LANES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
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
    // Each event is written out as soon as it is built, so the rendering
    // never holds more than one event's tree beside the text.
    let mut doc = String::from("{\n  \"traceEvents\": [");
    let mut out = |event: Value| {
        if !doc.ends_with('[') {
            doc.push(',');
        }
        doc.push_str("\n    ");
        event.write(&mut doc, 2);
    };
    out(Value::Obj(vec![
        ("name".into(), Value::Str("process_name".into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::Num("1".into())),
        ("tid".into(), Value::Num("0".into())),
        (
            "args".into(),
            Value::Obj(vec![("name".into(), Value::Str("tcpanaly".into()))]),
        ),
    ]));
    for lane in &lanes {
        out(Value::Obj(vec![
            ("name".into(), Value::Str("thread_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::Num("1".into())),
            ("tid".into(), Value::Num(tid_of(lane).to_string())),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::Str(lane.to_string()))]),
            ),
        ]));
    }
    for e in events {
        let cat = e.name.split('.').next().unwrap_or("event").to_string();
        let mut args = vec![
            ("trace".into(), Value::Str(e.item_id.to_string())),
            ("item".into(), Value::Num(e.item_index.to_string())),
            ("id".into(), Value::Num(e.id.to_string())),
        ];
        if let Some(parent) = e.parent {
            args.push(("parent".into(), Value::Num(parent.to_string())));
        }
        if !e.detail.is_empty() {
            args.push(("detail".into(), Value::Str(e.detail.clone())));
        }
        let mut members = vec![
            ("name".into(), Value::Str(e.name.to_string())),
            ("cat".into(), Value::Str(cat)),
            (
                "ph".into(),
                Value::Str(match e.phase {
                    Phase::Complete => "X".into(),
                    Phase::Instant => "i".into(),
                }),
            ),
            ("pid".into(), Value::Num("1".into())),
            ("tid".into(), Value::Num(tid_of(&e.lane).to_string())),
            ("ts".into(), micros(e.ts_ns)),
        ];
        match e.phase {
            Phase::Complete => members.push(("dur".into(), micros(e.dur_ns))),
            Phase::Instant => members.push(("s".into(), Value::Str("t".into()))),
        }
        members.push(("args".into(), Value::Obj(args)));
        out(Value::Obj(members));
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

    // The collector is process-global; tests that enable it and drain
    // must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = locked();
        // Not enabled in this thread of execution yet (or drained below
        // anyway): spans without enable() must not allocate contexts.
        if !is_enabled() {
            begin_item("x", 0);
            crate::time("stage.trace_off", || ());
            end_item();
            assert!(drain().is_empty());
        }
    }

    #[test]
    fn span_tree_nests_and_exports() {
        let _guard = locked();
        enable();
        let _ = drain();
        begin_item("tests/a.pcap", 3);
        {
            let _outer = crate::span("corpus.item_test");
            instant("retry", "attempt 1");
            crate::time("stage.inner_test", || ());
        }
        end_item();
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
    }

    #[test]
    fn canonicalize_strips_timing_and_lanes() {
        let _guard = locked();
        enable();
        let _ = drain();
        set_lane("worker-0");
        begin_item("c.pcap", 1);
        crate::time("stage.canon_test", || ());
        end_item();
        let first = render_chrome(&drain());

        set_lane("worker-5");
        begin_item("c.pcap", 1);
        crate::time("stage.canon_test", || ());
        end_item();
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
