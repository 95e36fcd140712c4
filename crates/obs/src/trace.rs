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
//! * **One lock per item, no copy.** Spans and instants are entries of
//!   the item's log ([`mod@crate::span`]); the global sink mutex is
//!   touched only when an item ends, to move that [`ItemLog`] in, its
//!   entries sorted by id. The log is the record itself, not a copy of
//!   it: a span (kind [`EventKind::Stage`]) renders as a complete event,
//!   any other entry as an instant.
//! * **Streamed export.** [`write_chrome`] renders the items in index
//!   order straight into a bounded buffer that it flushes to the output,
//!   so the document never exists whole in memory.
//! * **Deterministic modulo timestamps.** Span ids are per-item
//!   sequence numbers (an item runs start to finish on one worker, so
//!   its id assignment does not depend on scheduling). With the fields
//!   that legitimately vary between runs stripped — timestamps,
//!   durations, and lane/thread assignment — and the events sorted by
//!   `(item, id)`, the document is byte-identical whatever `--jobs` was
//!   (the tests check this with the `canonicalize` of
//!   `crates/core/tests/support/obs_docs.rs`).

use crate::json::{escape_into, push_u64};
use crate::registry::lock_recover;
use crate::span::{Entry, EventKind, ItemLog};
use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Finished items, in completion order.
static SINK: Mutex<Vec<ItemLog>> = Mutex::new(Vec::new());
/// Every lane named with [`set_lane`] while recording, so the export
/// names a worker that ran even if it recorded no event.
static LANES: Mutex<BTreeSet<Arc<str>>> = Mutex::new(BTreeSet::new());

/// Turns the collector on (idempotent) and fixes the epoch of every
/// entry's `ts_ns` at this call unless an item opened earlier. Every
/// item that ends after this call is kept.
pub fn enable() {
    crate::span::start_clock(Instant::now());
    ENABLED.store(true, Ordering::Release);
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

/// Moves a finished item's log into the sink; dropped when tracing is
/// off.
pub(crate) fn ship(mut log: ItemLog) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // A span is logged when it closes, after the spans nested in it;
    // ids are unique within an item.
    log.entries.sort_unstable_by_key(|e| e.id);
    // The sink holds every item until the run ends: none keeps the spare
    // slots its log's growth left.
    log.entries.shrink_to_fit();
    lock_recover(&SINK).push(log);
}

/// Takes every collected item, sorted by index (items that share an
/// index stay in completion order). The collector keeps running; a
/// subsequent drain returns only newer items.
pub fn drain() -> Vec<ItemLog> {
    let mut items = std::mem::take(&mut *lock_recover(&SINK));
    items.sort_by_key(|item| item.index);
    items
}

/// How much rendered text [`write_chrome`] holds before it writes it out.
const CHUNK: usize = 64 * 1024;

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
fn push_entry(out: &mut String, e: &Entry, label: &str, index: u64, tid: u64) {
    out.push_str(",\n    {\n      \"name\": ");
    escape_into(out, e.name);
    out.push_str(",\n      \"cat\": ");
    escape_into(out, e.name.split('.').next().unwrap_or("event"));
    let span = e.kind == EventKind::Stage;
    out.push_str(if span {
        ",\n      \"ph\": \"X\""
    } else {
        ",\n      \"ph\": \"i\""
    });
    out.push_str(",\n      \"pid\": 1,\n      \"tid\": ");
    push_u64(out, tid);
    out.push_str(",\n      \"ts\": ");
    push_micros(out, e.ts_ns);
    if span {
        out.push_str(",\n      \"dur\": ");
        push_micros(out, e.dur_ns);
    } else {
        out.push_str(",\n      \"s\": \"t\"");
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
pub fn write_chrome(items: &[ItemLog], out: &mut dyn io::Write) -> io::Result<()> {
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

/// One human-readable line summarizing drained items (for `-v`).
pub fn summary_line(items: &[ItemLog]) -> String {
    let entries = items.iter().flat_map(|item| &item.entries);
    let spans = entries
        .clone()
        .filter(|e| e.kind == EventKind::Stage)
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
}
