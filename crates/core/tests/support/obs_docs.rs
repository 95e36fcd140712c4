//! Checkers for the documents `tcpa-obs` writes: the `tcpa-metrics/v1`
//! metrics file, the `tcpa-audit/v1` audit trail and the Chrome
//! `trace_event` trace. Only tests call them, so they live here, beside
//! the tests, and not in the shipped crate.
//!
//! Each validator returns the first problem it finds. The two
//! determinism contracts are made checkable by [`strip_wall_clock`] and
//! [`canonicalize`]: after them, two runs over the same corpus compare
//! byte for byte whatever `--jobs` was.

// Each including test uses only some of the checkers.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use tcpa_obs::json::Value;
use tcpa_obs::metrics::{AUDIT_SCHEMA, METRICS_SCHEMA};

/// Returns the metrics document with its top-level `wall_clock` member
/// removed: the deterministic part of the file, re-serialized
/// canonically.
pub fn strip_wall_clock(metrics_json: &str) -> Result<String, String> {
    let doc = match Value::parse(metrics_json)? {
        Value::Obj(members) => Value::Obj(
            members
                .into_iter()
                .filter(|(k, _)| k != "wall_clock")
                .collect(),
        ),
        other => other,
    };
    Ok(doc.to_json())
}

fn require<'a>(obj: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing {key:?}"))
}

fn require_u64(obj: &Value, key: &str, what: &str) -> Result<u64, String> {
    require(obj, key, what)?
        .as_u64()
        .ok_or_else(|| format!("{what}: {key:?} is not a non-negative integer"))
}

/// Validates a `tcpa-metrics/v1` document.
pub fn validate_metrics(text: &str) -> Result<(), String> {
    let doc = Value::parse(text)?;
    match require(&doc, "schema", "metrics")?.as_str() {
        Some(METRICS_SCHEMA) => {}
        other => {
            return Err(format!(
                "metrics: schema {other:?}, want {METRICS_SCHEMA:?}"
            ))
        }
    }
    let counters = require(&doc, "counters", "metrics")?
        .as_obj()
        .ok_or("metrics: counters is not an object")?;
    for (name, value) in counters {
        value
            .as_u64()
            .ok_or_else(|| format!("metrics: counter {name:?} is not a non-negative integer"))?;
    }
    let wall = require(&doc, "wall_clock", "metrics")?;
    require(wall, "elapsed_secs", "metrics.wall_clock")?
        .as_f64()
        .ok_or("metrics: elapsed_secs is not a number")?;
    let stages = require(wall, "stages", "metrics.wall_clock")?
        .as_obj()
        .ok_or("metrics: stages is not an object")?;
    for (name, stage) in stages {
        let what = format!("metrics stage {name:?}");
        for field in ["count", "total_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
            require_u64(stage, field, &what)?;
        }
    }
    // Additive in-place on v1; tolerate its absence in older documents.
    if let Some(summary) = wall.get("stages_summary") {
        for field in ["count", "total_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
            require_u64(summary, field, "metrics.wall_clock.stages_summary")?;
        }
    }
    Ok(())
}

/// Validates a `tcpa-audit/v1` document.
pub fn validate_audit(text: &str) -> Result<(), String> {
    let doc = Value::parse(text)?;
    match require(&doc, "schema", "audit")?.as_str() {
        Some(AUDIT_SCHEMA) => {}
        other => return Err(format!("audit: schema {other:?}, want {AUDIT_SCHEMA:?}")),
    }
    require(&doc, "trace", "audit")?
        .as_str()
        .ok_or("audit: trace is not a string")?;
    require_u64(&doc, "index", "audit")?;
    require(&doc, "outcome", "audit")?
        .as_str()
        .ok_or("audit: outcome is not a string")?;
    require_u64(&doc, "events_dropped", "audit")?;
    let wall = require(&doc, "wall_clock", "audit")?;
    require_u64(wall, "total_ns", "audit.wall_clock")?;
    let events = require(&doc, "events", "audit")?
        .as_arr()
        .ok_or("audit: events is not an array")?;
    for (i, event) in events.iter().enumerate() {
        let what = format!("audit event {i}");
        let seq = require_u64(event, "seq", &what)?;
        if seq != i as u64 {
            return Err(format!("{what}: seq {seq} out of order"));
        }
        match require(event, "kind", &what)?.as_str() {
            Some("stage" | "retry" | "error" | "verdict" | "info") => {}
            other => return Err(format!("{what}: unknown kind {other:?}")),
        }
        require(event, "name", &what)?
            .as_str()
            .ok_or_else(|| format!("{what}: name is not a string"))?;
        require(event, "detail", &what)?
            .as_str()
            .ok_or_else(|| format!("{what}: detail is not a string"))?;
        if let Some(dur) = event.get("dur_ns") {
            dur.as_u64()
                .ok_or_else(|| format!("{what}: dur_ns is not a non-negative integer"))?;
        }
    }
    Ok(())
}

/// The `traceEvents` array of a trace document.
pub fn events_of(doc: &Value) -> Result<&[Value], String> {
    doc.get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "trace: traceEvents is not an array".to_string())
}

/// Whether a trace event is a `ph: "M"` metadata record.
pub fn is_metadata(event: &Value) -> bool {
    event.get("ph").and_then(Value::as_str) == Some("M")
}

/// Validates a Chrome `trace_event` document as `tcpa_obs::trace`
/// writes it.
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

/// The `(item, id)` of a non-metadata trace event.
fn item_and_id(event: &Value) -> Result<(u64, u64), String> {
    let args = event.get("args").ok_or("trace: event missing args")?;
    let item = args
        .get("item")
        .and_then(Value::as_u64)
        .ok_or("trace: args.item missing")?;
    let id = args
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("trace: args.id missing")?;
    Ok((item, id))
}

/// Checks the span-tree invariants of a trace document: within each
/// item, event ids are unique and every `parent` reference names an
/// existing **complete** span of the same item.
pub fn check_tree_invariants(text: &str) -> Result<(), String> {
    let doc = Value::parse(text)?;
    // Per item: complete span ids, (id, parent) pairs, and every id.
    let mut spans: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut edges: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut ids: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for event in events_of(&doc)? {
        if is_metadata(event) {
            continue;
        }
        let (item, id) = item_and_id(event)?;
        ids.entry(item).or_default().push(id);
        if event.get("ph").and_then(Value::as_str) == Some("X") {
            spans.entry(item).or_default().insert(id);
        }
        let parent = event.get("args").and_then(|args| args.get("parent"));
        if let Some(parent) = parent.and_then(Value::as_u64) {
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

/// The trace determinism contract, made checkable: strips every field
/// that legitimately varies run to run or with `--jobs` — timestamps
/// (`ts`, `dur`), lane/thread assignment (`tid`, `thread_name`
/// metadata) — and re-serializes the rest sorted by `(item, id)`.
pub fn canonicalize(text: &str) -> Result<String, String> {
    let doc = Value::parse(text)?;
    let mut rows: Vec<(u64, u64, Value)> = Vec::new();
    for event in events_of(&doc)? {
        if is_metadata(event) {
            continue;
        }
        let (item, id) = item_and_id(event)?;
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
