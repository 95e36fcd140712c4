//! Span-tree tracing contract tests, driven through the `tcpanaly`
//! binary: schema validity of the Chrome trace_event export, parent /
//! child invariants under an item deadline, named worker lanes,
//! canonical-form determinism across worker counts, wall-clock coverage,
//! the audit trail as a projection of the trace, and the typed
//! write-error surface of `--trace-out` / `--metrics-out` /
//! `--audit-dir`.

#[path = "support/obs_docs.rs"]
mod obs_docs;

use std::process::Command;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::pcap_io;
use tcpa_wire::TsResolution;
use tcpanaly::obs::json;

fn tcpanaly_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .args(args)
        .output()
        .expect("run tcpanaly");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// A temp directory of `n` generated pcaps; with `with_mangled`, the
/// committed damaged fixtures ride along so fault instants appear.
fn corpus_dir(tag: &str, n: usize, with_mangled: bool) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcpanaly_trace_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for i in 0..n {
        let out = run_transfer(
            profiles::reno(),
            profiles::reno(),
            &PathSpec::default(),
            8 * 1024,
            900 + i as u64,
        );
        let file = std::fs::File::create(dir.join(format!("t{i}.pcap"))).unwrap();
        pcap_io::write_pcap(&out.sender_trace(), file, TsResolution::Micro, 0).unwrap();
    }
    if with_mangled {
        let mangled = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/mangled");
        for name in ["corrupt-timestamp.pcap", "oversized-length.pcap"] {
            std::fs::copy(mangled.join(name), dir.join(format!("zz-{name}"))).unwrap();
        }
    }
    dir
}

/// `--trace-out` over the fixture-style corpus: the document is
/// schema-valid trace_event JSON, the span tree has no orphans, every
/// expected stage appears, and salvage instants show up for the damaged
/// items. A single-file report runs every per-connection stage; the
/// census runs only the fingerprint stage.
#[test]
fn trace_out_is_schema_valid_with_connected_tree() {
    let dir = corpus_dir("schema", 3, true);
    // Single-file report: the full per-connection stage set and the
    // render stage appear.
    let single = dir.join("trace-single.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--trace-out",
        single.to_str().unwrap(),
        dir.join("t0.pcap").to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&single).expect("trace file");
    obs_docs::validate_trace(&text).expect("schema-valid trace");
    obs_docs::check_tree_invariants(&text).expect("no orphan or unclosed spans");
    for name in [
        "\"stage.fingerprint\"",
        "\"stage.receiver\"",
        "\"stage.receiver_fingerprint\"",
        "\"stage.handshake\"",
        "\"stage.stats\"",
        "\"stage.render\"",
    ] {
        assert!(text.contains(name), "expected {name} in trace: missing");
    }

    // Clean census, default policy: the strict reader's ingest.read span
    // and the census stages appear, and no per-connection stage the
    // census does not read.
    let clean = dir.join("trace-clean.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "2",
        "--trace-out",
        clean.to_str().unwrap(),
        dir.join("t0.pcap").to_str().unwrap(),
        dir.join("t1.pcap").to_str().unwrap(),
        dir.join("t2.pcap").to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&clean).expect("trace file");
    obs_docs::validate_trace(&text).expect("schema-valid trace");
    obs_docs::check_tree_invariants(&text).expect("no orphan or unclosed spans");
    for name in [
        "\"corpus.item\"",
        "\"ingest.read\"",
        "\"stage.calibrate\"",
        "\"stage.split\"",
        "\"stage.fingerprint\"",
        "\"stage.distill\"",
        "\"detail.sender_replay\"",
        "\"analyze.total\"",
    ] {
        assert!(text.contains(name), "expected {name} in trace: missing");
    }
    for name in [
        "\"stage.receiver\"",
        "\"stage.receiver_fingerprint\"",
        "\"stage.handshake\"",
        "\"stage.stats\"",
    ] {
        assert!(!text.contains(name), "unexpected {name} in census trace");
    }
    // Worker lanes are named in the metadata.
    assert!(text.contains("worker-0"), "lane metadata expected");
    // Per-connection spans carry the connection key.
    assert!(text.contains(" -> "), "connection key in args expected");

    // Degraded run over the whole dir (mangled fixtures included):
    // salvage instants and the salvage reader's span appear.
    let out = dir.join("trace-salvage.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "2",
        "--degrade=salvage",
        "--trace-out",
        out.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace file");
    obs_docs::validate_trace(&text).expect("schema-valid trace");
    obs_docs::check_tree_invariants(&text).expect("no orphan or unclosed spans");
    assert!(text.contains("\"ingest.salvage\""), "salvage span expected");
    assert!(text.contains("\"salvage\""), "salvage instant expected");
    assert!(text.contains("\"ph\": \"i\""), "instant phase expected");
    let _ = std::fs::remove_dir_all(dir);
}

/// Every worker lane that ran is named in the lane metadata, even one
/// that recorded no event, and no more workers run than there are
/// items: `--jobs 8` over two items names exactly two worker lanes.
#[test]
fn trace_out_names_every_worker_lane() {
    let dir = corpus_dir("lanes", 2, false);
    let out = dir.join("trace.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "8",
        "--trace-out",
        out.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace file");
    obs_docs::validate_trace(&text).expect("schema-valid trace");
    let doc = json::Value::parse(&text).expect("parse");
    let mut lanes: Vec<&str> = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("events")
        .iter()
        .filter(|e| e.get("name").and_then(json::Value::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .filter(|lane| lane.starts_with("worker-"))
        .collect();
    lanes.sort_unstable();
    assert_eq!(lanes, ["worker-0", "worker-1"]);
    let _ = std::fs::remove_dir_all(dir);
}

/// The determinism contract: canonical forms (timestamps, durations,
/// and lane assignment stripped; sorted by item and span id) are
/// byte-identical at `--jobs 1`, `4`, and `8`.
#[test]
fn trace_canonical_form_deterministic_across_worker_counts() {
    let dir = corpus_dir("determinism", 4, true);
    let mut canon = Vec::new();
    for jobs in ["1", "4", "8"] {
        let out = dir.join(format!("trace-{jobs}.json"));
        let (stdout, stderr, code) = tcpanaly_code(&[
            "--jobs",
            jobs,
            "--degrade=salvage",
            "--trace-out",
            out.to_str().unwrap(),
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stdout}\n{stderr}");
        let text = std::fs::read_to_string(&out).expect("trace file");
        obs_docs::check_tree_invariants(&text).expect("tree invariants at every worker count");
        canon.push(obs_docs::canonicalize(&text).expect("canonicalize"));
    }
    assert_eq!(
        canon[0], canon[1],
        "canonical trace must not depend on worker count"
    );
    assert_eq!(canon[1], canon[2]);
    let _ = std::fs::remove_dir_all(dir);
}

/// With `--timeout-secs` active, the armed deadline leaves the tree
/// intact: analysis spans still parent under the item's `corpus.item`
/// root.
#[test]
fn deadline_spans_stay_attached_to_item_tree() {
    let dir = corpus_dir("deadline", 2, false);
    let out = dir.join("trace.json");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--timeout-secs",
        "600",
        "--trace-out",
        out.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace file");
    obs_docs::check_tree_invariants(&text).expect("spans under a deadline must not orphan");
    assert!(text.contains("\"analyze.total\""), "{text}");

    // Spot-check one edge: an analyze.total span whose parent is its
    // item's corpus.item span.
    let doc = json::Value::parse(&text).expect("parse");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("events");
    let analyze = events
        .iter()
        .find(|e| e.get("name").and_then(json::Value::as_str) == Some("analyze.total"))
        .expect("analyze.total event");
    let parent = analyze
        .get("args")
        .and_then(|a| a.get("parent"))
        .and_then(json::Value::as_u64)
        .expect("analyze.total has a parent");
    let item = analyze
        .get("args")
        .and_then(|a| a.get("item"))
        .and_then(json::Value::as_u64)
        .expect("item index");
    let root = events
        .iter()
        .find(|e| {
            e.get("name").and_then(json::Value::as_str) == Some("corpus.item")
                && e.get("args")
                    .and_then(|a| a.get("item"))
                    .and_then(json::Value::as_u64)
                    == Some(item)
        })
        .expect("corpus.item root for the same item");
    assert_eq!(
        root.get("args")
            .and_then(|a| a.get("id"))
            .and_then(json::Value::as_u64),
        Some(parent),
        "analysis parents under the item's root span"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// One item's records as `(name, detail)` pairs: its spans or stage
/// events sorted, its instants or other events in record order.
#[derive(Debug, Default, PartialEq)]
struct ItemRecords {
    stages: Vec<(String, String)>,
    events: Vec<(String, String)>,
}

fn text_of(value: Option<&json::Value>) -> String {
    value
        .and_then(json::Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The audit trail is a projection of the trace: for every item of a
/// salvage run over the committed fixtures, clean and mangled, the audit
/// trail's stage events are the item's complete spans and its other
/// events are the item's instants, in order.
#[test]
fn audit_trail_is_a_projection_of_the_trace() {
    let out_root =
        std::env::temp_dir().join(format!("tcpanaly_trace_projection_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_root);
    let fixtures =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let trace_out = out_root.join("trace.json");
    let audit_dir = out_root.join("audit");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "2",
        "--degrade=salvage",
        "--trace-out",
        trace_out.to_str().unwrap(),
        "--audit-dir",
        audit_dir.to_str().unwrap(),
        fixtures.to_str().unwrap(),
        fixtures.join("mangled").to_str().unwrap(),
    ]);
    // Some mangled fixtures recover nothing even under salvage.
    assert!(code == 0 || code == 1, "{stdout}\n{stderr}");

    let doc = json::Value::parse(&std::fs::read_to_string(&trace_out).expect("trace file"))
        .expect("parse trace");
    let mut traced: std::collections::BTreeMap<u64, ItemRecords> = Default::default();
    for event in doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("events")
    {
        let Some(args) = event
            .get("args")
            .filter(|_| event.get("ph").and_then(json::Value::as_str) != Some("M"))
        else {
            continue;
        };
        let item = args
            .get("item")
            .and_then(json::Value::as_u64)
            .expect("item");
        let record = (text_of(event.get("name")), text_of(args.get("detail")));
        let records = traced.entry(item).or_default();
        match event.get("ph").and_then(json::Value::as_str) {
            Some("X") => records.stages.push(record),
            _ => records.events.push(record),
        }
    }

    let mut audited = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&audit_dir).expect("audit dir") {
        let trail = json::Value::parse(
            &std::fs::read_to_string(entry.expect("entry").path()).expect("trail"),
        )
        .expect("parse trail");
        let mut records = ItemRecords::default();
        for event in trail
            .get("events")
            .and_then(json::Value::as_arr)
            .expect("events")
        {
            let record = (text_of(event.get("name")), text_of(event.get("detail")));
            match event.get("kind").and_then(json::Value::as_str) {
                Some("stage") => records.stages.push(record),
                _ => records.events.push(record),
            }
        }
        let index = trail
            .get("index")
            .and_then(json::Value::as_u64)
            .expect("index");
        audited.insert(index, records);
    }
    for records in traced.values_mut().chain(audited.values_mut()) {
        records.stages.sort();
    }
    assert!(audited.len() >= 11, "fixtures + mangled fixtures");
    assert!(
        audited.values().any(|r| !r.events.is_empty()),
        "fault and verdict events expected"
    );
    assert_eq!(
        audited.keys().collect::<Vec<_>>(),
        traced.keys().collect::<Vec<_>>()
    );
    for (index, records) in &audited {
        assert_eq!(Some(records), traced.get(index), "item {index}");
    }
    let _ = std::fs::remove_dir_all(out_root);
}

/// The items of a trace document whose `stage.*` spans cover less than
/// 95% of their `corpus.item` span minus its `ingest.*` spans, described.
fn uncovered_items(text: &str) -> Vec<String> {
    let doc = json::Value::parse(text).expect("parse");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("events");
    let spans: Vec<(&str, u64, f64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?,
                e.get("args")?.get("item")?.as_u64()?,
                e.get("dur")?.as_f64()?,
            ))
        })
        .collect();
    let sum = |item: u64, pred: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .iter()
            .filter(|&&(name, i, _)| i == item && pred(name))
            .map(|&(_, _, dur)| dur)
            .sum()
    };
    let items: Vec<u64> = spans
        .iter()
        .filter(|s| s.0 == "corpus.item")
        .map(|s| s.1)
        .collect();
    assert!(!items.is_empty(), "corpus.item spans expected");
    items
        .into_iter()
        .filter_map(|item| {
            let outside_ingest =
                sum(item, &|n| n == "corpus.item") - sum(item, &|n| n.starts_with("ingest."));
            let staged = sum(item, &|n| n.starts_with("stage."));
            (staged < 0.95 * outside_ingest).then(|| {
                format!(
                    "item {item}: stage.* spans cover {staged} of {outside_ingest} µs outside ingest ({:.1}%)",
                    100.0 * staged / outside_ingest
                )
            })
        })
        .collect()
}

/// ≥95% of `analyze.total` wall clock is covered by `stage.*` spans in
/// the exported trace — the causal view has no large blind spots.
#[test]
fn trace_spans_cover_analysis_wall_clock() {
    let dir = corpus_dir("coverage", 1, false);
    // One big transfer so the stage durations dominate rounding noise.
    let out_tr = run_transfer(
        profiles::solaris_2_4(),
        profiles::reno(),
        &PathSpec::default(),
        200 * 1024,
        910,
    );
    let file = std::fs::File::create(dir.join("big.pcap")).unwrap();
    pcap_io::write_pcap(&out_tr.sender_trace(), file, TsResolution::Micro, 0).unwrap();
    let out = dir.join("trace.json");
    let args = [
        "--jobs",
        "1",
        "--trace-out",
        out.to_str().unwrap(),
        dir.to_str().unwrap(),
    ];
    let (stdout, stderr, code) = tcpanaly_code(&args);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&out).expect("trace file");
    let doc = json::Value::parse(&text).expect("parse");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("events");
    let dur_of = |pred: &dyn Fn(&str) -> bool| -> f64 {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .filter(|e| {
                e.get("name")
                    .and_then(json::Value::as_str)
                    .map(pred)
                    .unwrap_or(false)
            })
            .filter_map(|e| e.get("dur").and_then(json::Value::as_f64))
            .sum()
    };
    let total = dur_of(&|n| n == "analyze.total");
    assert!(total > 0.0, "analyze.total span expected in the export");
    let staged = dur_of(&|n| n.starts_with("stage."));
    assert!(
        staged >= 0.95 * total,
        "stage.* spans cover {staged} of {total} µs ({:.1}%)",
        100.0 * staged / total
    );

    // The same run, item by item: outside ingest, stage spans account for
    // each whole item, auto-vantage inference included. The small item
    // takes about a millisecond, so one descheduling in the glue between
    // spans can sink a run; the bound must hold for every item of one of
    // up to three runs of the same command.
    let mut uncovered = uncovered_items(&text);
    for _ in 1..3 {
        if uncovered.is_empty() {
            break;
        }
        let (stdout, stderr, code) = tcpanaly_code(&args);
        assert_eq!(code, 0, "{stdout}\n{stderr}");
        uncovered = uncovered_items(&std::fs::read_to_string(&out).expect("trace file"));
    }
    assert!(uncovered.is_empty(), "{}", uncovered.join("\n"));
    let _ = std::fs::remove_dir_all(dir);
}

/// Satellite bugfix contract: `--metrics-out`, `--trace-out`, and
/// `--audit-dir` create missing parent directories; an unwritable
/// target surfaces the typed error (which step, which path) instead of
/// a bare io::Error, with exit code 2.
#[test]
fn sink_flags_create_parents_and_surface_typed_errors() {
    let dir = corpus_dir("sinks", 1, false);
    let metrics = dir.join("made/up/metrics.json");
    let trace_out = dir.join("also/new/trace.json");
    let audit = dir.join("deep/audit");
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace_out.to_str().unwrap(),
        "--audit-dir",
        audit.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    assert!(metrics.is_file(), "metrics parents created");
    assert!(trace_out.is_file(), "trace parents created");
    assert!(
        audit
            .join("00000-t0.pcap")
            .with_extension("json")
            .parent()
            .unwrap()
            .is_dir()
            || audit.is_dir(),
        "audit dir created"
    );

    // A file where the parent directory must go forces the typed error.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "").unwrap();
    let bad = blocker.join("x/metrics.json");
    let (_, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--metrics-out",
        bad.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "metrics write failure is a hard error");
    assert!(
        stderr.contains("cannot create directory"),
        "typed error names the failing step: {stderr}"
    );
    assert!(
        stderr.contains("blocker"),
        "typed error names the path: {stderr}"
    );

    let bad_trace = blocker.join("y/trace.json");
    let (_, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--trace-out",
        bad_trace.to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "trace write failure is a hard error");
    assert!(stderr.contains("cannot create directory"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

/// The `--trace-out` document at `--jobs 1` over the committed fixtures,
/// clean and mangled, with every `ts` and `dur` value masked.
const TRACE_GOLDEN: &str = include_str!("goldens/trace_golden.json");

/// `text` with the value of every `"ts"` and `"dur"` member replaced by
/// `0.000`, the only fields of a `--jobs 1` document that vary by run.
fn mask_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        let body = line.trim_start();
        let indent = &line[..line.len() - body.len()];
        match ["\"ts\": ", "\"dur\": "]
            .into_iter()
            .find(|key| body.starts_with(key))
        {
            Some(key) => {
                let value = &body[key.len()..];
                let end = value.find([',', '\n']).unwrap_or(value.len());
                out.push_str(indent);
                out.push_str(key);
                out.push_str("0.000");
                out.push_str(&value[end..]);
            }
            None => out.push_str(line),
        }
    }
    out
}

/// The whole document, byte for byte once timings are masked: layout,
/// event order, lanes and tids, ids, parents and details. Paths are
/// relative to the repository root so the document does not depend on
/// where it is checked out. On a mismatch the actual document is
/// written next to the test binaries (`trace_golden.actual` under
/// Cargo's target tmpdir); copy it over `goldens/trace_golden.json` only
/// when the change in the document is intended.
#[test]
fn trace_out_matches_golden_with_timings_masked() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_golden_run.json");
    let status = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .current_dir(&root)
        .args([
            "--jobs",
            "1",
            "--degrade=salvage",
            "--trace-out",
            out.to_str().unwrap(),
            "tests/fixtures",
            "tests/fixtures/mangled",
        ])
        .output()
        .expect("run tcpanaly");
    assert!(
        matches!(status.status.code(), Some(0 | 1)),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("trace file");
    let actual = mask_timings(&text);
    if actual != TRACE_GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_golden.actual");
        std::fs::write(&dump, &actual).unwrap();
        panic!(
            "--trace-out document drifted from goldens/trace_golden.json; actual written to {}",
            dump.display()
        );
    }
}

/// The document streams to its file, so a write can fail part-way
/// through it: that is still the typed write error naming the path,
/// with exit code 2.
#[cfg(target_os = "linux")]
#[test]
fn trace_write_failing_mid_document_is_a_typed_error() {
    let dir = corpus_dir("devfull", 1, false);
    let (stdout, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "1",
        "--trace-out",
        "/dev/full",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{stdout}\n{stderr}");
    assert!(stderr.contains("cannot write /dev/full"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Every `--audit-dir` trail of a `--jobs 2` salvage run over the
/// committed fixtures, clean and mangled, in file-name order, each under
/// a `== <file name>` line, with every `dur_ns` and `total_ns` masked.
const AUDIT_GOLDEN: &str = include_str!("goldens/audit_golden.txt");

/// `text` with the value of every `"dur_ns"` and `"total_ns"` member
/// replaced by `0`, the only fields of an audit trail that vary by run.
fn mask_durations(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some((at, key)) = ["\"dur_ns\": ", "\"total_ns\": "]
        .into_iter()
        .filter_map(|key| Some((rest.find(key)?, key)))
        .min()
    {
        out.push_str(&rest[..at + key.len()]);
        out.push('0');
        rest = rest[at + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The audit trails byte for byte once durations are masked: layout,
/// event order, kinds, names, details, outcomes and file names. The
/// trails do not depend on which worker ran an item, so two workers
/// give the same bytes as one. On a mismatch the actual text is written
/// next to the test binaries (`audit_golden.actual` under Cargo's target
/// tmpdir); copy it over `goldens/audit_golden.txt` only when the change
/// in the trails is intended.
#[test]
fn audit_dir_matches_golden_with_durations_masked() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_golden_run");
    let _ = std::fs::remove_dir_all(&dir);
    let status = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .current_dir(&root)
        .args([
            "--jobs",
            "2",
            "--degrade",
            "salvage",
            "--audit-dir",
            dir.to_str().unwrap(),
            "tests/fixtures",
            "tests/fixtures/mangled",
        ])
        .output()
        .expect("run tcpanaly");
    assert!(
        matches!(status.status.code(), Some(0 | 1)),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("audit dir")
        .map(|entry| entry.expect("entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut actual = String::new();
    for name in &names {
        let text = std::fs::read_to_string(dir.join(name)).expect("trail");
        actual.push_str(&format!("== {name}\n"));
        actual.push_str(&mask_durations(&text));
    }
    if actual != AUDIT_GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_golden.actual");
        std::fs::write(&dump, &actual).unwrap();
        panic!(
            "--audit-dir trails drifted from goldens/audit_golden.txt; actual written to {}",
            dump.display()
        );
    }
}
