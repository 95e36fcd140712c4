//! Golden work counts of the `tcpanaly` binary over the committed
//! fixtures: every `--metrics-out` counter and the number of times each
//! stage ran, with no timings. Two salvage censuses over the clean and
//! damaged fixtures, one at auto vantage and one at a declared receiver
//! vantage, and one single-file receiver report with the handshake and
//! receiver-fingerprint sections. A change that moves the work the
//! program does, a replay, a salvaged byte or a stage run, shows up as a
//! diff.
//!
//! On a mismatch the actual document is written next to the test
//! binaries (`work_golden.actual` under Cargo's target tmpdir); copy it
//! over `goldens/work_golden.txt` only when the change in work is
//! intended, and say why in the same change.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use tcpanaly::obs::json;

const GOLDEN: &str = include_str!("goldens/work_golden.txt");

/// Runs the binary from the repository root with `--metrics-out` and
/// appends its exit code, counters and stage counts.
fn run(doc: &mut String, args: &[&str]) {
    let metrics = Path::new(env!("CARGO_TARGET_TMPDIR")).join("work_golden.metrics.json");
    let _ = std::fs::remove_file(&metrics);
    let out = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .arg("--metrics-out")
        .arg(&metrics)
        .args(args)
        .output()
        .expect("run tcpanaly");
    writeln!(doc, "### tcpanaly --metrics-out M {}", args.join(" ")).unwrap();
    writeln!(doc, "exit: {}", out.status.code().unwrap_or(-1)).unwrap();
    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    let metrics = json::Value::parse(&text).expect("parse metrics");
    let object = |path: &[&str]| {
        path.iter()
            .try_fold(&metrics, |value, key| value.get(key))
            .and_then(json::Value::as_obj)
            .unwrap_or_else(|| panic!("{path:?} missing from {text}"))
    };
    for (name, value) in object(&["counters"]) {
        writeln!(doc, "counter {name} {}", value.as_u64().expect("count")).unwrap();
    }
    for (name, stage) in object(&["wall_clock", "stages"]) {
        let count = stage
            .get("count")
            .and_then(json::Value::as_u64)
            .expect("stage count");
        writeln!(doc, "stage {name} {count}").unwrap();
    }
}

#[test]
fn work_counts_match_golden() {
    let mut doc = String::new();
    let fixtures = ["tests/fixtures", "tests/fixtures/mangled"];
    for vantage in [&[][..], &["--receiver"][..]] {
        let mut args = vec!["--jobs", "1", "--degrade=salvage"];
        args.extend_from_slice(vantage);
        args.extend_from_slice(&fixtures);
        run(&mut doc, &args);
    }
    run(
        &mut doc,
        &[
            "--receiver",
            "--handshake",
            "--receiver-fingerprint",
            "tests/fixtures/solaris_receiver.pcap",
        ],
    );
    if doc != GOLDEN {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("work_golden.actual");
        std::fs::write(&dump, &doc).unwrap();
        panic!(
            "tcpanaly work counts drifted from goldens/work_golden.txt; actual written to {}",
            dump.display()
        );
    }
}
