//! CLI contract tests for `tcpa-bench compare`: golden delta-table
//! output (byte-stable across runs), the regression exit code, the
//! threshold/floor knobs, and usage errors.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn run(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpa-bench"))
        .args(args)
        .output()
        .expect("run tcpa-bench");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// A ≥25% regression in one scenario: golden table, exit 1.
#[test]
fn regression_fixture_matches_golden_and_exits_one() {
    let (stdout, stderr, code) = run(&[
        "compare",
        &fixture("bench_old.json"),
        &fixture("bench_new_regressed.json"),
    ]);
    assert_eq!(code, 1, "regression must gate\n{stdout}\n{stderr}");
    let golden = std::fs::read_to_string(fixture("compare_regressed.golden")).unwrap();
    assert_eq!(stdout, golden, "delta table must be byte-stable");
    assert!(stdout.contains("REGRESSED"));
    assert!(stdout.contains("stage.fingerprint +600.0 ms"));
}

/// Noise-level drift on every scenario: golden table, exit 0.
#[test]
fn no_change_fixture_matches_golden_and_exits_zero() {
    let (stdout, stderr, code) = run(&[
        "compare",
        &fixture("bench_old.json"),
        &fixture("bench_new_same.json"),
    ]);
    assert_eq!(code, 0, "noise must not gate\n{stdout}\n{stderr}");
    let golden = std::fs::read_to_string(fixture("compare_same.golden")).unwrap();
    assert_eq!(stdout, golden);
    assert!(stdout.contains("0 regressed"));
}

/// Raising the threshold above the regression lets it pass; shrinking
/// the floor to zero still respects the percentage gate.
#[test]
fn threshold_and_floor_knobs_move_the_gate() {
    let (stdout, _, code) = run(&[
        "compare",
        "--threshold-pct",
        "60",
        &fixture("bench_old.json"),
        &fixture("bench_new_regressed.json"),
    ]);
    assert_eq!(code, 0, "50% slide passes a 60% threshold\n{stdout}");
    assert!(stdout.contains("threshold 60%"), "{stdout}");

    let (stdout, _, code) = run(&[
        "compare",
        "--threshold-pct=1",
        "--floor-ms=0",
        &fixture("bench_old.json"),
        &fixture("bench_new_same.json"),
    ]);
    assert_eq!(
        code, 1,
        "2% drift fails a 1% threshold with no floor\n{stdout}"
    );
}

/// Identical documents: all ok, exit 0.
#[test]
fn identical_documents_exit_zero() {
    let (stdout, _, code) = run(&[
        "compare",
        &fixture("bench_old.json"),
        &fixture("bench_old.json"),
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("3 scenarios, 0 regressed"), "{stdout}");
}

/// The committed BENCH_stage_timings.json baseline is itself a valid
/// compare input — the CI gate's contract.
#[test]
fn committed_baseline_is_comparable() {
    let baseline = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_stage_timings.json");
    let baseline = baseline.to_str().unwrap();
    let (stdout, stderr, code) = run(&["compare", baseline, baseline]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    assert!(stdout.contains("0 regressed"), "{stdout}");
}

/// Usage and parse problems exit 2, not 1 — a broken gate must not
/// masquerade as a perf verdict.
#[test]
fn usage_and_parse_errors_exit_two() {
    let (_, stderr, code) = run(&["compare", &fixture("bench_old.json")]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"), "{stderr}");

    let (_, stderr, code) = run(&["compare", "/nonexistent.json", &fixture("bench_old.json")]);
    assert_eq!(code, 2);
    assert!(stderr.contains("nonexistent"), "{stderr}");

    let (_, stderr, code) = run(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");

    let (_, stderr, code) = run(&[
        "compare",
        "--threshold-pct",
        "abc",
        &fixture("bench_old.json"),
        &fixture("bench_new_same.json"),
    ]);
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid number"), "{stderr}");

    let (_, stderr, code) = run(&[
        "compare",
        "--floor-ms=abc",
        &fixture("bench_old.json"),
        &fixture("bench_new_same.json"),
    ]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("--floor-ms: invalid number \"abc\""),
        "{stderr}"
    );

    let (_, stderr, code) = run(&[
        "compare",
        "--bogus=1",
        &fixture("bench_old.json"),
        &fixture("bench_new_same.json"),
    ]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option --bogus=1"), "{stderr}");
}
