//! Golden stdout and exit code of the `tcpanaly` binary over the
//! committed fixtures, the damaged fixtures under salvage, one filtered
//! receiver-side trace written by the test, three `--jobs 1` censuses
//! (the damaged one both salvaged and skipped), one strict-mode abort,
//! two `--impl` checks whose issue lines include an unexplained
//! retransmission and a window violation, and two `--receiver`
//! censuses. Any change to what the
//! command prints — a header, the auto-vantage line, a report figure,
//! the `--impl` detail, the handshake and receiver-fingerprint
//! sections, a census row — shows up as a diff.
//!
//! Every run uses paths relative to its working directory, so the
//! document does not depend on where the repository is checked out. On
//! a mismatch the actual document is written next to the test binaries
//! (`cli_golden.actual` under Cargo's target tmpdir); copy it over
//! `goldens/cli_golden.txt` only when the change in output is intended.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use tcpa_filter::{apply, FilterConfig};
use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::pcap_io;
use tcpa_wire::TsResolution;

const GOLDEN: &str = include_str!("goldens/cli_golden.txt");

/// The file name of the filtered receiver trace inside its directory.
const FILTERED: &str = "filtered-receiver.pcap";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A Reno transfer with periodic data loss, seen through an IRIX-style
/// duplicating filter at the receiver.
fn write_filtered_receiver_trace() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_golden");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = PathSpec {
        loss_data: LossModel::Periodic(25),
        ..PathSpec::default()
    };
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, 64 * 1024, 17);
    assert!(out.completed, "filtered transfer did not complete");
    let (measured, _) = apply(&out.receiver_tap, &FilterConfig::irix_duplicating(), 17);
    let file = std::fs::File::create(dir.join(FILTERED)).expect("create pcap");
    pcap_io::write_pcap(&measured, file, TsResolution::Micro, 0).expect("write pcap");
    dir
}

/// Runs the binary in `cwd` and appends its exit code and stdout.
fn run(doc: &mut String, cwd: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("run tcpanaly");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    writeln!(doc, "### tcpanaly {}", args.join(" ")).unwrap();
    writeln!(doc, "exit: {}", out.status.code().unwrap_or(-1)).unwrap();
    doc.push_str(&stdout);
    stdout
}

/// The four counts of a `--impl` run's `calibration:` line.
fn impl_line_counts(stdout: &str) -> Vec<usize> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("calibration: "))
        .unwrap_or_else(|| panic!("no calibration line in:\n{stdout}"));
    line.split(", ")
        .map(|part| {
            let digits: String = part
                .trim_start_matches("calibration: ")
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("count")
        })
        .collect()
}

/// The four counts of a full report's `== Calibration (§3) ==` block.
fn report_counts(stdout: &str) -> Vec<usize> {
    [
        "measurement duplicates removed: ",
        "time travel instances: ",
        "resequencing evidence: ",
        "filter-drop evidence: ",
    ]
    .iter()
    .map(|label| {
        stdout
            .lines()
            .find_map(|l| l.trim_start().strip_prefix(label))
            .unwrap_or_else(|| panic!("no {label:?} in:\n{stdout}"))
            .parse()
            .expect("count")
    })
    .collect()
}

#[test]
fn cli_output_matches_golden() {
    let root = repo_root();
    let mut doc = String::new();
    let flag_sets: [&[&str]; 5] = [
        &[],
        &["--sender"],
        &["--receiver"],
        &["--impl", "Generic Reno"],
        &["--handshake", "--receiver-fingerprint"],
    ];
    for fixture in ["reno_clean", "solaris_receiver", "tahoe_loss"] {
        let file = format!("tests/fixtures/{fixture}.pcap");
        for flags in flag_sets {
            let mut args = flags.to_vec();
            args.push(&file);
            run(&mut doc, &root, &args);
        }
    }
    for fixture in [
        "bad-magic",
        "corrupt-timestamp",
        "garbage-splice",
        "mid-record-eof",
        "oversized-length",
        "truncated-global-header",
        "truncated-record-header",
        "zero-length",
    ] {
        let file = format!("tests/fixtures/mangled/{fixture}.pcap");
        run(&mut doc, &root, &["--degrade=salvage", &file]);
    }

    let filtered_dir = write_filtered_receiver_trace();
    let full = run(&mut doc, &filtered_dir, &["--receiver", FILTERED]);
    let checked = run(
        &mut doc,
        &filtered_dir,
        &["--receiver", "--impl", "Generic Reno", FILTERED],
    );

    run(&mut doc, &root, &["--jobs", "1", "tests/fixtures"]);
    run(
        &mut doc,
        &root,
        &["--jobs", "1", "--degrade=salvage", "tests/fixtures/mangled"],
    );
    // The strict reader's damage reports: the default skip policy turns
    // each into a failed-item line, and strict mode aborts on the first.
    run(&mut doc, &root, &["--jobs", "1", "tests/fixtures/mangled"]);
    run(
        &mut doc,
        &root,
        &[
            "--degrade=strict",
            "tests/fixtures/mangled/mid-record-eof.pcap",
        ],
    );
    // A candidate that leaves a retransmission unexplained: its issue
    // lines name the candidate.
    run(
        &mut doc,
        &root,
        &[
            "--impl",
            "Trumpet/Winsock 2.0b",
            "tests/fixtures/tahoe_loss.pcap",
        ],
    );
    // A candidate whose window model the clean Reno trace violates: its
    // issue lines name the permit, cwnd, offered window and snd_una.
    run(
        &mut doc,
        &root,
        &["--impl", "Linux 1.0", "tests/fixtures/reno_clean.pcap"],
    );
    // Censuses at a declared receiver vantage, where no connection is
    // fingerprinted.
    run(
        &mut doc,
        &root,
        &["--jobs", "1", "--receiver", "tests/fixtures"],
    );
    run(
        &mut doc,
        &root,
        &[
            "--jobs",
            "1",
            "--receiver",
            "--degrade=salvage",
            "tests/fixtures/mangled",
        ],
    );

    if doc != GOLDEN {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_golden.actual");
        std::fs::write(&dump, &doc).unwrap();
        panic!(
            "tcpanaly output drifted from goldens/cli_golden.txt; actual written to {}",
            dump.display()
        );
    }
    // `--impl` calibrates the trace the full report calibrates, under the
    // same vantage, so both see the same measurement errors.
    assert_eq!(
        impl_line_counts(&checked),
        report_counts(&full),
        "--impl calibration line disagrees with the full report"
    );
}
