// PathSpec scenarios are configured field-by-field from the default so
// each deviation reads as one labelled line.
#![allow(clippy::field_reassign_with_default)]

//! End-to-end tests of the `tcpanaly` command-line binary: generate a
//! pcap with the simulator, then drive the real executable over it.

use std::io::Write as _;
use std::process::Command;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::pcap_io;
use tcpa_wire::TsResolution;

fn write_trace(name: &str, trace: &tcpa_trace::Trace) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("tcpanaly_cli_{name}_{}.pcap", std::process::id()));
    let file = std::fs::File::create(&path).expect("create pcap");
    pcap_io::write_pcap(trace, file, TsResolution::Micro, 0).expect("write pcap");
    path
}

fn tcpanaly(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .args(args)
        .output()
        .expect("run tcpanaly");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn cli_fingerprints_a_pcap() {
    let out = run_transfer(
        profiles::solaris_2_4(),
        profiles::reno(),
        &PathSpec::default(),
        100 * 1024,
        400,
    );
    let path = write_trace("fp", &out.sender_trace());
    let (stdout, stderr, ok) = tcpanaly(&["--sender", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Calibration"));
    assert!(stdout.contains("Solaris 2.4"), "{stdout}");
    assert!(stdout.contains("close"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn cli_auto_detects_vantage() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        100 * 1024,
        401,
    );
    let spath = write_trace("auto_s", &out.sender_trace());
    let (stdout, _, ok) = tcpanaly(&[spath.to_str().unwrap()]);
    assert!(ok);
    assert!(
        stdout.contains("auto-detected Sender"),
        "sender trace: {stdout}"
    );
    let rpath = write_trace("auto_r", &out.receiver_trace());
    let (stdout, _, ok) = tcpanaly(&[rpath.to_str().unwrap()]);
    assert!(ok);
    assert!(
        stdout.contains("auto-detected Receiver"),
        "receiver trace: {stdout}"
    );
    let _ = std::fs::remove_file(spath);
    let _ = std::fs::remove_file(rpath);
}

#[test]
fn cli_single_impl_mode_reports_issues() {
    // A Linux 1.0 storm trace checked against Generic Reno: the CLI must
    // surface the disagreements.
    let mut path_spec = PathSpec::default();
    path_spec.loss_data = tcpa_netsim::LossModel::Periodic(20);
    let out = run_transfer(
        profiles::linux_1_0(),
        profiles::linux_1_0(),
        &path_spec,
        64 * 1024,
        402,
    );
    let path = write_trace("impl", &out.sender_trace());
    let (stdout, _, ok) = tcpanaly(&["--impl", "Generic Reno", path.to_str().unwrap()]);
    assert!(ok);
    assert!(
        stdout.contains("clearly incorrect"),
        "Reno must not fit a Linux 1.0 storm: {stdout}"
    );
    let (stdout, _, ok) = tcpanaly(&["--impl", "Linux 1.0", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("close"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn cli_rejects_unknown_impl_and_missing_file() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        16 * 1024,
        403,
    );
    let path = write_trace("err", &out.sender_trace());
    let (stdout, stderr, code) = tcpanaly_code(&["--impl", "4.5BSD", path.to_str().unwrap()]);
    assert_eq!(code, 2, "an unknown --impl is a usage error: {stderr}");
    assert!(stderr.contains("unknown implementation"));
    assert!(
        stdout.is_empty(),
        "rejected before any file is read: {stdout}"
    );
    let (_, stderr, ok) = tcpanaly(&["/nonexistent/file.pcap"]);
    assert!(!ok);
    assert!(stderr.contains("file.pcap"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn cli_rejects_garbage_capture() {
    let path =
        std::env::temp_dir().join(format!("tcpanaly_cli_garbage_{}.pcap", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(b"this is not a capture file at all").unwrap();
    drop(f);
    let (_, stderr, ok) = tcpanaly(&[path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("magic"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn cli_census_survives_scattered_sequence_numbers() {
    // One connection of 45 data segments at pseudo-random 32-bit
    // sequence numbers, each followed by an ack every third segment.
    use tcpa_trace::{Time, Trace, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, SeqNum, TcpFlags, TcpRepr};
    let record = |i: usize, src: u8, seq: u32, ack: u32, len: u32| TraceRecord {
        ts: Time::from_millis(i as i64),
        ip: Ipv4Repr {
            src: Ipv4Addr::from_host_id(src),
            dst: Ipv4Addr::from_host_id(3 - src),
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: i as u16,
            payload_len: 20 + len as usize,
        },
        tcp: TcpRepr {
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            flags: TcpFlags::ACK,
            window: 8192,
            ..TcpRepr::new(5000 + u16::from(src), 5003 - u16::from(src))
        },
        payload_len: len,
        checksum_ok: Some(true),
    };
    let mut x = 0x9e37_79b9u32;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let mut records = Vec::new();
    for k in 0..45 {
        let seq = next();
        records.push(record(records.len(), 1, seq, 1, 512));
        if k % 3 == 2 {
            let ack = next();
            records.push(record(records.len(), 2, 1, ack, 0));
        }
    }
    assert_eq!(records.len(), 60);
    let trace: Trace = records.into_iter().collect();
    let path = write_trace("scattered", &trace);
    let (stdout, stderr, code) = tcpanaly_code(&["--jobs", "1", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("1 analyzed"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

/// Like [`tcpanaly`], but also returns the raw exit code (batch mode has
/// a three-way convention: 0 ok, 1 failed items, 2 usage).
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

/// A temp directory holding `n` small generated pcaps.
fn batch_dir(tag: &str, n: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcpanaly_batch_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for i in 0..n {
        let out = run_transfer(
            profiles::reno(),
            profiles::reno(),
            &PathSpec::default(),
            8 * 1024,
            500 + i as u64,
        );
        let file = std::fs::File::create(dir.join(format!("t{i}.pcap"))).unwrap();
        pcap_io::write_pcap(&out.sender_trace(), file, TsResolution::Micro, 0).unwrap();
    }
    dir
}

#[test]
fn cli_batch_mode_prints_census_and_is_deterministic() {
    let dir = batch_dir("census", 6);
    let dir_arg = dir.to_str().unwrap();
    let (one, _, code) = tcpanaly_code(&["--jobs", "1", dir_arg]);
    assert_eq!(code, 0, "{one}");
    assert!(one.contains("Corpus census: 6 traces (6 analyzed"), "{one}");
    assert!(one.contains("best-fit connections"), "{one}");
    let (four, _, code) = tcpanaly_code(&["--jobs", "4", dir_arg]);
    assert_eq!(code, 0);
    assert_eq!(one, four, "batch output must not depend on worker count");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cli_batch_mode_exit_codes() {
    let dir = batch_dir("codes", 2);
    let good = dir.join("t0.pcap");
    // One unreadable item → census still prints, exit 1.
    let (stdout, _, code) = tcpanaly_code(&[
        "--jobs",
        "2",
        good.to_str().unwrap(),
        "/nonexistent/never.pcap",
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("1 failed"), "{stdout}");
    assert!(stdout.contains("failures: 1 i/o"), "{stdout}");
    assert!(stdout.contains("failed items:"), "{stdout}");
    assert!(
        stdout.contains("never.pcap: ") && stdout.contains("i/o error"),
        "failure lines must carry the path and the typed error: {stdout}"
    );
    // Batch mode is incompatible with single-trace flags → usage (2).
    let (_, stderr, code) = tcpanaly_code(&[
        "--jobs",
        "2",
        "--impl",
        "Generic Reno",
        good.to_str().unwrap(),
    ]);
    assert_eq!(code, 2);
    assert!(stderr.contains("incompatible"), "{stderr}");
    // A directory with no pcaps → usage (2).
    let empty = dir.join("empty_sub");
    std::fs::create_dir_all(&empty).unwrap();
    let (_, stderr, code) = tcpanaly_code(&["--jobs", "0", empty.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stderr.contains("no .pcap files"), "{stderr}");
    // Bad count → usage (2).
    let (_, _, code) = tcpanaly_code(&["--jobs", "lots", good.to_str().unwrap()]);
    assert_eq!(code, 2);
    let _ = std::fs::remove_dir_all(dir);
}

/// Path of a committed damaged fixture (see `tests/fixtures/mangled/`).
fn mangled_fixture(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/mangled")
        .join(name)
}

#[test]
fn cli_degrade_salvage_single_file_recovers() {
    let path = mangled_fixture("corrupt-timestamp.pcap");
    let path = path.to_str().unwrap();
    // Default (skip) policy: damaged file is an error, exit 1.
    let (_, stderr, code) = tcpanaly_code(&[path]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("timestamp"), "{stderr}");
    // Salvage policy: recovered records are analyzed, damage is printed.
    let (stdout, stderr, code) = tcpanaly_code(&["--degrade=salvage", path]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("salvaged 32 records"), "{stdout}");
    assert!(stdout.contains("corrupt-timestamp"), "{stdout}");
    assert!(stdout.contains("Calibration"), "{stdout}");
}

#[test]
fn cli_degrade_strict_single_file_exit_3() {
    let path = mangled_fixture("garbage-splice.pcap");
    let (_, stderr, code) = tcpanaly_code(&["--degrade", "strict", path.to_str().unwrap()]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("strict mode aborted"), "{stderr}");
}

#[test]
fn cli_batch_degrade_policies_and_exit_codes() {
    let dir = batch_dir("degrade", 2);
    for name in ["corrupt-timestamp.pcap", "oversized-length.pcap"] {
        std::fs::copy(mangled_fixture(name), dir.join(format!("zz-{name}"))).unwrap();
    }
    let dir_arg = dir.to_str().unwrap();

    // skip (default): damaged items are failed items → exit 1, and the
    // failure lines carry the typed error plus the originating path.
    let (stdout, _, code) = tcpanaly_code(&["--jobs", "2", dir_arg]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("(2 analyzed, 0 salvaged, 2 failed)"),
        "{stdout}"
    );
    assert!(stdout.contains("failed items:"), "{stdout}");
    assert!(stdout.contains("damaged capture"), "{stdout}");
    assert!(stdout.contains("zz-corrupt-timestamp.pcap"), "{stdout}");
    assert!(stdout.contains("--degrade=salvage"), "{stdout}");

    // salvage: damaged items degrade to analyzed-with-accounting → exit 0,
    // deterministic across worker counts.
    let (one, _, code) = tcpanaly_code(&["--jobs", "1", "--degrade=salvage", dir_arg]);
    assert_eq!(code, 0, "{one}");
    assert!(one.contains("(2 analyzed, 2 salvaged, 0 failed)"), "{one}");
    assert!(one.contains("salvage: 2 traces degraded"), "{one}");
    let (four, _, code) = tcpanaly_code(&["--jobs", "4", "--degrade=salvage", dir_arg]);
    assert_eq!(code, 0);
    assert_eq!(one, four, "salvage census must not depend on worker count");

    // strict: first malformed capture aborts the run → exit 3.
    let (stdout, stderr, code) = tcpanaly_code(&["--jobs", "1", "--degrade", "strict", dir_arg]);
    assert_eq!(code, 3, "{stdout}\n{stderr}");
    assert!(stdout.contains("RUN ABORTED"), "{stdout}");
    assert!(stderr.contains("strict mode aborted"), "{stderr}");

    // An unknown mode is a usage error → exit 2.
    let (_, stderr, code) = tcpanaly_code(&["--degrade", "lenient", dir_arg]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown degradation mode"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cli_list_impls() {
    let (stdout, _, ok) = tcpanaly(&["--list-impls"]);
    assert!(ok);
    assert!(stdout.contains("Solaris 2.4"));
    assert!(stdout.contains("Trumpet/Winsock"));
    assert!(stdout.lines().count() >= 20);
}

/// A reader that goes away mid-run (`tcpanaly FILE... | head -3`) ends
/// the run quietly: no panic on the closed pipe, and no further traces
/// analyzed once it is closed.
#[test]
fn cli_closed_stdout_ends_the_run_without_panicking() {
    use std::io::Read as _;
    use std::process::Stdio;
    let fixture = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/reno_clean.pcap");
    let fixture = fixture.to_str().unwrap();
    // Far more report text than a pipe buffers.
    let files = 400;
    let metrics = std::env::temp_dir().join(format!(
        "tcpanaly_cli_closed_pipe_{}.json",
        std::process::id()
    ));
    let mut args = vec!["--metrics-out", metrics.to_str().unwrap()];
    args.extend(std::iter::repeat_n(fixture, files));
    let mut child = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tcpanaly");
    let mut head = [0u8; 64];
    child
        .stdout
        .take()
        .expect("stdout pipe")
        .read_exact(&mut head)
        .expect("first report bytes");
    // The read end is dropped here, closing the pipe.
    let out = child.wait_with_output().expect("wait for tcpanaly");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        head.starts_with(b"== "),
        "{}",
        String::from_utf8_lossy(&head)
    );
    let doc = std::fs::read_to_string(&metrics).expect("metrics document");
    let analyzed: usize = doc
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"corpus.items_total\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("corpus.items_total counter");
    assert!(
        analyzed < files,
        "{analyzed} of {files} traces analyzed after stdout closed"
    );
    let _ = std::fs::remove_file(metrics);
}
