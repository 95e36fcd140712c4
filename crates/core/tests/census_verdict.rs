//! The census reads each connection's fingerprint through
//! [`Calibrated::census`], which replays a candidate only until it is
//! settled whether it fits closely and replays each replay class of the
//! connection once: a profile whose replay of the connection can read
//! only the knob values an earlier profile's can takes that profile's
//! verdict. This suite checks that the shortcut never changes
//! what the census reads, against the full [`Analyzer::analyze`], on every
//! connection of the committed fixtures and of a simulated corpus over
//! all 22 profiles with loss and with socket-buffer-limited senders (the
//! case where a replay needs a second, sender-window pass, §6.2):
//!
//! * the best fit (close, lowest mean response delay, earliest profile on
//!   a tie);
//! * the best fit's response-delay samples;
//! * the set of close candidates.
//!
//! On the same connections, [`fingerprint`] (one preparation of the
//! connection shared by every candidate, one replay per class) must give
//! each candidate what [`fingerprint_one`] (a preparation and a replay
//! per candidate) gives it, field by field, and the census's replay work
//! on the simulated corpus is pinned exactly.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::{self, all_profiles};
use tcpa_trace::pcap_io::{self, read_pcap};
use tcpa_trace::Trace;
use tcpa_wire::TsResolution;
use tcpanaly::fingerprint::{close_fits, fingerprint, fingerprint_one, FitClass};
use tcpanaly::obs::json;
use tcpanaly::{Analyzer, SenderAnalysis};

/// The committed fixture traces, by path.
fn fixture_traces() -> Vec<(String, Trace)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pcap"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures under {}", dir.display());
    paths
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).expect("fixture bytes");
            let (trace, _) = read_pcap(bytes.as_slice()).expect("fixture decodes");
            (path.display().to_string(), trace)
        })
        .collect()
}

/// The simulated corpus, built once: every profile sending 96 KB clean,
/// with random loss, with a socket buffer well under the offered window
/// (a sender-window plateau), and with both together. Captured at the
/// sender.
fn simulated_corpus() -> &'static [(String, Trace)] {
    static CORPUS: OnceLock<Vec<(String, Trace)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = Vec::new();
        for (i, cfg) in all_profiles().into_iter().enumerate() {
            let seed = 100 + i as u64;
            for (variant, send_buffer, loss) in [
                ("clean", None, LossModel::None),
                ("loss", None, LossModel::Bernoulli(0.03)),
                ("sndbuf", Some(4 * 1024), LossModel::None),
                ("sndbuf-loss", Some(6 * 1024), LossModel::Bernoulli(0.02)),
            ] {
                let mut sender = cfg.clone();
                if let Some(bytes) = send_buffer {
                    sender.send_buffer = bytes;
                }
                let path = PathSpec {
                    loss_data: loss,
                    ..PathSpec::default()
                };
                let out = run_transfer(sender, profiles::reno(), &path, 96 * 1024, seed);
                let label = format!("{} {variant} seed {seed}", cfg.name);
                corpus.push((label, out.sender_trace()));
            }
        }
        corpus
    })
}

/// Totals over the connections compared.
#[derive(Default)]
struct Tally {
    connections: usize,
    with_best_fit: usize,
    /// Connections where some candidate's replay inferred a sender
    /// window, so it ran a second pass.
    second_passes: usize,
}

/// Compares the census reading of `trace` with the full analysis,
/// connection by connection.
fn check(label: &str, analyzer: &Analyzer, trace: &Trace, tally: &mut Tally) {
    let full = analyzer.analyze(trace);
    let (census, _) = analyzer
        .calibrate(trace.clone())
        .census(tcpanaly::obs::span("stage.calibrate"));
    assert_eq!(
        census.len(),
        full.connections.len(),
        "{label}: connection count"
    );
    for (want, verdict) in full.connections.iter().zip(&census) {
        let what = format!("{label} {}", want.description);
        assert_eq!(
            verdict.best.as_ref().map(|b| b.name),
            want.best_fit(),
            "{what}: best fit"
        );
        let want_delays = want
            .fingerprint
            .first()
            .filter(|top| top.fit == FitClass::Close)
            .map(|top| top.analysis.response_delays.samples().to_vec());
        let got_delays = verdict
            .best
            .as_ref()
            .map(|b| b.analysis.response_delays.samples().to_vec());
        assert_eq!(got_delays, want_delays, "{what}: best fit's delays");
        let mut want_close = close_fits(&want.fingerprint);
        let mut got_close = verdict.close.clone();
        want_close.sort_unstable();
        got_close.sort_unstable();
        assert_eq!(got_close, want_close, "{what}: close set");

        tally.connections += 1;
        tally.with_best_fit += usize::from(verdict.best.is_some());
        tally.second_passes += usize::from(
            want.fingerprint
                .iter()
                .any(|r| r.analysis.inferred_sender_window.is_some()),
        );
    }
}

#[test]
fn census_reading_matches_full_analysis_on_fixtures() {
    let mut tally = Tally::default();
    for (label, trace) in &fixture_traces() {
        check(label, &Analyzer::new(), trace, &mut tally);
    }
    assert!(tally.with_best_fit > 0, "fixtures exercise a best fit");
}

#[test]
fn census_reading_matches_full_analysis_on_simulated_corpus() {
    let mut tally = Tally::default();
    for (label, trace) in simulated_corpus() {
        check(label, &Analyzer::at_sender(), trace, &mut tally);
    }
    assert_eq!(tally.connections, 22 * 4);
    assert!(tally.with_best_fit > 0);
    assert!(
        tally.second_passes > 0,
        "the corpus must exercise second (sender-window) passes"
    );
}

/// Checks, on every connection of `trace`, that [`fingerprint`] gives
/// each candidate what [`fingerprint_one`] gives it, in every field of
/// its analysis; returns how many candidate analyses were compared.
fn check_entry_points(label: &str, analyzer: &Analyzer, trace: &Trace) -> usize {
    let mut compared = 0;
    for conn in &analyzer.calibrate(trace.clone()).connections {
        let shared = fingerprint(conn);
        let single: Vec<_> = all_profiles()
            .iter()
            .filter_map(|cfg| fingerprint_one(conn, cfg))
            .collect();
        let what = format!("{label} {} -> {}", conn.sender, conn.receiver);
        assert_eq!(shared.len(), single.len(), "{what}: candidates");
        for one in &single {
            let what = format!("{what}, {}", one.name);
            let r = shared
                .iter()
                .find(|r| r.name == one.name)
                .unwrap_or_else(|| panic!("{what}: missing from fingerprint()"));
            assert_eq!(r.fit, one.fit, "{what}: fit");
            assert_same_analysis(&what, &r.analysis, &one.analysis);
            compared += 1;
        }
    }
    compared
}

/// Asserts that two analyses agree in every field. The destructuring is
/// exhaustive, so a new field fails to compile here until it is compared.
fn assert_same_analysis(what: &str, got: &SenderAnalysis, want: &SenderAnalysis) {
    let SenderAnalysis {
        response_delays,
        issues,
        reseq_cured_violations,
        inferred_sender_window,
        inferred_quenches,
        zero_window_probes,
        data_packets,
        retransmissions,
        retx_causes,
    } = got;
    assert_eq!(
        response_delays.samples(),
        want.response_delays.samples(),
        "{what}: response delays"
    );
    assert_eq!(*issues, want.issues, "{what}: issues");
    assert_eq!(
        *reseq_cured_violations, want.reseq_cured_violations,
        "{what}: cured violations"
    );
    assert_eq!(
        *inferred_sender_window, want.inferred_sender_window,
        "{what}: inferred sender window"
    );
    assert_eq!(
        *inferred_quenches, want.inferred_quenches,
        "{what}: inferred quenches"
    );
    assert_eq!(
        *zero_window_probes, want.zero_window_probes,
        "{what}: zero-window probes"
    );
    assert_eq!(*data_packets, want.data_packets, "{what}: data packets");
    assert_eq!(
        *retransmissions, want.retransmissions,
        "{what}: retransmissions"
    );
    assert_eq!(
        *retx_causes, want.retx_causes,
        "{what}: retransmission causes"
    );
}

#[test]
fn shared_preparation_matches_per_candidate_fingerprint_on_fixtures() {
    let compared: usize = fixture_traces()
        .iter()
        .map(|(label, trace)| check_entry_points(label, &Analyzer::new(), trace))
        .sum();
    assert!(compared > 0, "fixtures exercise sender replay");
}

#[test]
fn shared_preparation_matches_per_candidate_fingerprint_on_simulated_corpus() {
    let compared: usize = simulated_corpus()
        .iter()
        .map(|(label, trace)| check_entry_points(label, &Analyzer::at_sender(), trace))
        .sum();
    assert_eq!(compared, 22 * 4 * 22);
}

/// The census's replay work on the simulated corpus, read back from the
/// `--metrics-out` of a `tcpanaly --sender` census over it as pcaps: the
/// replay passes, the records they visit, the candidates settled before
/// the last record, and the candidates that took a class-mate's verdict
/// without a replay; then the records the lockstep groups stepped and
/// the groups forked off. A change that should not move the replay work
/// must leave these counts exactly as they are.
#[test]
fn census_replay_work_is_pinned_on_simulated_corpus() {
    let dir = std::env::temp_dir().join(format!("tcpanaly_replay_work_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (i, (_, trace)) in simulated_corpus().iter().enumerate() {
        let file = std::fs::File::create(dir.join(format!("t{i:02}.pcap"))).expect("create");
        pcap_io::write_pcap(trace, file, TsResolution::Micro, 0).expect("write pcap");
    }
    let metrics = dir.join("metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tcpanaly"))
        .args(["--jobs", "1", "--sender", "--metrics-out"])
        .arg(&metrics)
        .arg(&dir)
        .output()
        .expect("run tcpanaly");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    let doc = json::Value::parse(&text).expect("parse metrics");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("counter {name:?} missing from {text}"))
    };
    let work = [
        counter("fingerprint.replays"),
        counter("fingerprint.replay_records"),
        counter("fingerprint.replays_settled_early"),
        counter("fingerprint.replays_shared"),
    ];
    let lockstep = [
        counter("fingerprint.lockstep_records"),
        counter("fingerprint.forks"),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        work,
        [1319, 77_375, 677, 984],
        "replays, replay records, settled early, shared"
    );
    assert_eq!(lockstep, [37_817, 663], "lockstep records, forks");
}
