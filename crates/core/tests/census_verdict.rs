//! The census reads each connection's fingerprint through
//! [`Calibrated::census`], which replays a candidate only until it is
//! settled whether it fits closely and skips profiles that behave exactly
//! like an earlier one. This suite checks that the shortcut never changes
//! what the census reads, against the full [`Analyzer::analyze`], on every
//! connection of the committed fixtures and of a simulated corpus over
//! all 22 profiles with loss and with socket-buffer-limited senders (the
//! case where a replay needs a second, sender-window pass, §6.2):
//!
//! * the best fit (close, lowest mean response delay, earliest profile on
//!   a tie);
//! * the best fit's response-delay samples;
//! * the set of close candidates.

use std::path::Path;

use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::{self, all_profiles};
use tcpa_trace::pcap_io::read_pcap;
use tcpa_trace::Trace;
use tcpanaly::fingerprint::{close_fits, FitClass};
use tcpanaly::Analyzer;

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
    let census = analyzer.calibrate(trace).census();
    assert_eq!(
        census.connections.len(),
        full.connections.len(),
        "{label}: connection count"
    );
    for (want, got) in full.connections.iter().zip(&census.connections) {
        let what = format!("{label} {}", want.description);
        assert_eq!(got.description, want.description, "{what}");
        let verdict = &got.fingerprint;
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
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pcap"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures under {}", dir.display());
    let mut tally = Tally::default();
    for path in &paths {
        let bytes = std::fs::read(path).expect("fixture bytes");
        let (trace, _) = read_pcap(bytes.as_slice()).expect("fixture decodes");
        check(
            &path.display().to_string(),
            &Analyzer::new(),
            &trace,
            &mut tally,
        );
    }
    assert!(tally.with_best_fit > 0, "fixtures exercise a best fit");
}

#[test]
fn census_reading_matches_full_analysis_on_simulated_corpus() {
    let mut tally = Tally::default();
    for (i, cfg) in all_profiles().into_iter().enumerate() {
        let seed = 100 + i as u64;
        // Clean; random loss; a socket buffer well under the offered
        // window (a sender-window plateau); both together.
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
            check(
                &label,
                &Analyzer::at_sender(),
                &out.sender_trace(),
                &mut tally,
            );
        }
    }
    assert_eq!(tally.connections, 22 * 4);
    assert!(tally.with_best_fit > 0);
    assert!(
        tally.second_passes > 0,
        "the corpus must exercise second (sender-window) passes"
    );
}
