//! Tests over the checked-in fixture captures in `tests/fixtures/`.
//!
//! The fixtures were generated with `gen_trace` (seeds 11–13) and are
//! committed so the analyzer and the corpus pipeline can be exercised on
//! real pcap bytes without a simulator in the loop — the same contract a
//! user's tcpdump file gets.

use std::path::PathBuf;
use tcpa_trace::{pcap_io, MemorySource};
use tcpanaly::calibrate::Vantage;
use tcpanaly::corpus::{analyze_corpus, CorpusConfig, ItemOutcome};
use tcpanaly::Analyzer;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_reno_clean_fingerprints() {
    let path = fixture_dir().join("reno_clean.pcap");
    let (trace, skipped) =
        pcap_io::read_pcap(std::fs::File::open(&path).expect("fixture present")).unwrap();
    assert_eq!(skipped, 0);
    let report = Analyzer::at_sender().analyze(&trace);
    assert_eq!(report.connections.len(), 1);
    assert!(
        report.connections[0].best_fit().is_some(),
        "clean Reno fixture must have a close fit"
    );
}

#[test]
fn fixture_tahoe_loss_sees_retransmissions() {
    let path = fixture_dir().join("tahoe_loss.pcap");
    let (trace, _) = pcap_io::read_pcap(std::fs::File::open(&path).unwrap()).unwrap();
    let report = Analyzer::at_sender().analyze(&trace);
    let conn = &report.connections[0];
    // The trace was generated with --loss-every 8; a Tahoe-lineage
    // profile must still fit closely through the recovery.
    assert!(conn.best_fit().is_some(), "{}", report.render());
}

#[test]
fn fixture_dir_drives_the_corpus_pipeline() {
    let source = MemorySource::from_pcap_dir(fixture_dir()).unwrap();
    assert_eq!(source.len(), 3, "expected the 3 checked-in pcaps");
    // Vantage differs per fixture (solaris_receiver is a receiver tap),
    // so batch with auto-detection.
    let config = CorpusConfig {
        jobs: 2,
        vantage: Vantage::Unknown,
        ..CorpusConfig::default()
    };
    let report = analyze_corpus(source, &config);
    assert_eq!(report.census.items_total, 3);
    assert_eq!(report.census.failed(), 0, "{}", report.render());
    for item in &report.items {
        assert!(
            matches!(item.outcome, ItemOutcome::Analyzed(_)),
            "{}",
            item.id
        );
    }
    // Every fixture holds exactly one connection.
    assert_eq!(report.census.connections, 3);
    // File-name order: reno_clean, solaris_receiver, tahoe_loss.
    assert!(report.items[0].id.ends_with("reno_clean.pcap"));
    assert!(report.items[1].id.ends_with("solaris_receiver.pcap"));
    assert!(report.items[2].id.ends_with("tahoe_loss.pcap"));
}
