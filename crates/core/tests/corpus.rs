//! Integration tests for the parallel corpus pipeline: determinism
//! (parallel output byte-identical to serial), panic isolation, and
//! pcap-backed sources.

use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::mangle::{inject, FaultKind};
use tcpa_trace::{pcap_io, CorpusItem, Loaded, MemorySource, Trace};
use tcpa_wire::TsResolution;
use tcpanaly::calibrate::Vantage;
use tcpanaly::corpus::{
    analyze_corpus, run_corpus, AnalysisError, CorpusConfig, DegradePolicy, ItemOutcome,
};
use tcpanaly::Analyzer;

/// A 50-trace simulated corpus mixing implementations, sizes and seeds.
fn build_corpus() -> Vec<CorpusItem> {
    let senders = [
        profiles::reno(),
        profiles::tahoe(),
        profiles::solaris_2_4(),
        profiles::linux_1_0(),
        profiles::windows_95(),
    ];
    let mut items = Vec::new();
    for i in 0..50u64 {
        let cfg = senders[(i % senders.len() as u64) as usize].clone();
        let out = run_transfer(
            cfg,
            profiles::reno(),
            &PathSpec::default(),
            8 * 1024 + 512 * i,
            900 + i,
        );
        items.push(CorpusItem::memory(format!("t{i:02}"), out.sender_trace()));
    }
    items
}

fn config(jobs: usize) -> CorpusConfig {
    CorpusConfig {
        jobs,
        vantage: Vantage::Sender,
        ..CorpusConfig::default()
    }
}

#[test]
fn parallel_census_is_byte_identical_to_serial() {
    let items = build_corpus();
    let serial = analyze_corpus(MemorySource::new(items.clone()), &config(1));
    let parallel = analyze_corpus(MemorySource::new(items), &config(4));
    // Structural equality of every per-item result, in input order...
    assert_eq!(serial.items, parallel.items);
    // ...and the rendered census must match byte for byte.
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.census.analyzed, 50);
    assert_eq!(serial.census.failed(), 0);
}

#[test]
fn items_come_back_in_input_order_regardless_of_workers() {
    let items = build_corpus();
    let report = analyze_corpus(MemorySource::new(items), &config(8));
    let ids: Vec<&str> = report.items.iter().map(|r| r.id.as_str()).collect();
    let expected: Vec<String> = (0..50).map(|i| format!("t{i:02}")).collect();
    assert_eq!(ids, expected.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, item) in report.items.iter().enumerate() {
        assert_eq!(item.index, i);
    }
}

#[test]
fn one_poisoned_trace_costs_one_item_not_the_pipeline() {
    // Silence the default panic hook: the poison's panic is expected and
    // its backtrace would only clutter test output.
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut reports = Vec::new();
    run_corpus(
        MemorySource::new(build_corpus()),
        &config(4),
        |analyzer: &Analyzer, id: &str, loaded: Loaded| {
            if id == "t17" {
                panic!("poisoned corpus item analyzed");
            }
            analyzer.calibrate(loaded.trace).connections.len()
        },
        |report| {
            reports.push(report);
            true
        },
    );
    std::panic::set_hook(prior);
    reports.sort_unstable_by_key(|r| r.index);

    assert_eq!(reports.len(), 50);
    for (i, item) in reports.iter().enumerate() {
        assert_eq!(item.index, i);
        if i == 17 {
            assert!(matches!(
                &item.outcome,
                ItemOutcome::Failed(e @ AnalysisError::Panicked { message })
                    if message.contains("poisoned corpus item")
                        && e.to_string().starts_with("analyzer panic")
            ));
        } else {
            assert_eq!(
                item.outcome,
                ItemOutcome::Analyzed(1),
                "item {i} should have survived the poison at 17"
            );
        }
    }
}

#[test]
fn load_errors_and_empty_traces_are_reported_not_fatal() {
    let items = vec![
        CorpusItem::memory("empty", Trace::new()),
        CorpusItem::pcap("/nonexistent/never.pcap"),
    ];
    let report = analyze_corpus(MemorySource::new(items), &config(2));
    assert_eq!(report.census.items_total, 2);
    assert_eq!(report.census.io_errors, 1);
    // An empty trace analyzes to zero connections rather than failing.
    assert!(matches!(report.items[0].outcome, ItemOutcome::Analyzed(_)));
    assert_eq!(report.census.connections, 0);
}

/// A 12-item corpus of pcap-bytes items where every third capture has a
/// seeded fault injected (≥ the acceptance floor of 10% faulted).
fn mangled_corpus() -> (Vec<CorpusItem>, usize) {
    let kinds = [
        FaultKind::CorruptTimestamp,
        FaultKind::OversizedLength,
        FaultKind::GarbageSplice,
        FaultKind::ZeroLength,
    ];
    let mut items = Vec::new();
    let mut damaged = 0;
    for i in 0..12u64 {
        let out = run_transfer(
            profiles::reno(),
            profiles::reno(),
            &PathSpec::default(),
            8 * 1024,
            7000 + i,
        );
        let bytes =
            pcap_io::write_pcap(&out.sender_trace(), Vec::new(), TsResolution::Micro, 0).unwrap();
        let bytes = if i % 3 == 0 {
            damaged += 1;
            let kind = kinds[(i / 3) as usize % kinds.len()];
            inject(&bytes, kind, 0xdead + i).expect("injectable").0
        } else {
            bytes
        };
        items.push(CorpusItem::pcap_bytes(format!("mc{i:02}"), bytes));
    }
    (items, damaged)
}

#[test]
fn salvage_policy_degrades_damaged_items_instead_of_failing() {
    let (items, damaged) = mangled_corpus();
    let salvage = CorpusConfig {
        jobs: 4,
        vantage: Vantage::Sender,
        degrade: DegradePolicy::Salvage,
        ..CorpusConfig::default()
    };
    let report = analyze_corpus(MemorySource::new(items.clone()), &salvage);
    assert!(!report.aborted);
    assert_eq!(report.census.failed(), 0, "{}", report.render());
    assert_eq!(report.census.salvaged, damaged);
    assert_eq!(report.census.analyzed, 12 - damaged);
    assert!(report.census.bytes_skipped > 0);
    assert!(report.render().contains("salvage:"), "{}", report.render());

    // Deterministic for any worker count.
    let serial = analyze_corpus(
        MemorySource::new(items.clone()),
        &CorpusConfig {
            jobs: 1,
            ..salvage.clone()
        },
    );
    assert_eq!(serial.render(), report.render());

    // Skip (default) policy: the same damage becomes typed failures, and
    // the probe reports what salvage would have recovered.
    let skip = CorpusConfig {
        jobs: 4,
        vantage: Vantage::Sender,
        ..CorpusConfig::default()
    };
    let report = analyze_corpus(MemorySource::new(items.clone()), &skip);
    assert!(!report.aborted);
    assert_eq!(report.census.malformed, damaged, "{}", report.render());
    assert!(report
        .items
        .iter()
        .any(|r| matches!(&r.outcome, ItemOutcome::Failed(AnalysisError::Salvaged { report }) if report.records > 0)));

    // Strict policy: the run aborts and says so.
    let strict = CorpusConfig {
        jobs: 4,
        vantage: Vantage::Sender,
        degrade: DegradePolicy::Strict,
        ..CorpusConfig::default()
    };
    let report = analyze_corpus(MemorySource::new(items), &strict);
    assert!(report.aborted);
    assert!(report.first_failure().is_some());
    assert!(report.render().contains("RUN ABORTED"));
}

#[test]
fn deadline_census_is_identical_to_inline_census() {
    let items = build_corpus();
    let inline = analyze_corpus(MemorySource::new(items.clone()), &config(4));
    let guarded = analyze_corpus(
        MemorySource::new(items),
        &CorpusConfig {
            timeout: Some(std::time::Duration::from_secs(120)),
            ..config(4)
        },
    );
    // A generous deadline changes nothing about the results.
    assert_eq!(inline.render(), guarded.render());
    assert_eq!(guarded.census.timeouts, 0);
}

#[test]
fn auto_vantage_batch_matches_fixed_vantage_on_sender_traces() {
    let items = build_corpus();
    let fixed = analyze_corpus(MemorySource::new(items.clone()), &config(2));
    let auto = analyze_corpus(
        MemorySource::new(items),
        &CorpusConfig {
            jobs: 2,
            vantage: Vantage::Unknown,
            ..CorpusConfig::default()
        },
    );
    // Auto-detection must land on Sender for these traces, so the merged
    // census agrees with the explicitly-configured run.
    assert_eq!(fixed.render(), auto.render());
}
