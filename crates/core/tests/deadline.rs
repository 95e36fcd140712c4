//! The item deadline contract: with a zero budget every item times out
//! on its own worker, no thread outlives the corpus run, and the trace
//! and audit documents of the timed-out items stay well formed.
//!
//! This is its own test binary with a single test, so the process runs
//! no other test threads while it counts its own.

#[path = "support/obs_docs.rs"]
mod obs_docs;

use std::time::Duration;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{CorpusItem, MemorySource};
use tcpanaly::calibrate::Vantage;
use tcpanaly::corpus::{analyze_corpus, AnalysisError, CorpusConfig, ItemOutcome};
use tcpanaly::obs::trace;
use tcpanaly::obs::EventKind;

const ITEMS: usize = 16;

/// Threads of this process, as the kernel lists them.
#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn zero_budget_times_out_every_item_and_leaves_no_thread_behind() {
    let items: Vec<CorpusItem> = (0..ITEMS as u64)
        .map(|i| {
            let out = run_transfer(
                profiles::reno(),
                profiles::reno(),
                &PathSpec::default(),
                200 * 1024,
                700 + i,
            );
            CorpusItem::memory(format!("big{i}"), out.sender_trace())
        })
        .collect();
    let audit_dir =
        std::env::temp_dir().join(format!("tcpanaly_deadline_audit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&audit_dir);
    let config = CorpusConfig {
        jobs: 2,
        vantage: Vantage::Sender,
        timeout: Some(Duration::ZERO),
        audit_dir: Some(audit_dir.clone()),
        ..CorpusConfig::default()
    };
    trace::enable();
    let _ = trace::drain();

    #[cfg(target_os = "linux")]
    let before = live_threads();
    let report = analyze_corpus(MemorySource::new(items), &config);
    #[cfg(target_os = "linux")]
    {
        // A joined worker leaves the kernel's thread list some
        // microseconds after `join` returns; allow 2 ms for that, far less
        // than one detached analysis would still run.
        let joined = std::time::Instant::now();
        let mut after = live_threads();
        while after != before && joined.elapsed() < Duration::from_millis(2) {
            std::thread::yield_now();
            after = live_threads();
        }
        assert_eq!(after, before, "a thread outlived the corpus run");
    }

    // Every item is a typed timeout.
    assert_eq!(report.census.timeouts, ITEMS, "{}", report.render());
    for item in &report.items {
        assert!(
            matches!(
                item.outcome,
                ItemOutcome::Failed(AnalysisError::Timeout { limit_ms: 0 })
            ),
            "{}: {:?}",
            item.id,
            item.outcome
        );
    }

    // The span tree closes, and each item's timeout instant sits under
    // its corpus.item span.
    let items = trace::drain();
    let mut doc = Vec::new();
    trace::write_chrome(&items, &mut doc).expect("render to a Vec");
    obs_docs::check_tree_invariants(&String::from_utf8(doc).expect("UTF-8"))
        .expect("tree invariants");
    let indices: Vec<u64> = items.iter().map(|item| item.index).collect();
    assert_eq!(indices, (0..ITEMS as u64).collect::<Vec<_>>());
    for item in &items {
        let index = item.index;
        let root = item
            .entries
            .iter()
            .find(|e| e.name == "corpus.item")
            .unwrap_or_else(|| panic!("item {index}: corpus.item span"));
        assert!(
            item.entries.iter().any(|e| e.kind != EventKind::Stage
                && e.name == "timeout"
                && e.parent == Some(root.id)),
            "item {index}: timeout instant under corpus.item"
        );
    }

    // Every audit trail is schema-valid and records the timeout.
    let mut trails = 0;
    for entry in std::fs::read_dir(&audit_dir).expect("audit dir") {
        let text = std::fs::read_to_string(entry.expect("entry").path()).expect("trail");
        obs_docs::validate_audit(&text).expect("schema-valid trail");
        assert!(text.contains("\"outcome\": \"failed.timeout\""), "{text}");
        trails += 1;
    }
    assert_eq!(trails, ITEMS);
    let _ = std::fs::remove_dir_all(&audit_dir);
}
