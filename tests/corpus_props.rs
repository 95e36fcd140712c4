//! Randomized whole-stack properties: arbitrary implementation pairings
//! on arbitrary paths must complete reliably, conserve bytes, and stay
//! analyzable — the reproduction's fuzz harness over the full pipeline.

use proptest::prelude::*;
use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::mangle::{mangle, MangleSpec};
use tcpa_trace::{pcap_io, Connection, CorpusItem, Dir, Duration, MemorySource};
use tcpa_wire::TsResolution;
use tcpanaly::corpus::{analyze_corpus, CorpusConfig, DegradePolicy};
use tcpanaly::sender::analyze_sender;
use tcpanaly::Analyzer;

fn arb_path() -> impl Strategy<Value = PathSpec> {
    (
        prop_oneof![
            Just(64_000u64),
            Just(128_000u64),
            Just(256_000u64),
            Just(1_544_000u64),
            Just(10_000_000u64)
        ],
        1i64..250,
        2usize..40,
        prop_oneof![
            3 => Just(LossModel::None),
            1 => (0.001f64..0.04).prop_map(LossModel::Bernoulli),
            1 => (5u64..40).prop_map(LossModel::Periodic),
        ],
    )
        .prop_map(|(rate, delay, queue, loss)| PathSpec {
            rate_bps: rate,
            one_way_delay: Duration::from_millis(delay),
            queue_cap: queue,
            loss_data: loss,
            ..PathSpec::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reliability: every profile pair on every path delivers exactly the
    /// requested bytes (plus FIN), whatever the loss pattern.
    #[test]
    fn transfers_always_complete_and_conserve_bytes(
        path in arb_path(),
        si in 0usize..16,
        ri in 0usize..16,
        bytes in 4_096u64..80_000,
        seed in any::<u64>(),
    ) {
        let ps = all_profiles();
        let sender = ps[si % ps.len()].clone();
        let receiver = ps[ri % ps.len()].clone();
        let out = run_transfer(sender.clone(), receiver.clone(), &path, bytes, seed);
        prop_assert!(
            out.completed,
            "{} -> {} failed on {:?}", sender.name, receiver.name, path
        );
        prop_assert_eq!(out.sender_stats.bytes_acked, bytes + 1, "data + FIN");
        // The receiver-side trace carries at least the payload bytes.
        let conn = Connection::split(&out.receiver_trace()).remove(0);
        let delivered = conn.payload_bytes(Dir::SenderToReceiver);
        prop_assert!(delivered >= bytes, "delivered {delivered} < {bytes}");
    }

    /// Soundness: perfect-filter traces never produce calibration
    /// evidence, and the generating profile never draws hard issues,
    /// regardless of path or peer.
    #[test]
    fn analyzer_never_false_alarms_on_perfect_traces(
        path in arb_path(),
        si in 0usize..16,
        bytes in 8_192u64..60_000,
        seed in any::<u64>(),
    ) {
        let ps = all_profiles();
        let sender = ps[si % ps.len()].clone();
        let out = run_transfer(sender.clone(), tcpa_tcpsim::profiles::reno(), &path, bytes, seed);
        prop_assume!(out.completed);
        let trace = out.sender_trace();
        let calibrated = Analyzer::at_sender().calibrate(trace);
        let cal = &calibrated.report;
        prop_assert!(
            cal.drop_evidence.is_empty(),
            "{}: false drop evidence {:?}", sender.name, cal.drop_evidence.first()
        );
        prop_assert!(cal.duplicates.is_empty());
        prop_assert!(cal.time_travel.is_empty());
        let conn = &calibrated.connections[0];
        if let Some(a) = analyze_sender(conn, &sender) {
            prop_assert_eq!(
                a.hard_issues(), 0,
                "{} self-fit issues: {:?}", sender.name,
                a.issues.iter().take(2).collect::<Vec<_>>()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Robustness at the pipeline level: a corpus where a random subset of
    /// captures is mangled never panics the batch engine under the
    /// salvage policy, every item is accounted for, and the merged census
    /// is byte-identical whatever the worker count.
    #[test]
    fn mangled_corpus_batch_never_panics_and_is_deterministic(
        seed in any::<u64>(),
        n_faults in 1usize..4,
    ) {
        let ps = all_profiles();
        let mut items = Vec::new();
        for i in 0..8usize {
            let out = run_transfer(
                ps[(seed as usize + i) % ps.len()].clone(),
                tcpa_tcpsim::profiles::reno(),
                &PathSpec::default(),
                8 * 1024,
                seed ^ i as u64,
            );
            let bytes = pcap_io::write_pcap(
                &out.sender_trace(), Vec::new(), TsResolution::Micro, 0,
            ).unwrap();
            // Mangle every third capture.
            let bytes = if i % 3 == 0 {
                let spec = MangleSpec { seed: seed ^ 0xfa17, faults: n_faults, ..MangleSpec::default() };
                mangle(&bytes, &spec).0
            } else {
                bytes
            };
            items.push(CorpusItem::pcap_bytes(format!("m{i}"), bytes));
        }
        let config = |jobs| CorpusConfig {
            jobs,
            degrade: DegradePolicy::Salvage,
            ..CorpusConfig::default()
        };
        let one = analyze_corpus(MemorySource::new(items.clone()), &config(1));
        let four = analyze_corpus(MemorySource::new(items), &config(4));
        prop_assert_eq!(one.census.items_total, 8);
        prop_assert_eq!(one.census.panics, 0, "salvage policy must not panic");
        prop_assert_eq!(one.census.analyzed + one.census.salvaged + one.census.failed(), 8);
        prop_assert!(!one.aborted);
        prop_assert_eq!(one.render(), four.render(), "census must not depend on jobs");
    }
}
