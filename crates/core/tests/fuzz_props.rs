//! Robustness properties: whatever a packet filter does to a trace —
//! sheds records, duplicates them, scrambles their order, warps their
//! clock, truncates their payloads — the analyzer must neither panic nor
//! blame the TCP for the filter's sins when told about the filter, and
//! replaying one candidate per replay class must give every candidate
//! exactly what its own replay gives it. The owned calibration pass
//! reproduces the clone-based dedup and split it replaced.

#[path = "support/reference_pass.rs"]
mod reference_pass;

use proptest::prelude::*;
use reference_pass::{check_against_reference, interleaved, Flow};
use tcpa_filter::{apply, ClockModel, DropModel, DupModel, FilterConfig, ReseqModel};
use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::{Connection, Duration, Time, Trace, TraceRecord};
use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, SeqNum, TcpFlags, TcpRepr};
use tcpanaly::fingerprint::{census_verdict, close_fits, fingerprint, fingerprint_one, FitClass};
use tcpanaly::receiver::analyze_receiver;
use tcpanaly::sender::analyze_sender;
use tcpanaly::Analyzer;

/// One record of a connection between hosts 1 and 2, 1 ms after the
/// one before it: data from host 1 when `len > 0`, a pure ack from host 2
/// otherwise.
fn record(i: usize, seq: u32, ack: u32, len: u32) -> TraceRecord {
    let (src, dst) = if len > 0 { (1, 2) } else { (2, 1) };
    TraceRecord {
        ts: Time::from_millis(i as i64),
        ip: Ipv4Repr {
            src: Ipv4Addr::from_host_id(src),
            dst: Ipv4Addr::from_host_id(dst),
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
            ..TcpRepr::new(5000 + u16::from(src), 5000 + u16::from(dst))
        },
        payload_len: len,
        checksum_ok: Some(true),
    }
}

fn arb_filter() -> impl Strategy<Value = FilterConfig> {
    (
        prop_oneof![
            3 => Just(DropModel::None),
            1 => (0.0f64..0.2).prop_map(DropModel::Bernoulli),
            1 => (0usize..80, 1usize..20)
                .prop_map(|(start, len)| DropModel::Burst { start, len }),
        ],
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            2 => Just(ClockModel::perfect()),
            1 => (-500.0f64..500.0, 1i64..5, 1i64..200).prop_map(|(ppm, period, step)| {
                ClockModel::fast_with_periodic_sync(
                    ppm,
                    Duration::from_secs(period),
                    Duration::from_millis(step),
                    Time::from_secs(120),
                )
            }),
        ],
        any::<bool>(),
    )
        .prop_map(|(drops, dup, reseq, clock, headers_only)| FilterConfig {
            drops,
            duplication: dup.then(DupModel::default),
            resequencing: reseq.then(ReseqModel::default),
            clock,
            headers_only,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full pipeline digests any filter-mangled trace of any
    /// implementation without panicking, and the report renders.
    #[test]
    fn analyzer_never_panics_on_mangled_traces(
        profile_idx in 0usize..32,
        filter in arb_filter(),
        loss in prop_oneof![2 => Just(LossModel::None), 1 => (10u64..40).prop_map(LossModel::Periodic)],
        seed in any::<u64>(),
    ) {
        let profiles = all_profiles();
        let cfg = profiles[profile_idx % profiles.len()].clone();
        let path = PathSpec {
            loss_data: loss,
            ..PathSpec::default()
        };
        let out = run_transfer(cfg.clone(), profiles[0].clone(), &path, 48 * 1024, seed);
        let (measured, _) = apply(&out.sender_tap, &filter, seed);

        // Calibrate + full façade from both vantages.
        let _ = Analyzer::at_sender().calibrate(measured.clone());
        let report = Analyzer::at_sender().analyze(&measured);
        let _ = report.render();
        let report = Analyzer::at_receiver().analyze(&measured);
        let _ = report.render();

        // And direct module entry points on whatever connections remain.
        for conn in Analyzer::new().calibrate(measured).connections {
            let _ = analyze_sender(&conn, &cfg);
            let _ = analyze_receiver(&conn);
            let _ = tcpanaly::handshake::analyze_handshake(&conn);
            let _ = tcpanaly::fingerprint::fingerprint_receiver(&conn);
        }
    }

    /// With a *clean* filter, the generating profile never collects hard
    /// issues, whatever the path loss or the peer.
    #[test]
    fn self_fit_is_loss_invariant(
        profile_idx in 0usize..32,
        peer_idx in 0usize..32,
        every in 8u64..40,
        seed in any::<u64>(),
    ) {
        let profiles = all_profiles();
        let cfg = profiles[profile_idx % profiles.len()].clone();
        let peer = profiles[peer_idx % profiles.len()].clone();
        let path = PathSpec {
            loss_data: LossModel::Periodic(every),
            ..PathSpec::default()
        };
        let out = run_transfer(cfg.clone(), peer, &path, 48 * 1024, seed);
        prop_assume!(out.completed);
        let conn = Connection::split(&out.sender_trace()).remove(0);
        if let Some(a) = analyze_sender(&conn, &cfg) {
            prop_assert_eq!(
                a.hard_issues(),
                0,
                "{} issues: {:?}",
                cfg.name,
                a.issues.iter().take(2).collect::<Vec<_>>()
            );
        }
    }
    /// Replay classes and lockstep replays are sound: on every
    /// connection of a filtered transfer between random profiles, with or
    /// without loss, each `fingerprint()` entry equals what
    /// `fingerprint_one` gives that candidate alone, for all 22
    /// candidates, and `census_verdict` reads the same close set, best
    /// fit and best-fit delays off it as `fingerprint()`.
    #[test]
    fn shared_class_replays_match_single_candidate_replays(
        profile_idx in 0usize..32,
        peer_idx in 0usize..32,
        loss in prop_oneof![1 => Just(LossModel::None), 2 => (6u64..40).prop_map(LossModel::Periodic)],
        filter in arb_filter(),
        seed in any::<u64>(),
    ) {
        let profiles = all_profiles();
        let cfg = profiles[profile_idx % profiles.len()].clone();
        let peer = profiles[peer_idx % profiles.len()].clone();
        let path = PathSpec {
            loss_data: loss,
            ..PathSpec::default()
        };
        let out = run_transfer(cfg, peer, &path, 48 * 1024, seed);
        let (measured, _) = apply(&out.sender_tap, &filter, seed);
        for conn in &Analyzer::at_sender().calibrate(measured).connections {
            let shared = fingerprint(conn);
            let single: Vec<_> = profiles.iter().filter_map(|c| fingerprint_one(conn, c)).collect();
            prop_assert_eq!(shared.len(), single.len());
            for one in &single {
                let r = shared.iter().find(|r| r.name == one.name);
                // Debug renders every field of the result and its analysis.
                prop_assert_eq!(format!("{r:?}"), format!("{:?}", Some(one)));
            }
            let census = census_verdict(conn);
            let mut want_close = close_fits(&shared);
            let mut got_close = census.close.clone();
            want_close.sort_unstable();
            got_close.sort_unstable();
            prop_assert_eq!(got_close, want_close);
            let best = shared.first().filter(|r| r.fit == FitClass::Close);
            prop_assert_eq!(census.best.as_ref().map(|b| b.name), best.map(|b| b.name));
            prop_assert_eq!(
                census.best.as_ref().map(|b| b.analysis.response_delays.samples().to_vec()),
                best.map(|b| b.analysis.response_delays.samples().to_vec())
            );
        }
    }

    /// The full pipeline digests one connection whose sequence and ack
    /// numbers are scattered over the whole 32-bit space, at every
    /// vantage, and the report renders.
    #[test]
    fn analyzer_never_panics_on_scattered_sequence_numbers(
        segments in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), prop_oneof![1 => Just(0u32), 3 => 1u32..1461]),
            40..64,
        ),
    ) {
        let trace: Trace = segments
            .iter()
            .enumerate()
            .map(|(i, &(seq, ack, len))| record(i, seq, ack, len))
            .collect();
        for analyzer in [Analyzer::new(), Analyzer::at_sender(), Analyzer::at_receiver()] {
            let _ = analyzer.calibrate(trace.clone()).analyze().render();
        }
    }

    /// The owned calibration pass (in-place dedup, time travel on the
    /// cleaned records, each record moved once into its connection)
    /// matches the clone-based reference on 2–3 interleaved connections
    /// through any filter.
    #[test]
    fn owned_pass_matches_clone_based_reference(
        flows in proptest::collection::vec(
            (0usize..22, prop_oneof![1 => Just(None), 1 => (8u64..40).prop_map(Some)], 0i64..400)
                .prop_map(|(profile, loss_every, start_ms)| Flow { profile, loss_every, start_ms }),
            2..4,
        ),
        filter in prop_oneof![
            Just(FilterConfig::irix_duplicating()),
            Just(FilterConfig::solaris_resequencing()),
            Just(FilterConfig::time_travelling(Time::from_secs(120))),
            arb_filter(),
        ],
        seed in any::<u64>(),
    ) {
        let trace = interleaved(&flows, &filter, seed);
        check_against_reference("owned pass", &trace);
    }
}
