// PathSpec scenarios are configured field-by-field from the default so
// each deviation reads as one labelled line.
#![allow(clippy::field_reassign_with_default)]

//! End-to-end validation: traces produced by the TCP endpoint simulators
//! over the network simulator, measured by (perfect or faulty) packet
//! filters, must be correctly calibrated and fingerprinted by tcpanaly.
//!
//! This is the reproduction's equivalent of the paper's regression suite
//! (§5: "the importance of regression testing against the entire set of
//! available traces").

use tcpa_filter::{apply, DropModel, FilterConfig};
use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, run_transfer_with, Extras, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{Connection, Duration, Time};
use tcpanaly::calibrate::DropCheck;
use tcpanaly::fingerprint::{fingerprint_one, FitClass};
use tcpanaly::receiver::{analyze_receiver, AckClass, PolicyGuess};
use tcpanaly::sender::analyze_sender;
use tcpanaly::Analyzer;

const KB100: u64 = 100 * 1024;

fn sender_conn(out: &tcpa_tcpsim::harness::TransferOutcome) -> Connection {
    Connection::split(&out.sender_trace()).remove(0)
}

fn receiver_conn(out: &tcpa_tcpsim::harness::TransferOutcome) -> Connection {
    Connection::split(&out.receiver_trace()).remove(0)
}

// ---------------------------------------------------------------------
// Self-fit: every implementation's clean trace fits its own profile
// ---------------------------------------------------------------------

#[test]
fn every_profile_fits_its_own_clean_trace() {
    for cfg in profiles::all_profiles() {
        let name = cfg.name;
        let out = run_transfer(
            cfg.clone(),
            profiles::reno(),
            &PathSpec::default(),
            KB100,
            21,
        );
        assert!(out.completed, "{name}");
        let conn = sender_conn(&out);
        let fit = fingerprint_one(&conn, &cfg).expect("analyzable");
        assert_eq!(
            fit.fit,
            FitClass::Close,
            "{name} should fit its own trace: {:?} (delays mean {:?})",
            fit.analysis.issues.iter().take(3).collect::<Vec<_>>(),
            fit.analysis.response_delays.mean(),
        );
    }
}

#[test]
fn self_fit_survives_network_loss() {
    let mut path = PathSpec::default();
    path.loss_data = LossModel::Periodic(31);
    for cfg in [
        profiles::reno(),
        profiles::tahoe(),
        profiles::linux_1_0(),
        profiles::solaris_2_4(),
    ] {
        let name = cfg.name;
        let out = run_transfer(cfg.clone(), profiles::reno(), &path, KB100, 22);
        assert!(out.completed, "{name}");
        let conn = sender_conn(&out);
        let a = analyze_sender(&conn, &cfg).unwrap();
        assert_eq!(
            a.hard_issues(),
            0,
            "{name} under loss: {:?}",
            a.issues.iter().take(3).collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------
// Discrimination: grossly different implementations are rejected
// ---------------------------------------------------------------------

#[test]
fn reno_trace_rejects_linux_and_solaris_models() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        KB100,
        23,
    );
    let conn = sender_conn(&out);
    for wrong in [profiles::linux_1_0(), profiles::solaris_2_4()] {
        let fit = fingerprint_one(&conn, &wrong).unwrap();
        assert_eq!(
            fit.fit,
            FitClass::ClearlyIncorrect,
            "{} must not explain a Reno trace",
            wrong.name
        );
    }
}

#[test]
fn linux_storm_trace_rejects_reno_model() {
    let mut path = PathSpec::default();
    path.loss_data = LossModel::Periodic(20);
    path.queue_cap = 8;
    let out = run_transfer(
        profiles::linux_1_0(),
        profiles::linux_1_0(),
        &path,
        KB100,
        24,
    );
    let conn = sender_conn(&out);
    let lin = fingerprint_one(&conn, &profiles::linux_1_0()).unwrap();
    assert_eq!(
        lin.fit,
        FitClass::Close,
        "{:?}",
        lin.analysis.issues.iter().take(3).collect::<Vec<_>>()
    );
    let reno = fingerprint_one(&conn, &profiles::reno()).unwrap();
    assert_eq!(
        reno.fit,
        FitClass::ClearlyIncorrect,
        "broken Linux retransmission cannot look like Reno"
    );
}

#[test]
fn solaris_premature_retx_trace_rejects_reno_model() {
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(335); // RTT ≈ 680 ms
    let out = run_transfer(profiles::solaris_2_4(), profiles::reno(), &path, KB100, 25);
    let conn = sender_conn(&out);
    let sol = fingerprint_one(&conn, &profiles::solaris_2_4()).unwrap();
    assert_eq!(
        sol.fit,
        FitClass::Close,
        "{:?}",
        sol.analysis.issues.iter().take(3).collect::<Vec<_>>()
    );
    let reno = fingerprint_one(&conn, &profiles::reno()).unwrap();
    assert_eq!(reno.fit, FitClass::ClearlyIncorrect);
}

#[test]
fn net3_burst_fits_net3_but_not_plain_reno() {
    // Receiver omits its MSS option: the §8.4 trigger.
    let mut receiver = profiles::reno();
    receiver.send_mss_option = false;
    receiver.recv_window = 16_384;
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(100);
    path.queue_cap = 64; // big enough that the burst survives
    let out = run_transfer(profiles::net3(), receiver, &path, KB100, 26);
    let conn = sender_conn(&out);
    let net3 = fingerprint_one(&conn, &profiles::net3()).unwrap();
    assert_eq!(
        net3.fit,
        FitClass::Close,
        "{:?}",
        net3.analysis.issues.iter().take(3).collect::<Vec<_>>()
    );
    let reno = fingerprint_one(&conn, &profiles::reno()).unwrap();
    assert_eq!(
        reno.fit,
        FitClass::ClearlyIncorrect,
        "a correct Reno cannot blast 30 packets from a cold start"
    );
}

#[test]
fn full_fingerprint_ranks_generator_close() {
    let out = run_transfer(
        profiles::solaris_2_4(),
        profiles::reno(),
        &PathSpec::default(),
        KB100,
        27,
    );
    let conn = sender_conn(&out);
    let results = tcpanaly::fingerprint::fingerprint(&conn);
    let close = tcpanaly::fingerprint::close_fits(&results);
    assert!(
        close.contains(&"Solaris 2.4"),
        "generator among close fits, got {close:?}"
    );
}

// ---------------------------------------------------------------------
// §6.2: implicit-state inference on simulated traces
// ---------------------------------------------------------------------

#[test]
fn sender_window_inferred_from_simulated_buffer_limit() {
    let mut cfg = profiles::reno();
    cfg.send_buffer = 8 * 1024; // 8 KB socket buffer ≪ 16 KB offered
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(100); // keep cwnd growing
    let out = run_transfer(cfg.clone(), profiles::reno(), &path, KB100, 28);
    let conn = sender_conn(&out);
    let a = analyze_sender(&conn, &cfg).unwrap();
    let inferred = a.inferred_sender_window.expect("sender window detected");
    assert!(
        (7 * 1024..=8 * 1024).contains(&inferred),
        "inferred {inferred} vs actual 8192"
    );
    assert_eq!(
        a.hard_issues(),
        0,
        "{:?}",
        a.issues.iter().take(3).collect::<Vec<_>>()
    );
}

#[test]
fn unseen_source_quench_inferred_from_simulated_trace() {
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(50);
    let extras = Extras {
        quench_at: vec![Time::from_millis(700)],
        horizon: None,
        sender_pause: None,
    };
    let out = run_transfer_with(
        profiles::reno(),
        profiles::reno(),
        &path,
        KB100,
        29,
        &extras,
    );
    assert_eq!(out.sender_stats.quenches_received, 1);
    let conn = sender_conn(&out);
    let a = analyze_sender(&conn, &profiles::reno()).unwrap();
    assert_eq!(
        a.inferred_quenches.len(),
        1,
        "quench inferred; issues {:?}",
        a.issues.iter().take(3).collect::<Vec<_>>()
    );
    assert_eq!(a.hard_issues(), 0);
}

// ---------------------------------------------------------------------
// §7/§9: receiver analysis on simulated traces
// ---------------------------------------------------------------------

#[test]
fn bsd_receiver_policy_identified_as_heartbeat() {
    // A slow path (48 kb/s, §9.1's sub-optimal band) so segments arrive
    // one at a time and sit until the 200 ms heartbeat.
    let mut path = PathSpec::default();
    path.rate_bps = 48_000;
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, 48 * 1024, 30);
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    match a.policy {
        PolicyGuess::Heartbeat { period_ms } => {
            assert!((120..=260).contains(&period_ms), "period {period_ms}");
        }
        other => panic!(
            "expected heartbeat, got {other:?} (delays mean {:?})",
            a.ack_delays.mean()
        ),
    }
    assert!(a.count(AckClass::Gratuitous) == 0);
}

#[test]
fn linux_receiver_policy_identified_as_every_packet() {
    let out = run_transfer(
        profiles::reno(),
        profiles::linux_1_0(),
        &PathSpec::default(),
        KB100,
        31,
    );
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    assert_eq!(
        a.policy,
        PolicyGuess::EveryPacket,
        "{:?}",
        a.ack_delays.mean()
    );
}

#[test]
fn solaris_receiver_policy_identified_as_interval_timer() {
    // Slow path: single segments arrive > 50 ms apart, so every ack is a
    // 50 ms-delayed ack (§9.1's sub-optimality analysis).
    let mut path = PathSpec::default();
    path.rate_bps = 64_000;
    let out = run_transfer(
        profiles::reno(),
        profiles::solaris_2_4(),
        &path,
        48 * 1024,
        32,
    );
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    match a.policy {
        PolicyGuess::IntervalTimer { delay_ms } => {
            assert!((35..=65).contains(&delay_ms), "delay {delay_ms}");
        }
        other => panic!(
            "expected interval timer, got {other:?} (mean {:?} / max {:?})",
            a.delayed_ack_delays.mean(),
            a.delayed_ack_delays.max()
        ),
    }
}

#[test]
fn solaris_23_gratuitous_acks_flagged() {
    let out = run_transfer(
        profiles::reno(),
        profiles::solaris_2_3(),
        &PathSpec::default(),
        KB100,
        33,
    );
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    assert!(
        a.count(AckClass::Gratuitous) > 0,
        "2.3's acking bug produces gratuitous acks"
    );

    let out = run_transfer(
        profiles::reno(),
        profiles::solaris_2_4(),
        &PathSpec::default(),
        KB100,
        33,
    );
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    assert_eq!(a.count(AckClass::Gratuitous), 0, "2.4 fixed it");
}

#[test]
fn corruption_inferred_from_receiver_behavior() {
    let mut path = PathSpec::default();
    path.corrupt_data = LossModel::DropList(vec![20]);
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, KB100, 34);
    assert!(out.completed);
    assert_eq!(out.receiver_stats.corrupt_discarded, 1);
    // Header-only capture: strip checksum knowledge before analysis.
    let mut trace = out.receiver_trace();
    for rec in &mut trace.records {
        rec.checksum_ok = None;
    }
    let conn = Connection::split(&trace).remove(0);
    let a = analyze_receiver(&conn).unwrap();
    assert_eq!(
        a.corrupt_arrivals.len(),
        1,
        "exactly the corrupted arrival inferred"
    );
}

// ---------------------------------------------------------------------
// §3: calibration against simulated filter errors
// ---------------------------------------------------------------------

#[test]
fn perfect_filter_trace_is_clean() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        KB100,
        35,
    );
    let report = Analyzer::at_sender().calibrate(out.sender_trace()).report;
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn genuine_network_loss_produces_no_drop_evidence() {
    // The crucial §3.1.1 distinction: network drops must NOT be mistaken
    // for filter drops.
    let mut path = PathSpec::default();
    path.loss_data = LossModel::Periodic(23);
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, KB100, 36);
    assert!(out.truth.total_drops() > 0);
    let report = Analyzer::at_sender().calibrate(out.sender_trace()).report;
    assert!(
        report.drop_evidence.is_empty(),
        "network drops misdiagnosed: {:?}",
        report.drop_evidence.iter().take(3).collect::<Vec<_>>()
    );
}

#[test]
fn filter_drops_detected_at_sender_vantage() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        KB100,
        37,
    );
    // Shed a burst of records from the sender-side filter.
    let cfg = FilterConfig {
        drops: DropModel::Burst { start: 40, len: 6 },
        ..FilterConfig::default()
    };
    let (measured, report) = apply(&out.sender_tap, &cfg, 99);
    assert_eq!(report.dropped_indices.len(), 6);
    let cal = Analyzer::at_sender().calibrate(measured).report;
    assert!(
        !cal.drop_evidence.is_empty(),
        "burst of missing records must be noticed"
    );
    assert!(cal.drop_evidence.iter().any(|e| matches!(
        e.check,
        DropCheck::AckOfUnseenData | DropCheck::DataHoleSkipped | DropCheck::IdentSequenceGap
    )));
}

#[test]
fn irix_duplication_detected_and_removed() {
    let out = run_transfer(
        profiles::irix(),
        profiles::reno(),
        &PathSpec::default(),
        KB100,
        38,
    );
    let (measured, report) = apply(&out.sender_tap, &FilterConfig::irix_duplicating(), 7);
    assert!(report.duplicates_added > 0);
    let cal = Analyzer::at_sender().calibrate(measured.clone());
    assert_eq!(
        cal.report.duplicates.len(),
        report.duplicates_added,
        "every filter duplicate found"
    );
    // After removal the trace matches the perfect trace in record count.
    let clean_len: usize = cal.connections.iter().map(|c| c.records.len()).sum();
    assert_eq!(clean_len, measured.len() - report.duplicates_added);
}

#[test]
fn solaris_resequencing_detected() {
    // Tight ack→data sequences on a fast path, measured by a Solaris
    // filter: ordering inversions must be flagged.
    let mut path = PathSpec::default();
    path.one_way_delay = Duration::from_millis(5);
    path.proc_delay = Duration::from_micros(50);
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, KB100, 39);
    let (measured, report) = apply(&out.sender_tap, &FilterConfig::solaris_resequencing(), 11);
    assert!(report.inversions > 0, "model produced inversions");
    let mut cal = Analyzer::at_sender().calibrate(measured);
    // Resequencing surfaces either through the structural detectors
    // (§3.1.3's three situations) or as model-level violations cured by
    // an ack recorded ≤ ε later during sender analysis.
    let conn = cal.connections.remove(0);
    let a = analyze_sender(&conn, &profiles::reno()).unwrap();
    assert!(
        !cal.report.resequencing.is_empty() || a.reseq_cured_violations > 0,
        "resequencing must be detected ({} inversions; issues {:?})",
        report.inversions,
        a.issues.iter().take(3).collect::<Vec<_>>()
    );
}

#[test]
fn time_travel_detected() {
    // A slower path so the transfer outlasts the filter clock's sync
    // period and the backward steps land inside the trace.
    let mut path = PathSpec::default();
    path.rate_bps = 256_000;
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, KB100, 40);
    // A fast clock stepped back 150 ms every second — larger than the
    // trace's widest inter-record gap, so every step is visible.
    let cfg = FilterConfig {
        clock: tcpa_filter::ClockModel::fast_with_periodic_sync(
            300.0,
            Duration::from_secs(1),
            Duration::from_millis(150),
            Time::from_secs(30),
        ),
        ..FilterConfig::default()
    };
    let (measured, _) = apply(&out.sender_tap, &cfg, 13);
    let cal = Analyzer::at_sender().calibrate(measured).report;
    assert!(
        !cal.time_travel.is_empty(),
        "backward clock steps must be detected"
    );
}

#[test]
fn analyzer_facade_end_to_end() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        KB100,
        41,
    );
    let report = tcpanaly::Analyzer::at_sender().analyze(&out.sender_trace());
    assert_eq!(report.connections.len(), 1);
    let conn = &report.connections[0];
    assert!(conn.best_fit().is_some(), "some profile must fit");
    let rendered = report.render();
    assert!(rendered.contains("Calibration"));
    assert!(rendered.contains("close"));
}

// ---------------------------------------------------------------------
// Zero-window probing (the [CL94] active-probing territory)
// ---------------------------------------------------------------------

#[test]
fn window_limited_transfer_still_self_fits() {
    // A slow-reading receiver shuts the window; the sender probes; the
    // analyzer must classify the probes rather than flag violations.
    let mut receiver = profiles::reno();
    receiver.app_read_rate = Some(512);
    receiver.recv_window = 4 * 1460;
    let out = run_transfer(
        profiles::reno(),
        receiver,
        &PathSpec::default(),
        16 * 1024,
        60,
    );
    assert!(out.completed);
    assert!(out.sender_stats.zero_window_probes > 0);
    let conn = sender_conn(&out);
    let a = analyze_sender(&conn, &profiles::reno()).unwrap();
    assert_eq!(
        a.hard_issues(),
        0,
        "{:?}",
        a.issues.iter().take(3).collect::<Vec<_>>()
    );
    assert!(a.zero_window_probes > 0, "probes recognized, not flagged");
    // The socket-buffer inference must not misfire on a *receiver*-window
    // limit (it is the offered window doing the limiting here).
    assert_eq!(a.inferred_sender_window, None);
}

#[test]
fn probe_rejections_not_mistaken_for_corruption() {
    let mut receiver = profiles::reno();
    receiver.app_read_rate = Some(0); // frozen application
    receiver.recv_window = 4 * 1460;
    let extras = Extras {
        quench_at: vec![],
        horizon: Some(Time::from_secs(120)),
        sender_pause: None,
    };
    let out = run_transfer_with(
        profiles::reno(),
        receiver,
        &PathSpec::default(),
        32 * 1024,
        61,
        &extras,
    );
    assert!(out.receiver_stats.window_rejected > 0);
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    assert!(
        a.corrupt_arrivals.is_empty(),
        "rejected probes are flow control, not corruption: {:?}",
        a.corrupt_arrivals
    );
    assert_eq!(a.count(AckClass::Gratuitous), 0);
}

// ---------------------------------------------------------------------
// Connection establishment (§2's [CL94]/[St96] territory)
// ---------------------------------------------------------------------

#[test]
fn syn_retry_schedule_extracted_from_lossy_handshake() {
    use tcpanaly::handshake::{analyze_handshake, BackoffShape};
    // Lose the first SYN on the data path: the initiator must retry.
    let mut path = PathSpec::default();
    path.loss_data = LossModel::DropList(vec![0]);
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, 16 * 1024, 70);
    assert!(out.completed, "retry rescues the handshake");
    let conn = sender_conn(&out);
    let h = analyze_handshake(&conn).expect("SYNs in trace");
    assert_eq!(h.retries(), 1);
    let rto = h.initial_rto.unwrap();
    assert!(
        (Duration::from_secs(5)..=Duration::from_secs(7)).contains(&rto),
        "BSD 6 s connection timer, got {rto}"
    );
    assert!(h.consistent_with(&profiles::reno()));
    assert_eq!(h.shape, BackoffShape::Unknown, "one gap: shape unknowable");
}

#[test]
fn syn_backoff_doubles_across_repeated_loss() {
    use tcpanaly::handshake::{analyze_handshake, BackoffShape};
    // Lose the first three SYNs (they are data-link tx 0, 1, 2).
    let mut path = PathSpec::default();
    path.loss_data = LossModel::DropList(vec![0, 1, 2]);
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, 16 * 1024, 71);
    assert!(out.completed);
    let conn = sender_conn(&out);
    let h = analyze_handshake(&conn).expect("SYNs in trace");
    assert_eq!(h.retries(), 3);
    assert_eq!(h.shape, BackoffShape::Exponential);
    assert!(h.consistent_with(&profiles::reno()));
}

// ---------------------------------------------------------------------
// Receiver-side fingerprinting (splits Solaris 2.3 from 2.4)
// ---------------------------------------------------------------------

#[test]
fn receiver_fingerprint_splits_solaris_siblings() {
    use tcpanaly::fingerprint::fingerprint_receiver;
    let out = run_transfer(
        profiles::reno(),
        profiles::solaris_2_3(),
        &PathSpec::default(),
        100 * 1024,
        72,
    );
    let conn = receiver_conn(&out);
    let fits = fingerprint_receiver(&conn);
    let fit_of = |name: &str| fits.iter().find(|f| f.name == name).unwrap();
    assert!(
        fit_of("Solaris 2.3").consistent,
        "{:?}",
        fit_of("Solaris 2.3").contradictions
    );
    assert!(
        !fit_of("Solaris 2.4").consistent,
        "2.4 lacks the acking bug the trace exhibits"
    );
    // And the BSD heartbeat receivers are all inconsistent here.
    assert!(!fit_of("Generic Reno").consistent);
}

#[test]
fn receiver_fingerprint_identifies_policy_families() {
    use tcpanaly::fingerprint::fingerprint_receiver;
    let mut path = PathSpec::default();
    path.rate_bps = 64_000;
    let out = run_transfer(profiles::reno(), profiles::reno(), &path, 48 * 1024, 73);
    let conn = receiver_conn(&out);
    let fits = fingerprint_receiver(&conn);
    let fit_of = |name: &str| fits.iter().find(|f| f.name == name).unwrap();
    assert!(
        fit_of("Generic Reno").consistent,
        "{:?}",
        fit_of("Generic Reno").contradictions
    );
    assert!(
        !fit_of("Linux 1.0").consistent,
        "a heartbeat receiver is not an ack-every-packet receiver"
    );
    assert!(!fit_of("Solaris 2.4").consistent);
}

// ---------------------------------------------------------------------
// RFC 1122 acking-duty conformance (§7's quoted standard)
// ---------------------------------------------------------------------

#[test]
fn conforming_receivers_draw_no_rfc_violations() {
    for cfg in [
        profiles::reno(),
        profiles::linux_1_0(),
        profiles::solaris_2_4(),
    ] {
        let name = cfg.name;
        let mut path = PathSpec::default();
        path.rate_bps = 128_000;
        let out = run_transfer(profiles::reno(), cfg, &path, 64 * 1024, 80);
        let conn = receiver_conn(&out);
        let a = analyze_receiver(&conn).unwrap();
        assert!(
            a.rfc_violations.is_empty(),
            "{name}: {:?}",
            a.rfc_violations.first()
        );
    }
}

#[test]
fn lazy_acker_flagged_for_both_rfc_duties() {
    // A receiver with a 700 ms heartbeat and an ack-every-5-segments
    // rule breaks both the 500 ms cap and the two-segment rule.
    let mut lazy = profiles::reno();
    lazy.ack_policy = tcpa_tcpsim::AckPolicy::Heartbeat {
        interval: Duration::from_millis(700),
    };
    lazy.ack_every_n = 5;
    let mut path = PathSpec::default();
    path.rate_bps = 128_000;
    let out = run_transfer(profiles::reno(), lazy, &path, 64 * 1024, 81);
    assert!(out.completed);
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    assert!(
        a.rfc_violations.iter().any(|v| v.detail.contains("500 ms")),
        "delay violations expected"
    );
    assert!(
        a.rfc_violations
            .iter()
            .any(|v| v.detail.contains("every two")),
        "two-segment violations expected: {:?}",
        a.rfc_violations.iter().take(3).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------
// Idle periods and keep-alives
// ---------------------------------------------------------------------

#[test]
fn keepalive_and_app_pause_analyzed_cleanly() {
    let mut sender = profiles::reno();
    sender.keepalive_interval = Some(Duration::from_secs(5));
    let extras = Extras {
        quench_at: vec![],
        horizon: None,
        sender_pause: Some((16 * 1024, Duration::from_secs(30))),
    };
    let out = run_transfer_with(
        sender.clone(),
        profiles::reno(),
        &PathSpec::default(),
        48 * 1024,
        92,
        &extras,
    );
    assert!(out.completed);
    assert!(out.sender_stats.keepalives_sent >= 3);
    let conn = sender_conn(&out);
    let a = analyze_sender(&conn, &sender).unwrap();
    assert_eq!(
        a.hard_issues(),
        0,
        "{:?}",
        a.issues.iter().take(3).collect::<Vec<_>>()
    );
    // Receiver analysis: keep-alive responses are mandated, not
    // gratuitous.
    let rconn = receiver_conn(&out);
    let ra = analyze_receiver(&rconn).unwrap();
    assert_eq!(ra.count(AckClass::Gratuitous), 0);
}

// ---------------------------------------------------------------------
// Partial traces (capture started mid-connection)
// ---------------------------------------------------------------------

#[test]
fn trace_without_handshake_is_still_analyzable() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        100 * 1024,
        95,
    );
    let mut trace = out.sender_trace();
    // The filter started late: the handshake and the first flights are
    // missing.
    trace.records.drain(..10);
    let conn = Connection::split(&trace).remove(0);
    let a = analyze_sender(&conn, &profiles::reno()).expect("analyzable without SYN");
    // The replay cannot know the initial congestion state, so early
    // sends may not match — but it must not panic, and the bulk of the
    // steady-state transfer must still be explained.
    assert!(
        a.data_packets > 40,
        "most of the transfer analyzed: {}",
        a.data_packets
    );
    let receiver = analyze_receiver(&conn).expect("receiver analyzable too");
    assert!(receiver.acks.len() > 10);
    // And the facade runs end to end.
    let report = tcpanaly::Analyzer::at_sender().analyze(&trace);
    assert_eq!(report.connections.len(), 1);
}

#[test]
fn headers_only_trace_flows_through_facade() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        64 * 1024,
        96,
    );
    let mut trace = out.sender_trace();
    for rec in &mut trace.records {
        rec.checksum_ok = None; // snap-length capture
    }
    let report = tcpanaly::Analyzer::at_sender().analyze(&trace);
    assert!(report.connections[0].best_fit().is_some());
}

// ---------------------------------------------------------------------
// Stretch-acking receivers (§9.1) and their fingerprint
// ---------------------------------------------------------------------

#[test]
fn stretch_acking_receiver_classified_and_fingerprinted() {
    use tcpanaly::fingerprint::fingerprint_receiver;
    // Windows NT reconstruction acks every ~3 segments.
    let out = run_transfer(
        profiles::reno(),
        tcpa_tcpsim::profiles::windows_nt(),
        &PathSpec::default(),
        100 * 1024,
        97,
    );
    let conn = receiver_conn(&out);
    let a = analyze_receiver(&conn).unwrap();
    assert!(
        a.count(AckClass::Stretch) > a.count(AckClass::Normal),
        "stretch acks dominate: {} stretch vs {} normal",
        a.count(AckClass::Stretch),
        a.count(AckClass::Normal)
    );
    let fits = fingerprint_receiver(&conn);
    let nt = fits.iter().find(|f| f.name == "Windows NT").unwrap();
    assert!(nt.consistent, "{:?}", nt.contradictions);
    let reno = fits.iter().find(|f| f.name == "Generic Reno").unwrap();
    assert!(
        !reno.consistent,
        "an every-two-segments receiver does not stretch-ack"
    );
}
