//! Implementation fingerprinting (§5, §6.1).
//!
//! tcpanaly "can automatically run all known implementations against a
//! given trace, sorting them into close, imperfect, and clearly-incorrect
//! fits". The sort key comes straight from sender analysis: a candidate
//! whose replay produces *window violations* or *unexplained
//! retransmissions* clearly is not the traced implementation; one whose
//! liberations are matched but sluggishly (large response delays, lulls)
//! is an imperfect fit; a candidate that explains every packet promptly
//! is a close fit.
//!
//! On one connection most candidates cannot be told apart: a loss-free
//! trace never reaches the fast-retransmit or RTO code. [`fingerprint`]
//! and [`census_verdict`] therefore replay one candidate per replay class
//! of the connection (the knob values its replay can read), and replay
//! those candidates in lockstep, as groups that fork only where their
//! replays diverge. One function maps each profile to the group that
//! replayed its class; that group's analysis, classified once, is the
//! profile's. [`fingerprint_one`] replays its candidate alone.

use crate::receiver::{analyze_receiver, AckClass, PolicyGuess, ReceiverAnalysis};
use crate::sender::{Lockstep, Prepared, ReplayClass, ReplayOptions, SenderAnalysis, Until};
use std::sync::{Arc, OnceLock};
use tcpa_tcpsim::config::{AckPolicy, TcpConfig};
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::{Connection, Duration};

/// How well a candidate implementation explains a trace (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FitClass {
    /// Every packet explained, small response delays.
    Close,
    /// Explained, but with suspiciously large delays or lulls.
    Imperfect,
    /// Window violations or unexplained retransmissions.
    ClearlyIncorrect,
}

impl core::fmt::Display for FitClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FitClass::Close => write!(f, "close"),
            FitClass::Imperfect => write!(f, "imperfect"),
            FitClass::ClearlyIncorrect => write!(f, "clearly incorrect"),
        }
    }
}

/// Response delays under this (90th percentile) qualify as prompt. A real
/// endpoint answers a liberation within its processing delay plus one LAN
/// serialization — a handful of milliseconds; tens of milliseconds still
/// plausibly reflect host scheduling noise.
const CLOSE_P90: Duration = Duration::from_millis(30);

/// One candidate's score against a trace.
#[derive(Debug, Clone)]
pub struct FingerprintResult {
    /// Candidate implementation name.
    pub name: &'static str,
    /// Fit classification.
    pub fit: FitClass,
    /// The full sender analysis behind the classification, shared by
    /// every profile that [`fingerprint`] replayed in one group.
    pub analysis: Arc<SenderAnalysis>,
}

/// Classifies one analysis into a fit class.
pub fn classify(analysis: &SenderAnalysis) -> FitClass {
    if analysis.hard_issues() > 0 {
        return FitClass::ClearlyIncorrect;
    }
    // With nothing to measure, a candidate is vacuously prompt.
    let prompt = analysis.response_delays.percentile_at_most(90.0, CLOSE_P90);
    // Source quenches are rare (the paper found 91 in 20,000 traces); a
    // candidate that needs *repeated* unseen quenches to explain a trace
    // is really a candidate whose window model runs persistently ahead of
    // the sender — an imperfect fit, not a close one.
    if prompt && analysis.lulls() == 0 && analysis.inferred_quenches.len() <= 1 {
        FitClass::Close
    } else {
        FitClass::Imperfect
    }
}

/// Runs one candidate against a connection, on its own: the reference
/// that [`fingerprint`]'s shared replays must agree with.
pub fn fingerprint_one(conn: &Connection, cfg: &TcpConfig) -> Option<FingerprintResult> {
    // `detail.*` spans are sub-stage detail nested inside
    // `stage.fingerprint`; they are excluded from stage-coverage sums so
    // the replay time is not double-counted.
    tcpa_obs::time("detail.sender_replay", || {
        let analysis = Prepared::new(conn)?.analyze(cfg, &ReplayOptions::default())?;
        Some(FingerprintResult {
            name: cfg.name,
            fit: classify(&analysis),
            analysis: Arc::new(analysis),
        })
    })
}

/// Every profile, in `all_profiles()` order (built once per process).
fn profiles() -> &'static [TcpConfig] {
    static PROFILES: OnceLock<Vec<TcpConfig>> = OnceLock::new();
    PROFILES.get_or_init(all_profiles)
}

/// Replays every profile on a prepared connection, as far as `until`
/// says, in one lockstep replay in one `detail.sender_replay` span. Only
/// the first profile of each replay class ([`Prepared::replay_class`]) is
/// replayed; the others share its replay. Returns the replay, whose input
/// is those first profiles, and for each profile the index in its
/// `groups` of the group that replayed the profile's class: that group's
/// analysis is the profile's.
fn replay_profiles(prepared: &Prepared, until: Until) -> (Lockstep, Vec<usize>) {
    let profiles = profiles();
    let classes: Vec<ReplayClass> = profiles.iter().map(|c| prepared.replay_class(c)).collect();
    let mut replayed: Vec<&TcpConfig> = Vec::with_capacity(profiles.len());
    // For each profile, the position of its class's first profile in
    // `replayed`.
    let mut input_of: Vec<usize> = Vec::with_capacity(profiles.len());
    for (j, class) in classes.iter().enumerate() {
        match classes.iter().position(|c| c == class) {
            Some(first) if first < j => input_of.push(input_of[first]),
            _ => {
                input_of.push(replayed.len());
                replayed.push(&profiles[j]);
            }
        }
    }
    let replay = tcpa_obs::time("detail.sender_replay", || prepared.replay(&replayed, until));
    let mut group_of_input = vec![0; replayed.len()];
    for (g, group) in replay.groups.iter().enumerate() {
        for &id in &group.members {
            group_of_input[id] = g;
        }
    }
    let group_of = input_of.iter().map(|&id| group_of_input[id]).collect();
    (replay, group_of)
}

/// Runs every known profile against a connection and sorts the results:
/// close fits first (by mean response delay), then imperfect, then
/// clearly incorrect (by number of hard issues). The connection is
/// prepared once for all of them and replayed as [`replay_profiles`]
/// says; each group's analysis is classified and ranked once, and every
/// profile gets its group's fit and a pointer to its group's analysis
/// under its own name.
pub fn fingerprint(conn: &Connection) -> Vec<FingerprintResult> {
    let Some(prepared) = Prepared::new(conn) else {
        return Vec::new();
    };
    let (replay, group_of) = replay_profiles(&prepared, Until::End);
    let groups: Vec<(RankKey, Arc<SenderAnalysis>)> = replay
        .groups
        .into_iter()
        .map(|g| (rank_key(&g.analysis), Arc::new(g.analysis)))
        .collect();
    let mut ranked: Vec<(RankKey, FingerprintResult)> = profiles()
        .iter()
        .zip(group_of)
        .map(|(cfg, g)| {
            let (key, analysis) = &groups[g];
            let result = FingerprintResult {
                name: cfg.name,
                fit: key.0,
                analysis: Arc::clone(analysis),
            };
            (*key, result)
        })
        .collect();
    // Stable: equal keys keep `all_profiles()` order, so a class-mate
    // ranks after its class's first member.
    ranked.sort_by_key(|&(key, _)| key);
    ranked.into_iter().map(|(_, result)| result).collect()
}

/// A fit's sort key: its class, then hard issues for clearly incorrect
/// fits or mean response delay for the others.
type RankKey = (FitClass, usize, Duration);

/// An analysis's fit and sort key, computed once per replay group (the
/// mean is a pass over every response delay).
fn rank_key(analysis: &SenderAnalysis) -> RankKey {
    match classify(analysis) {
        fit @ FitClass::ClearlyIncorrect => (fit, analysis.hard_issues(), Duration::ZERO),
        fit => (
            fit,
            0,
            analysis.response_delays.mean().unwrap_or(Duration::ZERO),
        ),
    }
}

/// Names of the candidates classified close.
pub fn close_fits(results: &[FingerprintResult]) -> Vec<&'static str> {
    results
        .iter()
        .filter(|r| r.fit == FitClass::Close)
        .map(|r| r.name)
        .collect()
}

/// What the census reads of a connection's fingerprint: which candidates
/// fit closely, and the best of them.
#[derive(Debug, Clone, Default)]
pub struct CensusVerdict {
    /// Names of the candidates classified close, in `all_profiles()`
    /// order.
    pub close: Vec<&'static str>,
    /// The best close fit: [`fingerprint`]'s first result when that is
    /// close, with the same full analysis.
    pub best: Option<FingerprintResult>,
}

/// [`fingerprint`] reduced to the [`CensusVerdict`], for a fraction of the
/// replay work. The profiles are replayed as [`replay_profiles`] says,
/// each group only until it is settled whether it fits closely, and each
/// group's analysis is classified once. A profile that shares the class
/// of an earlier one on this connection is not replayed: it takes that
/// profile's verdict and, tying with it, can never be the best fit. The
/// replay work is added to the `fingerprint.replays`,
/// `fingerprint.replay_records`, `fingerprint.replays_settled_early` and
/// `fingerprint.replays_shared` counters, each as if every replayed
/// profile had been replayed alone, and the lockstep's own work to
/// `fingerprint.lockstep_records` and `fingerprint.forks`, once per
/// connection.
pub fn census_verdict(conn: &Connection) -> CensusVerdict {
    let mut verdict = CensusVerdict::default();
    let Some(prepared) = Prepared::new(conn) else {
        return verdict;
    };
    let (mut replay, group_of) = replay_profiles(&prepared, Until::Verdict);
    // Each close group's mean delay.
    let close_means: Vec<Option<Duration>> = replay
        .groups
        .iter()
        .map(|g| {
            let delays = &g.analysis.response_delays;
            (classify(&g.analysis) == FitClass::Close)
                .then(|| delays.mean().unwrap_or(Duration::ZERO))
        })
        .collect();
    // The best close fit: its profile, its group and its mean delay.
    let mut best: Option<(&TcpConfig, usize, Duration)> = None;
    for (cfg, &g) in profiles().iter().zip(&group_of) {
        let Some(mean) = close_means[g] else {
            continue;
        };
        verdict.close.push(cfg.name);
        // Close fits rank by mean delay; a tie keeps the earlier profile.
        if best.is_none_or(|(_, _, best_mean)| mean < best_mean) {
            best = Some((cfg, g, mean));
        }
    }
    let work = &replay.work;
    tcpa_obs::add("fingerprint.replays", work.iter().map(|w| w.passes).sum());
    tcpa_obs::add(
        "fingerprint.replay_records",
        work.iter().map(|w| w.records).sum(),
    );
    tcpa_obs::add(
        "fingerprint.replays_settled_early",
        work.iter().filter(|w| w.settled_early).count() as u64,
    );
    tcpa_obs::add(
        "fingerprint.replays_shared",
        (group_of.len() - work.len()) as u64,
    );
    tcpa_obs::add("fingerprint.lockstep_records", replay.records);
    tcpa_obs::add("fingerprint.forks", replay.forks);
    verdict.best = best.map(|(cfg, g, _)| FingerprintResult {
        name: cfg.name,
        fit: FitClass::Close,
        analysis: Arc::new(replay.groups.swap_remove(g).analysis),
    });
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::IssueDetail;
    use tcpa_netsim::LossModel;
    use tcpa_tcpsim::harness::{run_transfer, PathSpec};
    use tcpa_tcpsim::profiles;
    use tcpa_wire::SeqNum;

    fn dummy_analysis(hard: usize, lulls: usize, p90_ms: i64) -> SenderAnalysis {
        let mut response_delays = tcpa_trace::Summary::new();
        for _ in 0..10 {
            response_delays.add(Duration::from_millis(p90_ms));
        }
        let mut issues = Vec::new();
        for _ in 0..hard {
            issues.push(crate::sender::SenderIssue {
                index: 0,
                time: tcpa_trace::Time::ZERO,
                detail: IssueDetail::WindowViolation {
                    sent: SeqNum(2),
                    permit: SeqNum(1),
                    cwnd: 1,
                    offered: 1,
                    una: SeqNum(1),
                },
            });
        }
        for _ in 0..lulls {
            issues.push(crate::sender::SenderIssue {
                index: 0,
                time: tcpa_trace::Time::ZERO,
                detail: IssueDetail::Lull {
                    sent: SeqNum(2),
                    delay: Duration::from_secs(1),
                },
            });
        }
        SenderAnalysis {
            response_delays,
            issues,
            reseq_cured_violations: 0,
            inferred_sender_window: None,
            inferred_quenches: vec![],
            zero_window_probes: 0,
            data_packets: 10,
            retransmissions: 0,
            retx_causes: vec![],
        }
    }

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(&dummy_analysis(0, 0, 2)), FitClass::Close);
        assert_eq!(classify(&dummy_analysis(0, 0, 100)), FitClass::Imperfect);
        assert_eq!(classify(&dummy_analysis(0, 1, 2)), FitClass::Imperfect);
        assert_eq!(
            classify(&dummy_analysis(1, 0, 2)),
            FitClass::ClearlyIncorrect
        );
    }

    #[test]
    fn fit_class_orders_close_first() {
        assert!(FitClass::Close < FitClass::Imperfect);
        assert!(FitClass::Imperfect < FitClass::ClearlyIncorrect);
    }

    /// The sender-vantage connections of `census_verdict.rs`'s inputs: the
    /// committed fixtures, and every profile sending 96 KB clean, with
    /// loss, with a small socket buffer, with both, and from a slow host,
    /// clean and with loss.
    fn equivalence_connections() -> Vec<(String, Connection)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        let mut traces = Vec::new();
        for name in ["reno_clean", "solaris_receiver", "tahoe_loss"] {
            let bytes = std::fs::read(format!("{dir}/{name}.pcap")).expect("fixture");
            let (trace, _) = tcpa_trace::pcap_io::read_pcap(bytes.as_slice()).expect("decodes");
            traces.push((name.to_string(), crate::Analyzer::new(), trace));
        }
        let (host, slow) = (PathSpec::default().proc_delay, Duration::from_millis(4));
        let lossy = LossModel::Bernoulli;
        for (i, cfg) in all_profiles().into_iter().enumerate() {
            for (variant, buffer, loss, proc_delay) in [
                ("clean", None, LossModel::None, host),
                ("loss", None, lossy(0.03), host),
                ("sndbuf", Some(4 * 1024), LossModel::None, host),
                ("sndbuf-loss", Some(6 * 1024), lossy(0.02), host),
                ("slow-host", None, LossModel::None, slow),
                ("slow-host-loss", None, lossy(0.03), slow),
            ] {
                let mut sender = cfg.clone();
                sender.send_buffer = buffer.unwrap_or(sender.send_buffer);
                let path = PathSpec {
                    loss_data: loss,
                    proc_delay,
                    ..PathSpec::default()
                };
                let seed = i as u64 + if proc_delay == slow { 200 } else { 100 };
                let out = run_transfer(sender, profiles::reno(), &path, 96 * 1024, seed);
                let label = format!("{} {variant}", cfg.name);
                traces.push((label, crate::Analyzer::at_sender(), out.sender_trace()));
            }
        }
        let mut conns = Vec::new();
        for (label, analyzer, trace) in traces {
            for conn in analyzer.calibrate(trace).connections {
                conns.push((label.clone(), conn));
            }
        }
        conns
    }

    #[test]
    fn profiles_of_one_replay_group_share_its_analysis() {
        let mut shared = 0;
        for (label, conn) in equivalence_connections() {
            let Some(prepared) = Prepared::new(&conn) else {
                continue;
            };
            let (_, group_of) = replay_profiles(&prepared, Until::End);
            let results = fingerprint(&conn);
            let analysis_of = |cfg: &TcpConfig| {
                let result = results.iter().find(|r| r.name == cfg.name);
                &result.expect("every profile has a result").analysis
            };
            for (a, group_a) in profiles().iter().zip(&group_of) {
                for (b, group_b) in profiles().iter().zip(&group_of) {
                    let same = Arc::ptr_eq(analysis_of(a), analysis_of(b));
                    assert_eq!(same, group_a == group_b, "{label}: {}, {}", a.name, b.name);
                    shared += usize::from(same && a.name != b.name);
                }
            }
        }
        assert!(shared > 0, "some profiles share a replay group");
    }
}

/// Receiver-side consistency of one candidate against a trace.
///
/// Sender traces cannot separate implementations that differ only in
/// acking policy (Solaris 2.3 vs 2.4 is exactly such a pair, §8.6);
/// receiver-side evidence — the §9.1 policy signature, stretch-ack rate,
/// and gratuitous acks — closes that gap.
#[derive(Debug, Clone)]
pub struct ReceiverFit {
    /// Candidate implementation name.
    pub name: &'static str,
    /// `true` when nothing in the receiver analysis contradicts the
    /// candidate's receiver configuration.
    pub consistent: bool,
    /// Human-readable contradictions, empty when consistent.
    pub contradictions: Vec<String>,
}

/// Checks one receiver analysis against one candidate's receiver config.
pub fn receiver_fit(analysis: &ReceiverAnalysis, cfg: &TcpConfig) -> ReceiverFit {
    let mut contradictions = Vec::new();

    // Policy kind (§9.1). `Unknown` never contradicts — it means the
    // trace lacked the evidence, not that the candidate is wrong.
    match (analysis.policy, cfg.ack_policy) {
        (PolicyGuess::Unknown, _) => {}
        (PolicyGuess::Heartbeat { period_ms }, AckPolicy::Heartbeat { interval }) => {
            let expect = interval.as_millis_f64();
            if !(0.5..=1.6).contains(&(period_ms as f64 / expect)) {
                contradictions.push(format!(
                    "heartbeat period ≈{period_ms} ms vs configured {expect:.0} ms"
                ));
            }
        }
        (PolicyGuess::IntervalTimer { delay_ms }, AckPolicy::PerPacketTimer { delay }) => {
            let expect = delay.as_millis_f64();
            if !(0.5..=1.6).contains(&(delay_ms as f64 / expect)) {
                contradictions.push(format!(
                    "interval timer ≈{delay_ms} ms vs configured {expect:.0} ms"
                ));
            }
        }
        (PolicyGuess::EveryPacket, AckPolicy::EveryPacket) => {}
        // Solaris's initial ack-every-packet phase can read as EveryPacket
        // on short traces; only call a mismatch when the candidate has no
        // immediate-ack behavior at all.
        (PolicyGuess::EveryPacket, AckPolicy::PerPacketTimer { .. })
            if cfg.initial_ack_every_packet > 0 => {}
        (got, want) => {
            contradictions.push(format!("policy {got:?} vs configured {want:?}"));
        }
    }

    // Gratuitous acks (§8.6: the Solaris 2.3 bug fires every 32 packets).
    let gratuitous = analysis.count(AckClass::Gratuitous);
    let counted = analysis.acks.len();
    if cfg.gratuitous_ack_bug && counted >= 48 && gratuitous == 0 {
        contradictions.push("configured acking bug produced no gratuitous acks".into());
    }
    if !cfg.gratuitous_ack_bug && gratuitous > 0 {
        contradictions.push(format!("{gratuitous} gratuitous acks but no acking bug"));
    }

    // Stretch acks (§9.1): an every-two-segments receiver produces few;
    // a configured stretch-acker produces many.
    let stretch = analysis.count(AckClass::Stretch);
    let normalish = stretch + analysis.count(AckClass::Normal) + analysis.count(AckClass::Delayed);
    if cfg.ack_every_n > 2 && normalish >= 16 && stretch * 2 < normalish {
        contradictions.push(format!(
            "configured stretch acking (every {}) but only {stretch}/{normalish} stretch acks",
            cfg.ack_every_n
        ));
    }
    if cfg.ack_every_n <= 2 && normalish >= 16 && stretch * 3 > normalish {
        contradictions.push(format!(
            "{stretch}/{normalish} stretch acks from an every-two-segments receiver"
        ));
    }

    ReceiverFit {
        name: cfg.name,
        consistent: contradictions.is_empty(),
        contradictions,
    }
}

/// Ranks every known profile's receiver side against one receiver
/// analysis; consistent candidates first.
pub fn receiver_fits(analysis: &ReceiverAnalysis) -> Vec<ReceiverFit> {
    let mut fits: Vec<ReceiverFit> = profiles()
        .iter()
        .map(|cfg| receiver_fit(analysis, cfg))
        .collect();
    fits.sort_by_key(|f| (!f.consistent, f.contradictions.len()));
    fits
}

/// [`receiver_fits`] of a receiver-vantage connection's
/// [`analyze_receiver`]; empty when no data flowed.
pub fn fingerprint_receiver(conn: &Connection) -> Vec<ReceiverFit> {
    analyze_receiver(conn).map_or_else(Vec::new, |analysis| receiver_fits(&analysis))
}
