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
//! of the connection (the knob values its replay can read) and give the
//! others its result. They replay those candidates in lockstep, as
//! groups that fork only where their replays diverge;
//! [`fingerprint_one`] replays its candidate alone.

use crate::receiver::{analyze_receiver, AckClass, PolicyGuess, ReceiverAnalysis};
use crate::sender::{Prepared, ReplayClass, ReplayOptions, Replayed, SenderAnalysis};
use std::sync::OnceLock;
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
    /// The full sender analysis behind the classification.
    pub analysis: SenderAnalysis,
}

impl FingerprintResult {
    /// This result as a class-mate's: the same replay under `name`.
    fn shared_with(&self, name: &'static str) -> FingerprintResult {
        let mut shared = self.clone();
        shared.name = name;
        shared.analysis.config_name = name;
        shared
    }
}

/// Classifies one analysis into a fit class.
pub fn classify(analysis: &SenderAnalysis) -> FitClass {
    if analysis.hard_issues() > 0 {
        return FitClass::ClearlyIncorrect;
    }
    let prompt = match analysis.response_delays.select_percentile(90.0) {
        Some(p90) => p90 <= CLOSE_P90,
        None => true, // nothing to measure: vacuously prompt
    };
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
        Some(FingerprintResult::of(analysis))
    })
}

impl FingerprintResult {
    /// Classifies one candidate's analysis.
    fn of(analysis: SenderAnalysis) -> FingerprintResult {
        FingerprintResult {
            name: analysis.config_name,
            fit: classify(&analysis),
            analysis,
        }
    }
}

/// Every profile, in `all_profiles()` order (built once per process).
fn profiles() -> &'static [TcpConfig] {
    static PROFILES: OnceLock<Vec<TcpConfig>> = OnceLock::new();
    PROFILES.get_or_init(all_profiles)
}

/// For each profile, the first profile of its replay class on the
/// prepared connection ([`Prepared::replay_class`]): itself, or an
/// earlier profile whose replay of the connection it shares.
fn representatives(prepared: &Prepared, profiles: &[TcpConfig]) -> Vec<usize> {
    let classes: Vec<ReplayClass> = profiles.iter().map(|c| prepared.replay_class(c)).collect();
    classes
        .iter()
        .enumerate()
        .map(|(j, class)| classes.iter().position(|c| c == class).unwrap_or(j))
        .collect()
}

/// The profiles that represent their replay class ([`representatives`]),
/// as positions into `profiles` and as configs.
fn replayed<'p>(reps: &[usize], profiles: &'p [TcpConfig]) -> (Vec<usize>, Vec<&'p TcpConfig>) {
    let mut positions = Vec::with_capacity(reps.len());
    let mut cfgs = Vec::with_capacity(reps.len());
    for (j, cfg) in profiles.iter().enumerate() {
        if reps.get(j) == Some(&j) {
            positions.push(j);
            cfgs.push(cfg);
        }
    }
    (positions, cfgs)
}

/// Runs every known profile against a connection and sorts the results:
/// close fits first (by mean response delay), then imperfect, then
/// clearly incorrect (by number of hard issues). The connection is
/// prepared once for all of them, and the first profile of each replay
/// class is replayed, all of them in one lockstep replay in one
/// `detail.sender_replay` span: every other member of the class gets a
/// copy of its first member's result under its own name.
pub fn fingerprint(conn: &Connection) -> Vec<FingerprintResult> {
    let Some(prepared) = Prepared::new(conn) else {
        return Vec::new();
    };
    let profiles = profiles();
    let reps = representatives(&prepared, profiles);
    let (_, cfgs) = replayed(&reps, profiles);
    let analyses = tcpa_obs::time("detail.sender_replay", || {
        prepared.analyze_all(&cfgs, &ReplayOptions::default())
    });
    let mut analyses = analyses.into_iter();
    let mut results: Vec<FingerprintResult> = Vec::with_capacity(profiles.len());
    for (cfg, rep) in profiles.iter().zip(reps) {
        // A representative is this profile or an earlier one, whose
        // result is already in place; the analyses come in the order of
        // the representatives.
        let result = match results.get(rep) {
            Some(first) => first.shared_with(cfg.name),
            None => match analyses.next() {
                Some(analysis) => FingerprintResult::of(analysis),
                None => break,
            },
        };
        results.push(result);
    }
    // Stable: equal keys keep `all_profiles()` order, so a class-mate
    // ranks after its class's first member.
    results.sort_by_cached_key(rank_key);
    results
}

/// A result's sort key, computed once per result (the mean is a pass over
/// every response delay): fit class, then hard issues for clearly
/// incorrect fits or mean response delay for the others.
fn rank_key(r: &FingerprintResult) -> (FitClass, usize, Duration) {
    match r.fit {
        FitClass::ClearlyIncorrect => (r.fit, r.analysis.hard_issues(), Duration::ZERO),
        _ => (
            r.fit,
            0,
            r.analysis.response_delays.mean().unwrap_or(Duration::ZERO),
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
/// replay work. The first profile of each replay class is replayed, all
/// of them in one lockstep replay over trace facts shared by all
/// candidates, each group of them only until it is settled whether it
/// fits closely. A profile that shares the class of an earlier one on
/// this connection is not replayed: it takes that profile's verdict and,
/// tying with it, can never be the best fit. The replay work is added to
/// the `fingerprint.replays`, `fingerprint.replay_records`,
/// `fingerprint.replays_settled_early` and `fingerprint.replays_shared`
/// counters, each as if every replayed profile had been replayed alone,
/// and the lockstep's own work to `fingerprint.lockstep_records` and
/// `fingerprint.forks`, once per connection.
pub fn census_verdict(conn: &Connection) -> CensusVerdict {
    let mut verdict = CensusVerdict::default();
    let Some(prepared) = Prepared::new(conn) else {
        return verdict;
    };
    let profiles = profiles();
    let reps = representatives(&prepared, profiles);
    let (positions, cfgs) = replayed(&reps, profiles);
    let replay = tcpa_obs::time("detail.sender_replay", || prepared.verdicts(&cfgs));
    let mut close = vec![false; profiles.len()];
    // The best close fit: its group, its place in the group, its profile
    // and its mean delay.
    let mut best: Option<(&Replayed, usize, usize, Duration)> = None;
    for group in &replay.groups {
        if classify(&group.analysis) != FitClass::Close {
            continue;
        }
        let mean = group
            .analysis
            .response_delays
            .mean()
            .unwrap_or(Duration::ZERO);
        for (k, id) in group.members().enumerate() {
            let j = positions[id];
            close[j] = true;
            // Close fits rank by mean delay; a tie keeps the earlier profile.
            if best.is_none_or(|(_, _, bj, bmean)| (mean, j) < (bmean, bj)) {
                best = Some((group, k, j, mean));
            }
        }
    }
    verdict.best = best.map(|(group, k, _, _)| FingerprintResult::of(group.analysis_of(k)));
    let mut shared = 0;
    for (j, &rep) in reps.iter().enumerate() {
        if rep < j {
            close[j] = close[rep];
            shared += 1;
        }
    }
    verdict.close = profiles
        .iter()
        .zip(&close)
        .filter(|(_, &c)| c)
        .map(|(cfg, _)| cfg.name)
        .collect();
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
    tcpa_obs::add("fingerprint.replays_shared", shared);
    tcpa_obs::add("fingerprint.lockstep_records", replay.records);
    tcpa_obs::add("fingerprint.forks", replay.forks);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::{IssueDetail, SenderIssueKind};
    use tcpa_wire::SeqNum;

    fn dummy_analysis(hard: usize, lulls: usize, p90_ms: i64) -> SenderAnalysis {
        let mut response_delays = tcpa_trace::Summary::new();
        for _ in 0..10 {
            response_delays.add(Duration::from_millis(p90_ms));
        }
        let mut issues = Vec::new();
        for _ in 0..hard {
            issues.push(crate::sender::SenderIssue {
                kind: SenderIssueKind::WindowViolation,
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
                kind: SenderIssueKind::Lull,
                index: 0,
                time: tcpa_trace::Time::ZERO,
                detail: IssueDetail::Lull {
                    sent: SeqNum(2),
                    delay: Duration::from_secs(1),
                },
            });
        }
        SenderAnalysis {
            config_name: "test",
            response_delays,
            issues,
            reseq_cured_violations: 0,
            inferred_sender_window: None,
            inferred_quenches: vec![],
            zero_window_probes: 0,
            data_packets: 10,
            retransmissions: 0,
            retx_causes: vec![],
            cwnd_mss: 512,
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
