//! Sender-behavior analysis (§6): the data-liberation replay engine.
//!
//! Given one connection's trace (captured at or near the sender) and a
//! candidate implementation's [`TcpConfig`], the replay walks the trace
//! maintaining the candidate's congestion state exactly as the real TCP
//! would have, using the same pure rules the simulator runs
//! ([`tcpa_tcpsim::congestion`]). Each incoming ack may raise the
//! *permitted ceiling* — a **liberation** (§6.1). Each outgoing data
//! packet is then either:
//!
//! * matched to the earliest liberation that allows it — the gap is its
//!   **response delay**;
//! * classified as a retransmission with an identifiable cause (timeout,
//!   fast retransmit, the §8.5 burst, the §8.6 odd Solaris retransmit,
//!   go-back-N refill after a cut) — the per-config causes *are* the
//!   coded implementation knowledge;
//! * or flagged: a **window violation** (sent beyond the ceiling), an
//!   **unexplained retransmission**, or a **lull** (sent absurdly late).
//!
//! A trace that fits its true implementation produces small response
//! delays and no flags; a wrong candidate produces violations or
//! unexplained retransmissions (§6.1's close / imperfect / clearly
//! incorrect sorting builds on exactly these outputs).
//!
//! §6.2's implicit-state inferences are integrated: the *sender window*
//! (detected in a first replay, applied in a second) and unseen ICMP
//! *source quench* (a lull whose aftermath looks like a fresh slow
//! start).
//!
//! Several candidates replay a connection together, in lockstep: a group
//! of them keeps one copy of the state their configs do not decide, and
//! a member whose effect on that state differs at a record forks off
//! there into a group of its own. One candidate alone is a group of one.
//! A [`SenderAnalysis`] names no candidate, so a group's one analysis is
//! the analysis of each of its members, as it stands.

use crate::calibrate::reseq::first_within;
use tcpa_tcpsim::config::{CwndIncrease, FastRecovery, QuenchResponse, RtoScheme, TcpConfig};
use tcpa_tcpsim::congestion::CcState;
use tcpa_tcpsim::rtt::RttEstimator;
use tcpa_trace::{Connection, Dir, Duration, RunningMedian, Summary, Time, TraceRecord};
use tcpa_wire::SeqNum;

/// How far apart a cause and effect may be recorded and still be
/// attributed to measurement vantage rather than misbehavior (§3.2).
const EPSILON: Duration = Duration::from_millis(2);
/// A response delay beyond this is a lull (§5: "sent only after an
/// apparently excessive delay").
const LULL_THRESHOLD: Duration = Duration::from_millis(250);
/// Burst-continuation window: retransmissions this close to a burst
/// trigger belong to the same burst.
const BURST_WINDOW: Duration = Duration::from_millis(50);
/// No response delay at or below this is suspect, whatever the baseline.
const SUSPECT_FLOOR: Duration = Duration::from_millis(30);
/// A baseline at or below this cannot lift the suspect threshold, ten
/// times the baseline, above [`SUSPECT_FLOOR`].
const LOW_DELAY: Duration = Duration::from_millis(3);

/// Cause assigned to an observed retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetxCause {
    /// Retransmission timeout (gap consistent with the config's RTO
    /// floor).
    Timeout,
    /// Fast retransmit at the dup-ack threshold.
    FastRetransmit,
    /// §8.5: retransmission already on the first duplicate ack.
    EarlyDupAck,
    /// §8.5: part of a retransmit-everything burst.
    BurstContinuation,
    /// §8.6: the odd Solaris retransmission of the segment just above a
    /// liberating ack.
    OddRetransmitAfterAck,
    /// Go-back-N refill following a window collapse.
    RefillAfterCut,
}

/// A problem the replay could not reconcile with the candidate config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenderIssue {
    /// Index of the offending record within the connection.
    pub index: usize,
    /// When it happened.
    pub time: Time,
    /// What kind of problem, and the values that explain it, rendered by
    /// its `Display`.
    pub detail: IssueDetail,
}

impl SenderIssue {
    /// What kind of problem: the kind of its [`IssueDetail`].
    pub fn kind(&self) -> SenderIssueKind {
        self.detail.kind()
    }
}

/// The values that explain a [`SenderIssue`], one variant per
/// [`SenderIssueKind`]. A replay records them as they are; only a reader
/// that prints the issue renders the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueDetail {
    /// New data sent beyond the candidate's permitted ceiling.
    WindowViolation {
        /// End of the data sent.
        sent: SeqNum,
        /// The candidate's permitted ceiling.
        permit: SeqNum,
        /// The candidate's congestion window, in bytes.
        cwnd: u64,
        /// The receiver's offered window.
        offered: u32,
        /// Highest sequence acked.
        una: SeqNum,
    },
    /// A retransmission that no rule of the candidate explains. It names
    /// no candidate, so that a class-mate's analysis can be this one's.
    UnexplainedRetransmission {
        /// Start of the retransmitted data.
        seq: SeqNum,
        /// Duplicate acks counted when it was sent.
        dup_acks: u32,
    },
    /// New data sent long after its liberation.
    Lull {
        /// End of the data sent.
        sent: SeqNum,
        /// Time from the liberation to the send.
        delay: Duration,
    },
}

impl IssueDetail {
    /// The kind of issue these values explain.
    pub fn kind(&self) -> SenderIssueKind {
        match self {
            IssueDetail::WindowViolation { .. } => SenderIssueKind::WindowViolation,
            IssueDetail::UnexplainedRetransmission { .. } => {
                SenderIssueKind::UnexplainedRetransmission
            }
            IssueDetail::Lull { .. } => SenderIssueKind::Lull,
        }
    }
}

impl core::fmt::Display for IssueDetail {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            IssueDetail::WindowViolation {
                sent,
                permit,
                cwnd,
                offered,
                una,
            } => write!(
                f,
                "sent {sent} beyond permit {permit} (cwnd {cwnd}, offered {offered}, una {una})"
            ),
            IssueDetail::UnexplainedRetransmission { seq, dup_acks } => {
                write!(
                    f,
                    "retransmission of {seq} (dup_acks {dup_acks}) fits no rule"
                )
            }
            IssueDetail::Lull { sent, delay } => {
                write!(f, "new data {sent} sent {delay} after liberation")
            }
        }
    }
}

/// The kinds of replay disagreement (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderIssueKind {
    /// Data sent beyond the candidate's permitted ceiling.
    WindowViolation,
    /// A retransmission no rule of the candidate explains.
    UnexplainedRetransmission,
    /// Data sent absurdly long after its liberation.
    Lull,
}

/// Result of replaying one connection against one candidate. It names no
/// candidate: every candidate whose replay agreed has this analysis.
#[derive(Debug, Clone)]
pub struct SenderAnalysis {
    /// Response delays of new-data sends matched to liberations.
    pub response_delays: Summary,
    /// Violations, unexplained retransmissions and lulls.
    pub issues: Vec<SenderIssue>,
    /// Violations that an ack recorded ≤ ε later cures — evidence of
    /// filter resequencing, not misbehavior (they are *not* in `issues`).
    pub reseq_cured_violations: usize,
    /// Inferred sender window (socket buffer), if one was limiting
    /// (§6.2).
    pub inferred_sender_window: Option<u32>,
    /// Inferred unseen source-quench arrival times (§6.2).
    pub inferred_quenches: Vec<Time>,
    /// One-byte zero-window probes recognized (persist timer traffic;
    /// never window violations).
    pub zero_window_probes: usize,
    /// Data packets observed (sender → receiver, payload > 0).
    pub data_packets: usize,
    /// Of those, retransmissions.
    pub retransmissions: usize,
    /// Cause tally for retransmissions.
    pub retx_causes: Vec<(RetxCause, usize)>,
}

impl SenderAnalysis {
    /// Count of hard disagreements (violations + unexplained retx).
    pub fn hard_issues(&self) -> usize {
        self.issues
            .iter()
            .filter(|i| i.kind() != SenderIssueKind::Lull)
            .count()
    }

    /// Count of lulls.
    pub fn lulls(&self) -> usize {
        self.issues
            .iter()
            .filter(|i| i.kind() == SenderIssueKind::Lull)
            .count()
    }
}

/// Tunable design choices of the replay — exposed so their contribution
/// can be measured (the ablation harness switches each off in turn).
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Look-ahead window for acks that cure apparent violations
    /// (§3.1.3 situation ii / §3.2). Zero disables the cure.
    pub epsilon: Duration,
    /// Look-behind window for explaining retransmissions from stale
    /// state (§3.2, §4). Zero disables the look-behind.
    pub lookbehind: Duration,
    /// Infer unseen ICMP source quench from slow-start-shaped stalls
    /// (§6.2).
    pub infer_quench: bool,
    /// Infer a limiting sender window and re-replay with it (§6.2).
    pub infer_sender_window: bool,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            epsilon: EPSILON,
            lookbehind: LOOKBEHIND,
            infer_quench: true,
            infer_sender_window: true,
        }
    }
}

/// Connection-level facts gathered before the replay.
struct Prescan {
    iss: SeqNum,
    establish_time: Time,
    peer_sent_mss: bool,
    peer_mss: Option<u16>,
    initial_peer_window: u32,
    max_in_flight: i64,
    final_data_end: SeqNum,
    have_handshake: bool,
    /// Data and FIN segments the sender sent: a bound on the entries of
    /// each per-segment map of the facts walk and on the response delays
    /// of a pass.
    segments_sent: usize,
}

fn prescan(conn: &Connection) -> Option<Prescan> {
    let mut iss = None;
    let mut peer_mss = None;
    let mut peer_sent_mss = false;
    let mut initial_peer_window = 0u32;
    let mut establish_time = None;
    let mut snd_hi: Option<SeqNum> = None;
    let mut last_ack: Option<SeqNum> = None;
    let mut max_in_flight: i64 = 0;
    let mut segments_sent = 0;

    for (dir, rec) in &conn.records {
        match dir {
            Dir::SenderToReceiver => {
                if rec.tcp.flags.syn() {
                    iss = Some(rec.tcp.seq);
                }
                if rec.is_data() || rec.tcp.flags.fin() {
                    segments_sent += 1;
                    let hi = rec.seq_hi();
                    snd_hi = Some(match snd_hi {
                        Some(h) => h.max(hi),
                        None => hi,
                    });
                    let base = last_ack.or(iss.map(|s| s + 1)).unwrap_or(rec.tcp.seq);
                    max_in_flight = max_in_flight.max(hi - base);
                }
            }
            Dir::ReceiverToSender => {
                if rec.tcp.flags.syn() && rec.tcp.flags.ack() {
                    peer_mss = rec.tcp.mss_option();
                    peer_sent_mss = peer_mss.is_some();
                    initial_peer_window = u32::from(rec.tcp.window);
                    establish_time = Some(rec.ts);
                } else if rec.tcp.flags.ack() {
                    last_ack = Some(match last_ack {
                        Some(a) => a.max(rec.tcp.ack),
                        None => rec.tcp.ack,
                    });
                }
            }
        }
    }

    let have_handshake = iss.is_some() && establish_time.is_some();
    // Fallbacks for partial traces: synthesize an ISS just below the first
    // data byte and treat the first record as establishment.
    let first_data_seq = conn
        .in_dir(Dir::SenderToReceiver)
        .find(|r| r.is_data())
        .map(|r| r.tcp.seq)?;
    let iss = iss.unwrap_or(first_data_seq - 1);
    let establish_time = establish_time.or(conn.records.first().map(|(_, r)| r.ts))?;
    if !have_handshake {
        initial_peer_window = conn
            .in_dir(Dir::ReceiverToSender)
            .find(|r| r.tcp.flags.ack())
            .map(|r| u32::from(r.tcp.window))
            .unwrap_or(65_535);
    }
    Some(Prescan {
        iss,
        establish_time,
        peer_sent_mss,
        peer_mss,
        initial_peer_window,
        max_in_flight,
        final_data_end: snd_hi.unwrap_or(first_data_seq),
        have_handshake,
        segments_sent,
    })
}

/// Send times per segment boundary, keyed by the raw sequence number.
// tcpa-lint: allow(determinism-hazards) -- built once per connection by the facts walk, read by exact key and never iterated, so hash order cannot reach any output; an ordered map's per-packet descent grew the walk's cost with trace length
type SendTimes = std::collections::HashMap<u32, Time>;

/// What the trace alone says at one record, whichever candidate is
/// replayed: the sender state in force when the record is replayed —
/// what has been sent, acked and offered follows the trace, never the
/// candidate — plus two facts about the record itself.
#[derive(Debug, Clone, Copy)]
struct Facts {
    /// Highest sequence acked.
    snd_una: SeqNum,
    /// Highest sequence sent: the replay has no snd_nxt, and this is the
    /// closest observable proxy for bytes committed to the wire.
    snd_max_seen: SeqNum,
    /// Highest sequence ever retransmitted (for Karn and the Solaris
    /// reset-on-ack-of-retransmit behavior).
    retx_high: SeqNum,
    /// The receiver's offered window.
    peer_window: u32,
    /// Liberating acks so far: how much of
    /// [`Prepared::liberating_ack_times`] has been seen.
    liberating_acks: u32,
    /// Time of the most recent retransmission (any cause), `None` before
    /// the first; quench inference is suppressed when the stall overlaps
    /// retransmission activity, which already explains the disturbance.
    last_retx_time: Option<Time>,
    /// Rough RTT: first transmission to its liberating ack, smoothed.
    rtt_estimate: Option<Duration>,
    /// For a data or FIN segment, when a segment starting at the same
    /// sequence number was last sent before it (for RTO plausibility).
    prev_send: Option<Time>,
    /// How many of the records from this one on are *peak sends*: new
    /// data that takes the flight to the connection's peak
    /// (`hi - snd_una >= max_in_flight`) before its final byte. Only a
    /// peak send can add sender-window evidence (§6.2), so this bounds
    /// the evidence any candidate's first pass can still collect.
    peak_sends_from: u32,
}

impl Facts {
    /// The times of the liberating acks seen so far, out of all of them.
    fn liberating_acks_seen<'t>(&self, liberating_ack_times: &'t [Time]) -> &'t [Time] {
        liberating_ack_times
            .get(..self.liberating_acks as usize)
            .unwrap_or_default()
    }
}

/// How many of `times` fall strictly between `after` and `before`. The
/// first `sorted_len` of them are in non-decreasing order and are counted
/// by binary search; any after those, out of order only where the
/// capture's clock stepped back, are counted one by one.
fn acks_between(times: &[Time], sorted_len: usize, after: Time, before: Time) -> usize {
    let (sorted, rest) = times.split_at(sorted_len.min(times.len()));
    let from = sorted.partition_point(|&t| t <= after);
    let to = sorted.partition_point(|&t| t < before);
    to.saturating_sub(from) + rest.iter().filter(|&&t| t > after && t < before).count()
}

/// Length of the longest non-decreasing prefix of `times`.
fn non_decreasing_len(times: &[Time]) -> usize {
    times
        .windows(2)
        .position(|w| w[1] < w[0])
        .map_or(times.len(), |i| i + 1)
}

/// Whether `rec`, an ack from the receiver, is a duplicate ack as the
/// replay counts one: a pure ack at `snd_una` that leaves the offered
/// window unchanged while data is outstanding. `at` is the trace state
/// before `rec`.
fn is_dup_ack(rec: &TraceRecord, at: &Facts) -> bool {
    rec.tcp.ack == at.snd_una
        && rec.is_pure_ack()
        && u32::from(rec.tcp.window) == at.peer_window
        && at.snd_una.before(at.snd_max_seen)
}

/// The per-record [`Facts`] of a connection, one walk over its records:
/// entry `i` holds the state in force when record `i` is replayed, and a
/// last entry, one past the final record, the state after it. Also
/// returns the times of the liberating acks, in trace order, and whether
/// any ack is a duplicate ack.
fn facts(conn: &Connection, pre: &Prescan) -> (Vec<Facts>, Vec<Time>, bool) {
    let snd_una = pre.iss + 1;
    let mut state = Facts {
        snd_una,
        snd_max_seen: snd_una,
        retx_high: snd_una,
        peer_window: pre.initial_peer_window,
        liberating_acks: 0,
        last_retx_time: None,
        rtt_estimate: None,
        prev_send: None,
        peak_sends_from: 0,
    };
    // Sized once, so neither map rehashes during the walk.
    let mut first_send_time = SendTimes::with_capacity(pre.segments_sent);
    let mut last_sent = SendTimes::with_capacity(pre.segments_sent);
    let mut liberating_ack_times = Vec::with_capacity(pre.segments_sent);
    let mut dup_ack = false;
    let mut facts = Vec::with_capacity(conn.records.len() + 1);
    for (dir, rec) in &conn.records {
        // `state` carries no per-record fact; `at` adds this record's.
        let mut at = state;
        let tcp = &rec.tcp;
        let counted = !tcp.flags.syn() && !tcp.flags.rst();
        match dir {
            Dir::ReceiverToSender if counted && tcp.flags.ack() => {
                if tcp.ack.after(state.snd_una) {
                    // Liberating ack.
                    if let Some(&t0) = first_send_time.get(&(tcp.ack - 1).0) {
                        let est = rec.ts - t0;
                        state.rtt_estimate = Some(match state.rtt_estimate {
                            Some(prev) => (prev * 7 + est) / 8,
                            None => est,
                        });
                    }
                    state.snd_una = tcp.ack;
                    state.peer_window = u32::from(tcp.window);
                    state.liberating_acks += 1;
                    liberating_ack_times.push(rec.ts);
                } else if tcp.ack == state.snd_una {
                    // A window update (unchanged when it is a duplicate).
                    dup_ack |= is_dup_ack(rec, &state);
                    state.peer_window = u32::from(tcp.window);
                }
            }
            Dir::SenderToReceiver if counted && (rec.is_data() || tcp.flags.fin()) => {
                let hi = rec.seq_hi();
                first_send_time.entry(hi.0 - 1).or_insert(rec.ts);
                at.prev_send = last_sent.insert(tcp.seq.0, rec.ts);
                if hi.after(state.snd_max_seen) {
                    if hi - state.snd_una >= pre.max_in_flight && hi.before(pre.final_data_end) {
                        at.peak_sends_from = 1;
                    }
                    state.snd_max_seen = hi;
                } else {
                    if hi.after(state.retx_high) {
                        state.retx_high = hi;
                    }
                    state.last_retx_time = Some(rec.ts);
                }
            }
            _ => {}
        }
        facts.push(at);
    }
    facts.push(state);
    let mut left = 0;
    for at in facts.iter_mut().rev() {
        left += at.peak_sends_from;
        at.peak_sends_from = left;
    }
    (facts, liberating_ack_times, dup_ack)
}

/// Analyzes a connection's sender behavior against one candidate config.
/// Returns `None` when the connection carries no data to analyze.
pub fn analyze_sender(conn: &Connection, cfg: &TcpConfig) -> Option<SenderAnalysis> {
    analyze_sender_with(conn, cfg, &ReplayOptions::default())
}

/// [`analyze_sender`] with explicit design knobs (ablation support).
pub fn analyze_sender_with(
    conn: &Connection,
    cfg: &TcpConfig,
    opts: &ReplayOptions,
) -> Option<SenderAnalysis> {
    Prepared::new(conn)?.analyze(cfg, opts)
}

/// One connection made ready for replaying candidates against it: the
/// prescan and the per-record [`Facts`] depend on the trace alone, so
/// they are computed once and every candidate's replay reads them.
pub(crate) struct Prepared<'c> {
    conn: &'c Connection,
    pre: Prescan,
    /// One entry per record plus one past the last.
    facts: Vec<Facts>,
    /// Times of the liberating acks, for the §8.6 odd retransmission and
    /// for reconstructing slow-start growth after an inferred quench.
    liberating_ack_times: Vec<Time>,
    /// Length of the longest non-decreasing prefix of
    /// `liberating_ack_times`: all of it unless the clock stepped back.
    sorted_acks: usize,
    /// Some ack is a duplicate ack ([`is_dup_ack`]).
    dup_ack: bool,
}

impl<'c> Prepared<'c> {
    /// Prepares `conn`; `None` when it carries no data to analyze.
    pub(crate) fn new(conn: &'c Connection) -> Option<Prepared<'c>> {
        let pre = prescan(conn)?;
        let (facts, liberating_ack_times, dup_ack) = facts(conn, &pre);
        let sorted_acks = non_decreasing_len(&liberating_ack_times);
        Some(Prepared {
            conn,
            pre,
            facts,
            liberating_ack_times,
            sorted_acks,
            dup_ack,
        })
    }

    /// What a replay of `cfg` starts from at establishment: the MSS of
    /// its window arithmetic, the MSS it sends and its congestion state.
    fn establishment(&self, cfg: &TcpConfig) -> (u32, u32, CcState) {
        let pre = &self.pre;
        let cwnd_mss = cfg.cwnd_mss(pre.peer_mss);
        let eff_mss = cfg.effective_send_mss(pre.peer_mss);
        let cc = CcState::at_establishment(cfg, cwnd_mss, pre.peer_sent_mss || !pre.have_handshake);
        (cwnd_mss, eff_mss, cc)
    }

    /// The values of `cfg` that a replay of this connection can read.
    /// Candidates of one class replay it alike: the same analysis.
    pub(crate) fn replay_class(&self, cfg: &TcpConfig) -> ReplayClass {
        // Exhaustive, so that a new knob does not compile until it is
        // placed in a tier or shown never to be read by the replay.
        let TcpConfig {
            name: _,
            lineage: _,
            // Read only through the establishment values.
            mss: _,
            default_peer_mss: _,
            mss_includes_options: _,
            cwnd_init_from_offered_mss: _,
            initial_cwnd_segs: _,
            initial_ssthresh_segs: _,
            uninit_cwnd_bug: _,
            cwnd_increase,
            ss_test_strict,
            no_congestion_window,
            quench_response,
            fast_retransmit,
            dupack_threshold,
            fast_recovery,
            dupack_updates_cwnd,
            min_ssthresh_segs,
            ssthresh_round_down,
            header_prediction_bug,
            fencepost_bug,
            rto_scheme,
            initial_rto,
            min_rto,
            max_rto,
            rto_granularity,
            rto_backoff,
            burst_retransmit,
            retransmit_on_first_dupack,
            retransmit_after_ack_period,
            clear_dupacks_on_timeout,
            // Never read by the sender replay: the candidate's own SYN
            // option and timers, connection-lifetime limits, the send
            // buffer (inferred from the trace instead, §6.2) and the
            // receiver side.
            send_mss_option: _,
            syn_rto: _,
            syn_backoff_flat: _,
            max_retransmits: _,
            keepalive_interval: _,
            rst_on_give_up: _,
            send_buffer: _,
            recv_window: _,
            recv_window_schedule: _,
            ack_policy: _,
            ack_every_n: _,
            initial_ack_every_packet: _,
            gratuitous_ack_bug: _,
            app_read_rate: _,
            persist_initial: _,
            persist_max: _,
        } = cfg;
        let (cwnd_mss, eff_mss, cc) = self.establishment(cfg);
        let retransmits = self
            .facts
            .last()
            .is_some_and(|f| f.last_retx_time.is_some());
        ReplayClass {
            cwnd_mss,
            eff_mss,
            cwnd: cc.cwnd,
            ssthresh: cc.ssthresh,
            cwnd_increase: *cwnd_increase,
            ss_test_strict: *ss_test_strict,
            no_congestion_window: *no_congestion_window,
            // Only a slow-start response ever infers a quench.
            quench_response: match quench_response {
                QuenchResponse::CwndDownOneSegment | QuenchResponse::Ignore => None,
                slow_start => Some(*slow_start),
            },
            dup_ack: self.dup_ack.then_some(DupAckKnobs {
                fast_retransmit: *fast_retransmit,
                dupack_threshold: *dupack_threshold,
                fast_recovery: *fast_recovery,
                dupack_updates_cwnd: *dupack_updates_cwnd,
                min_ssthresh_segs: *min_ssthresh_segs,
                ssthresh_round_down: *ssthresh_round_down,
                header_prediction_bug: *header_prediction_bug,
                fencepost_bug: *fencepost_bug,
            }),
            retransmission: retransmits.then_some(RetxKnobs {
                rto_scheme: *rto_scheme,
                initial_rto: *initial_rto,
                min_rto: *min_rto,
                max_rto: *max_rto,
                rto_granularity: *rto_granularity,
                rto_backoff: *rto_backoff,
                burst_retransmit: *burst_retransmit,
                retransmit_on_first_dupack: *retransmit_on_first_dupack,
                retransmit_after_ack_period: *retransmit_after_ack_period,
                clear_dupacks_on_timeout: *clear_dupacks_on_timeout,
                min_ssthresh_segs: *min_ssthresh_segs,
                ssthresh_round_down: *ssthresh_round_down,
            }),
        }
    }

    /// Replays `cfg` over the whole connection: [`analyze_sender_with`].
    /// Always `Some`: a lone candidate's replay ends as one group.
    pub(crate) fn analyze(&self, cfg: &TcpConfig, opts: &ReplayOptions) -> Option<SenderAnalysis> {
        let mut replay = lockstep(self, &[cfg], opts, Until::End);
        replay.groups.pop().map(|group| group.analysis)
    }

    /// Replays every candidate of `cfgs` in one [`lockstep`] replay, with
    /// the default options, as far as `until` says. Under [`Until::End`]
    /// each group's analysis equals [`analyze_sender`]'s for each of its
    /// members. Under [`Until::Verdict`] only a group that fits closely
    /// (§6.1) is replayed in full; any other group's analysis stops at the
    /// record that settled it, and only its not being close may be read
    /// from it.
    pub(crate) fn replay(&self, cfgs: &[&TcpConfig], until: Until) -> Lockstep {
        lockstep(self, cfgs, &ReplayOptions::default(), until)
    }
}

/// A candidate's replay class on one connection
/// ([`Prepared::replay_class`]): what the replay can read of its config.
/// The establishment values are derived, not raw knobs, and the two
/// optional tiers are read only when the connection has a duplicate ack
/// or a retransmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReplayClass {
    cwnd_mss: u32,
    eff_mss: u32,
    cwnd: u64,
    ssthresh: u64,
    cwnd_increase: CwndIncrease,
    ss_test_strict: bool,
    no_congestion_window: bool,
    /// `None` for a response that never infers a quench (§6.2).
    quench_response: Option<QuenchResponse>,
    dup_ack: Option<DupAckKnobs>,
    retransmission: Option<RetxKnobs>,
}

/// The knobs a duplicate ack reads: fast retransmit, recovery and its
/// exit bugs, and the ssthresh cut.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DupAckKnobs {
    fast_retransmit: bool,
    dupack_threshold: u32,
    fast_recovery: FastRecovery,
    dupack_updates_cwnd: bool,
    min_ssthresh_segs: u32,
    ssthresh_round_down: bool,
    header_prediction_bug: bool,
    fencepost_bug: bool,
}

/// The knobs a retransmission reads: the RTO estimator, the
/// retransmission rules and a timeout's ssthresh cut.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RetxKnobs {
    rto_scheme: RtoScheme,
    initial_rto: Duration,
    min_rto: Duration,
    max_rto: Duration,
    rto_granularity: Duration,
    rto_backoff: f64,
    burst_retransmit: bool,
    retransmit_on_first_dupack: bool,
    retransmit_after_ack_period: u32,
    clear_dupacks_on_timeout: bool,
    min_ssthresh_segs: u32,
    ssthresh_round_down: bool,
}

/// The replay work spent on one candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplayWork {
    /// Replay passes: 1, or 2 when a sender window was inferred (§6.2).
    pub(crate) passes: u64,
    /// Records visited, summed over the passes.
    pub(crate) records: u64,
    /// `true` when the final pass stopped before the last record.
    pub(crate) settled_early: bool,
}

/// What a [`lockstep`] replay of several candidates yields.
pub(crate) struct Lockstep {
    /// The groups that ended the replay, each holding the analysis of all
    /// its members.
    pub(crate) groups: Vec<Replayed>,
    /// Each candidate's own replay work, in input order: what replaying
    /// it alone would have cost.
    pub(crate) work: Vec<ReplayWork>,
    /// Records stepped, once per group and pass.
    pub(crate) records: u64,
    /// Groups split off another group (or off the first one at
    /// establishment) because their members' replays diverged.
    pub(crate) forks: u64,
}

/// One group at the end of a [`lockstep`] replay: candidates whose
/// replays of the connection agreed, so that its analysis is the analysis
/// of each of them.
pub(crate) struct Replayed {
    /// The analysis of every member.
    pub(crate) analysis: SenderAnalysis,
    /// The members' positions in the replay's input, in input order.
    pub(crate) members: Vec<usize>,
}

/// When a replay pass may end before the connection's last record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Until {
    /// The whole analysis is read: only a first pass that has settled on
    /// a second one ends early, since its analysis is discarded.
    End,
    /// Only whether the candidate fits closely is read: a pass also ends
    /// once it cannot.
    Verdict,
}

/// Whether a pass that can no longer fit closely (it has an issue or
/// more than one inferred quench) may stop for a verdict. A first pass
/// that may still infer the sender window must go on while the evidence
/// it has plus the peak sends left could reach the two a second pass
/// needs, for that pass starts afresh and may yet fit closely.
fn verdict_settled(may_infer_window: bool, evidence: usize, peak_sends_left: u32) -> bool {
    !may_infer_window || evidence + (peak_sends_left as usize) < 2
}

/// Replays every candidate of `cfgs` over the connection at once: a
/// first pass and, for the candidates whose first pass infers a limiting
/// sender window (§6.2), a second pass under that window. Each pass
/// steps groups of candidates through the records together ([`Group`]),
/// so the work that only the trace and the group's shared state decide is
/// done once per group, not once per candidate.
fn lockstep(
    prepared: &Prepared,
    cfgs: &[&TcpConfig],
    opts: &ReplayOptions,
    until: Until,
) -> Lockstep {
    let n = prepared.conn.records.len();
    let mut out = Lockstep {
        groups: Vec::with_capacity(cfgs.len()),
        work: vec![ReplayWork::default(); cfgs.len()],
        records: 0,
        forks: 0,
    };
    let first = Pass {
        prepared,
        opts,
        sender_window: None,
        until,
    };
    let members = cfgs
        .iter()
        .enumerate()
        .map(|(id, cfg)| Member::new(id, cfg, prepared))
        .collect();
    let mut again = Vec::new();
    for (group, visited) in first.run(members, &mut out) {
        for m in &group.members {
            out.work[m.id] = ReplayWork {
                passes: 1,
                records: visited as u64,
                settled_early: visited < n,
            };
        }
        if first.second_pass_due(&group.shared) {
            // The second pass starts afresh under the inferred window.
            again.extend(
                group
                    .members
                    .iter()
                    .map(|m| Member::new(m.id, m.cfg, prepared)),
            );
        } else {
            out.groups.push(group.finish());
        }
    }
    if again.is_empty() {
        return out;
    }
    again.sort_unstable_by_key(|m| m.id);
    let sw = prepared.pre.max_in_flight as u32;
    let second = Pass {
        sender_window: Some(sw),
        ..first
    };
    for (group, visited) in second.run(again, &mut out) {
        for m in &group.members {
            let work = &mut out.work[m.id];
            work.passes = 2;
            work.records += visited as u64;
            work.settled_early = visited < n;
        }
        let mut replayed = group.finish();
        replayed.analysis.inferred_sender_window = Some(sw);
        out.groups.push(replayed);
    }
    out
}

/// A liberation: from `at`, sending up to `permit` was allowed.
#[derive(Debug, Clone, Copy)]
struct Liberation {
    at: Time,
    permit: SeqNum,
}

/// The earliest liberation whose permit covers `hi`, skipping those at or
/// before `lib_floor` (unless the floor is unset, `Time(i64::MIN)`), and
/// the index where the covering entries start. The search starts at
/// `from`, an index known to be at or before that start.
///
/// `liberations` holds strictly increasing permits (`Libs` appends only a
/// permit `after` the last), so the covering entries are a suffix and
/// binary search finds where it starts. This holds while the permits and
/// `hi` lie within half the sequence space of each other, the same bound
/// the modular comparisons themselves need.
fn first_liberation(
    liberations: &[Liberation],
    from: usize,
    hi: SeqNum,
    lib_floor: Time,
) -> (usize, Option<Liberation>) {
    let tail = liberations.get(from..).unwrap_or_default();
    let start = from + tail.partition_point(|l| l.permit.before(hi));
    let lib = liberations
        .iter()
        .skip(start)
        .find(|l| l.at > lib_floor || lib_floor == Time(i64::MIN))
        .copied();
    (start, lib)
}

/// How far back in time a retransmission may be explained by *stale*
/// state — the §3.2 vantage ambiguity: the TCP may still be responding to
/// an earlier packet while later ones have already been recorded by the
/// filter ("in general it is insufficient … to only remember the most
/// recently received packet", §6.1).
const LOOKBEHIND: Duration = Duration::from_millis(15);
/// Pre-ack snapshots kept for the look-behind.
const HISTORY: usize = 32;

/// Snapshot of the retransmission-relevant state, taken before each
/// incoming ack is processed, enabling the look-behind (§4: "-packet
/// look-ahead and look-behind to resolve ambiguities"). `dup_acks` and
/// `fast_retx_armed` are the members' values, alike in a group.
#[derive(Debug, Clone, Copy)]
struct Snap {
    t: Time,
    snd_una: SeqNum,
    dup_acks: u32,
    fast_retx_armed: bool,
    resend_ptr: Option<SeqNum>,
}

/// What one pass of a [`lockstep`] replay reads alike in every group.
#[derive(Clone, Copy)]
struct Pass<'p, 'c> {
    prepared: &'p Prepared<'c>,
    opts: &'p ReplayOptions,
    /// The inferred sender window a second pass applies (§6.2).
    sender_window: Option<u32>,
    until: Until,
}

/// One record as a pass steps it: its index, the record, and the trace's
/// state before it (`now`) and once it has taken effect (`next`).
#[derive(Clone, Copy)]
struct Step<'r> {
    index: usize,
    rec: &'r TraceRecord,
    now: &'r Facts,
    next: &'r Facts,
}

/// Per-member effect buffers, reused from record to record.
struct Scratch {
    acks: Vec<AckEffect>,
    sends: Vec<Effect>,
}

/// Candidates whose replays have agreed so far: one copy of the state
/// that their configs do not decide, and each member's own state.
struct Group<'a> {
    shared: Shared,
    members: Vec<Member<'a>>,
}

/// The replay state that depends on the trace and on what the group's
/// members did with it so far, alike for every member.
struct Shared {
    liberations: Vec<Liberation>,
    /// The liberations before this index have permits before every new
    /// data send still to come: each send reaches beyond the one before,
    /// and the list only grows until a collapse clears it.
    lib_start: usize,
    /// Liberations at or before this time are considered consumed (e.g.
    /// burned by the §8.6 odd retransmission).
    lib_floor: Time,
    /// Go-back-N refill pointer after a window collapse.
    resend_ptr: Option<SeqNum>,
    /// Active burst-retransmission window.
    burst_until: Option<Time>,
    /// Recent pre-ack state snapshots for the §3.2 look-behind.
    history: std::collections::VecDeque<Snap>,
    /// Continuation pointer for a go-back-N refill matched against stale
    /// state (the snapshots themselves are immutable).
    stale_refill: Option<(SeqNum, Time)>,
    /// Segment being timed for an RTT sample (hi, first-sent), Karn-style.
    rto_timing: Option<(SeqNum, Time)>,
    /// While set, the replay is resynchronizing after an inferred quench:
    /// the exact quench instant is unknowable ("sometime between the ack
    /// and the data packet", §6.2), so the reconstructed slow-start phase
    /// may lag reality by an ack or two. Within this window, a send one
    /// flight ahead of the model is adopted rather than flagged.
    quench_resync_until: Option<Time>,
    /// Running median of the first `median_fed` response delays: the
    /// baseline that makes a response delay suspect. It takes in the
    /// later ones only when a delay long enough to be suspect reads it
    /// while the baseline is above [`LOW_DELAY`].
    delay_median: RunningMedian,
    median_fed: usize,
    /// How many response delays are at most [`LOW_DELAY`].
    low_delays: usize,
    /// The analysis so far, every member's alike.
    analysis: SenderAnalysis,
    sender_window_evidence: usize,
}

/// One candidate's own replay state: its config and what the config
/// makes of the trace.
struct Member<'a> {
    /// The candidate's position in the replay's input.
    id: usize,
    cfg: &'a TcpConfig,
    /// MSS used for the candidate's window arithmetic.
    cwnd_mss: u32,
    /// MSS the candidate sends.
    eff_mss: u32,
    cc: CcState,
    /// The candidate's own RTO machinery, replayed alongside (so a
    /// retransmission is accepted as a timeout only when the candidate's
    /// timer — Jacobson, Solaris-broken, or fixed — would actually have
    /// fired by then).
    rto_model: RttEstimator,
    /// Fast retransmit armed (threshold reached, retransmission expected).
    fast_retx_armed: bool,
    /// cwnd ceiling during a post-quench resync: the window the TCP
    /// demonstrably had before the inferred quench.
    pre_quench_cwnd: u64,
}

/// The changes one record makes to the liberations, normalized against
/// the list they apply to, so that two members whose changes leave the
/// same list compare equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Libs {
    /// The list is cleared first: a window cut invalidates earlier,
    /// larger permissions.
    collapse: bool,
    /// Permits appended, in order, each beyond the one before.
    pushed: [Option<SeqNum>; 2],
}

impl Libs {
    /// Appends `permit` unless it does not exceed the last permit: the
    /// last one pushed, or else `last_before`, that of the list before
    /// the record.
    fn push(&mut self, permit: SeqNum, last_before: Option<SeqNum>) {
        let last = self.pushed.iter().rev().flatten().next().copied();
        let last = if self.collapse {
            last
        } else {
            last.or(last_before)
        };
        if last.is_some_and(|l| !permit.after(l)) {
            return;
        }
        if let Some(slot) = self.pushed.iter_mut().find(|p| p.is_none()) {
            *slot = Some(permit);
        }
    }

    /// Clears the list and starts it again at `permit`.
    fn collapse(&mut self, permit: SeqNum) {
        *self = Libs {
            collapse: true,
            pushed: [Some(permit), None],
        };
    }
}

/// What one member's replay of an incoming ack does to the shared
/// state: the member values of its pre-ack snapshot, its liberations,
/// and whether a Tahoe collapse starts a go-back-N refill from
/// `snd_una`. Members whose effects are equal leave equal shared states,
/// so they stay in one group; a member whose effect differs forks off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AckEffect {
    dup_acks: u32,
    fast_retx_armed: bool,
    go_back: bool,
    libs: Libs,
}

/// What one member's replay of a data or FIN segment does to the shared
/// state; compared as [`AckEffect`]s are.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Effect {
    /// New data that is a zero-window probe.
    Probe,
    /// New data beyond the permit, adopted by a post-quench resync.
    Resync(Libs),
    /// New data beyond the permit that an ack recorded this much later
    /// cures.
    Cured(Duration),
    /// New data beyond the permit: a window violation, with the member
    /// values its detail names.
    Violation { permit: SeqNum, cwnd: u64 },
    /// New data within the permit: the liberations after an inferred
    /// quench, if the member infers one, and whether the send is
    /// sender-window evidence.
    Sent {
        quench: Option<Libs>,
        evidence: bool,
    },
    /// A retransmission: whether it ends the RTT timing (Karn), its cause
    /// and whether that was found in the look-behind, the dup-ack count
    /// an unexplained one names, whether it opens a burst window, and
    /// the liberations after a timeout.
    Retx {
        karn: bool,
        cause: Option<(RetxCause, bool)>,
        dup_acks: u32,
        burst: bool,
        libs: Libs,
    },
}

/// The liberation a new-data send is matched to, read once per group
/// before its members replay the send.
#[derive(Debug, Clone, Copy)]
struct Match {
    lib: Liberation,
    /// The delay is far above the connection's own response-time scale.
    suspect: bool,
    /// A first-pass send that takes the flight to the connection's peak
    /// with data still to come: sender-window evidence (§6.2) if the
    /// member's window allowed a full segment more.
    peak: bool,
}

impl Pass<'_, '_> {
    /// This is a first pass that may still infer a sender window.
    fn may_infer_window(&self) -> bool {
        self.sender_window.is_none()
            && self.opts.infer_sender_window
            && self.prepared.pre.max_in_flight > 0
    }

    /// The group has the evidence for a limiting sender window (§6.2).
    fn second_pass_due(&self, shared: &Shared) -> bool {
        shared.sender_window_evidence >= 2 && self.may_infer_window()
    }

    /// Whether a group can end its pass before the record whose facts
    /// are `next`: nothing the rest of the connection does can change
    /// what the pass's `until` says is read.
    fn settled(&self, shared: &Shared, next: &Facts) -> bool {
        if self.second_pass_due(shared) {
            return true;
        }
        let cannot_be_close =
            !shared.analysis.issues.is_empty() || shared.analysis.inferred_quenches.len() > 1;
        self.until == Until::Verdict
            && cannot_be_close
            && verdict_settled(
                self.may_infer_window(),
                shared.sender_window_evidence,
                next.peak_sends_from,
            )
    }

    /// Runs one pass over `members`: they start as one group, split by
    /// their first permit, and fork wherever their replays diverge. Once
    /// forked, groups are independent, so each is stepped on its own from
    /// the record after its fork to its end. Returns every group with the
    /// records it visited, and adds the records stepped and the forks to
    /// `out`.
    fn run<'a>(&self, members: Vec<Member<'a>>, out: &mut Lockstep) -> Vec<(Group<'a>, usize)> {
        let Prepared {
            conn, pre, facts, ..
        } = self.prepared;
        if members.is_empty() {
            return Vec::new();
        }
        // Never empty: it ends with the entry past the last record.
        let start = &facts[0];
        let permits: Vec<SeqNum> = members
            .iter()
            .map(|m| m.permit(start, self.sender_window))
            .collect();
        // A group per member at most.
        let most = members.len();
        let mut first = Group {
            shared: Shared::new(self.prepared),
            members,
        };
        let mut forked = Vec::with_capacity(most);
        first.split(&permits, self.prepared, &mut forked, |shared, &permit| {
            shared.liberations.push(Liberation {
                at: pre.establish_time,
                permit,
            });
        });
        out.forks += forked.len() as u64;
        // Groups still to step, each with the index of its next record.
        let mut pending: Vec<(Group<'a>, usize)> = Vec::with_capacity(most);
        pending.push((first, 0));
        pending.extend(forked.drain(..).map(|group| (group, 0)));

        let mut ended = Vec::with_capacity(most);
        let mut scratch = Scratch {
            acks: Vec::with_capacity(most),
            sends: Vec::with_capacity(most),
        };
        while let Some((mut group, from)) = pending.pop() {
            // A group forked at the record before `from` may already be
            // settled by what that record did.
            if from > 0
                && facts
                    .get(from)
                    .is_some_and(|f| self.settled(&group.shared, f))
            {
                ended.push((group, from));
                continue;
            }
            let mut visited = conn.records.len();
            let steps = facts.iter().zip(facts.iter().skip(1));
            let records = conn.records.iter().zip(steps).enumerate().skip(from);
            for (index, ((dir, rec), (now, next))) in records {
                let step = Step {
                    index,
                    rec,
                    now,
                    next,
                };
                out.records += 1;
                group.step(&step, *dir, self, &mut scratch, &mut forked);
                if !forked.is_empty() {
                    out.forks += forked.len() as u64;
                    pending.extend(forked.drain(..).map(|group| (group, index + 1)));
                }
                if self.settled(&group.shared, next) {
                    visited = index + 1;
                    break;
                }
            }
            ended.push((group, visited));
        }
        ended
    }
}

impl<'a> Group<'a> {
    /// Replays one record: each member works out its effect on the shared
    /// state. When they agree, the group applies that effect once;
    /// otherwise it splits by effect before applying them.
    fn step(
        &mut self,
        step: &Step,
        dir: Dir,
        pass: &Pass,
        scratch: &mut Scratch,
        forked: &mut Vec<Group<'a>>,
    ) {
        let rec = step.rec;
        let tcp = &rec.tcp;
        if tcp.flags.syn() || tcp.flags.rst() {
            return; // handshake handled in prescan
        }
        if dir == Dir::ReceiverToSender {
            if !tcp.flags.ack() {
                return;
            }
            let last = self.shared.liberations.last().map(|l| l.permit);
            let effects = &mut scratch.acks;
            let apply = |shared: &mut Shared, effect: &AckEffect| shared.apply_ack(step, effect);
            match self.effects(effects, |m, shared| m.on_ack(step, shared, last, pass)) {
                Some(effect) => apply(&mut self.shared, &effect),
                None => self.split(effects, pass.prepared, forked, apply),
            }
            return;
        }
        if !rec.is_data() && !tcp.flags.fin() {
            return; // pure acks from the sender (e.g. handshake third ack)
        }
        let hi = rec.seq_hi();
        let mut matched = None;
        let effects = &mut scratch.sends;
        let agreed = if hi.after(step.now.snd_max_seen) {
            matched = self.shared.match_liberation(step, hi, pass);
            // The common send: full-sized, with no quench to infer. Within
            // every member's permit, it is a plain send for them all, and
            // sender-window evidence or not alike at a peak send.
            let plain = rec.payload_len != 1
                && matched.is_none_or(|m| !(m.suspect && pass.opts.infer_quench));
            let peak = matched.is_some_and(|m| m.peak);
            let now = step.now;
            let evidence = |m: &Member| peak && m.window_exceeds_peak(now, pass);
            let first = self.members.first().map(evidence);
            if plain
                && self.members.iter().all(|m| {
                    !hi.after(m.permit(now, pass.sender_window)) && Some(evidence(m)) == first
                })
            {
                Some(Effect::Sent {
                    quench: None,
                    evidence: first == Some(true),
                })
            } else {
                self.effects(effects, |m, shared| {
                    m.on_new_data(step, hi, shared, pass, matched)
                })
            }
        } else {
            self.effects(effects, |m, shared| {
                m.on_retransmission(step, hi, shared, pass)
            })
        };
        let apply = |shared: &mut Shared, effect: &Effect| {
            shared.apply_send(step, effect, matched);
        };
        match agreed {
            Some(effect) => apply(&mut self.shared, &effect),
            None => self.split(effects, pass.prepared, forked, apply),
        }
    }

    /// Each member's effect of one record, worked out by `effect_of`:
    /// the effect, when every member's is the same; else `None`, with one
    /// effect per member, in member order, in `effects`.
    fn effects<E: Copy + PartialEq>(
        &mut self,
        effects: &mut Vec<E>,
        mut effect_of: impl FnMut(&mut Member<'a>, &Shared) -> E,
    ) -> Option<E> {
        effects.clear();
        let mut members = self.members.iter_mut();
        let first = effect_of(members.next()?, &self.shared);
        for (k, member) in members.enumerate() {
            let effect = effect_of(member, &self.shared);
            if effects.is_empty() {
                if effect == first {
                    continue;
                }
                // The first `k + 1` members agreed until this one.
                effects.resize(k + 1, first);
            }
            effects.push(effect);
        }
        effects.is_empty().then_some(first)
    }

    /// Gives each distinct effect in `effects` (one per member, in member
    /// order) a group of its own: the members whose effect equals the
    /// first member's stay, and the others go to `forked`, one new group
    /// per distinct effect, each with a copy of the shared state as it
    /// was before. Then `apply` gives each group its effect.
    fn split<E: PartialEq>(
        &mut self,
        effects: &[E],
        prepared: &Prepared,
        forked: &mut Vec<Group<'a>>,
        apply: impl Fn(&mut Shared, &E),
    ) {
        let Some(first) = effects.first() else {
            return;
        };
        if effects.iter().all(|e| e == first) {
            apply(&mut self.shared, first);
            return;
        }
        // Each part is sized for every member, so none regrows.
        let n = effects.len();
        let mut parts: Vec<(&E, Vec<Member<'a>>)> = Vec::with_capacity(n);
        for (member, effect) in std::mem::take(&mut self.members).into_iter().zip(effects) {
            match parts.iter_mut().find(|(e, _)| *e == effect) {
                Some((_, members)) => members.push(member),
                None => {
                    let mut members = Vec::with_capacity(n);
                    members.push(member);
                    parts.push((effect, members));
                }
            }
        }
        let mut parts = parts.into_iter();
        if let Some((effect, members)) = parts.next() {
            for (effect, members) in parts {
                let mut group = Group {
                    shared: self.shared.fork(prepared),
                    members,
                };
                apply(&mut group.shared, effect);
                forked.push(group);
            }
            self.members = members;
            apply(&mut self.shared, effect);
        }
    }

    /// The group's replay as a [`Replayed`].
    fn finish(self) -> Replayed {
        Replayed {
            analysis: self.shared.analysis,
            members: self.members.iter().map(|m| m.id).collect(),
        }
    }
}

impl Shared {
    fn new(prepared: &Prepared) -> Shared {
        let segments = prepared.pre.segments_sent;
        Shared {
            // A liberation per liberating ack, plus the first, is the
            // common case; window updates and resyncs may add more.
            liberations: Vec::with_capacity(prepared.liberating_ack_times.len() + 1),
            lib_start: 0,
            lib_floor: Time(i64::MIN),
            resend_ptr: None,
            burst_until: None,
            history: std::collections::VecDeque::with_capacity(HISTORY + 1),
            stale_refill: None,
            rto_timing: None,
            quench_resync_until: None,
            delay_median: RunningMedian::new(),
            median_fed: 0,
            low_delays: 0,
            analysis: SenderAnalysis {
                response_delays: Summary::with_capacity(segments),
                issues: Vec::new(),
                reseq_cured_violations: 0,
                inferred_sender_window: None,
                inferred_quenches: Vec::new(),
                zero_window_probes: 0,
                data_packets: 0,
                retransmissions: 0,
                retx_causes: Vec::new(),
            },
            sender_window_evidence: 0,
        }
    }

    /// A copy for a group forked off this one. Its lists get the room
    /// this group's were given, so that the copy does not regrow them one
    /// doubling at a time as the rest of the connection fills them.
    fn fork(&self, prepared: &Prepared) -> Shared {
        let segments = prepared.pre.segments_sent;
        let mut liberations =
            Vec::with_capacity(self.liberations.capacity().max(self.liberations.len()));
        liberations.extend_from_slice(&self.liberations);
        let mut history = std::collections::VecDeque::with_capacity(HISTORY + 1);
        history.extend(self.history.iter().copied());
        let analysis = &self.analysis;
        Shared {
            liberations,
            history,
            delay_median: self.delay_median.clone(),
            analysis: SenderAnalysis {
                response_delays: analysis.response_delays.clone_with_capacity(segments),
                issues: analysis.issues.clone(),
                inferred_quenches: analysis.inferred_quenches.clone(),
                retx_causes: analysis.retx_causes.clone(),
                ..*analysis
            },
            ..*self
        }
    }

    /// The liberation that new data up to `hi` is matched to: the
    /// earliest (unconsumed) one whose permit covers it.
    fn match_liberation(&mut self, step: &Step, hi: SeqNum, pass: &Pass) -> Option<Match> {
        let (start, lib) = first_liberation(&self.liberations, self.lib_start, hi, self.lib_floor);
        self.lib_start = start;
        let lib = lib?;
        let suspect = self.suspect(step.rec.ts - lib.at);
        let pre = &pass.prepared.pre;
        let peak = pass.sender_window.is_none()
            && hi - step.now.snd_una >= pre.max_in_flight
            && hi.before(pre.final_data_end);
        Some(Match { lib, suspect, peak })
    }

    /// Applies one record's changes to the liberations, from `at`.
    fn liberate(&mut self, libs: Libs, at: Time) {
        if libs.collapse {
            self.liberations.clear();
            self.lib_start = 0;
        }
        for permit in libs.pushed.into_iter().flatten() {
            self.liberations.push(Liberation { at, permit });
        }
    }

    /// Records one response delay.
    fn add_delay(&mut self, d: Duration) {
        self.low_delays += usize::from(d <= LOW_DELAY);
        self.analysis.response_delays.add(d);
    }

    /// `true` iff `delay` is *suspect*: far above the connection's own
    /// response-time scale, more than [`SUSPECT_FLOOR`] and ten times the
    /// baseline. That is where §6.2's source-quench signature hides even
    /// when the absolute delay is modest (a quench stall lasts about one
    /// RTT). None is suspect at or below the floor, and while the
    /// baseline is low the floor alone decides, so the baseline is read
    /// only above the floor and only when it is not low.
    fn suspect(&mut self, delay: Duration) -> bool {
        delay > SUSPECT_FLOOR && (self.baseline_is_low() || delay > self.baseline() * 10)
    }

    /// `true` iff the baseline is at most [`LOW_DELAY`]: at least half the
    /// response delays are, so their nearest-rank median is too (and the
    /// 2 ms baseline of no delays is).
    fn baseline_is_low(&self) -> bool {
        2 * self.low_delays >= self.analysis.response_delays.count()
    }

    /// The median response delay so far (2 ms before the first).
    fn baseline(&mut self) -> Duration {
        let delays = self.analysis.response_delays.samples();
        self.delay_median
            .add_all(delays.get(self.median_fed..).unwrap_or_default());
        self.median_fed = delays.len();
        self.delay_median
            .median()
            .unwrap_or(Duration::from_millis(2))
    }

    fn note_cause(&mut self, cause: RetxCause) {
        if let Some(entry) = self
            .analysis
            .retx_causes
            .iter_mut()
            .find(|(c, _)| *c == cause)
        {
            entry.1 += 1;
        } else {
            self.analysis.retx_causes.push((cause, 1));
        }
    }

    /// After a window violation or its cure: a resync window that has
    /// passed ends.
    fn end_resync_by(&mut self, t: Time) {
        if self.quench_resync_until.is_some_and(|until| t > until) {
            self.quench_resync_until = None;
        }
    }

    /// The shared side of replaying an incoming ack: everything the
    /// trace does to the shared state, and what `effect` adds.
    fn apply_ack(&mut self, step: &Step, effect: &AckEffect) {
        let Step { rec, now, next, .. } = *step;
        let t = rec.ts;
        self.history.push_back(Snap {
            t,
            snd_una: now.snd_una,
            dup_acks: effect.dup_acks,
            fast_retx_armed: effect.fast_retx_armed,
            resend_ptr: self.resend_ptr,
        });
        while self.history.len() > HISTORY {
            self.history.pop_front();
        }
        let ack = rec.tcp.ack;
        if ack.after(now.snd_una) {
            if self
                .rto_timing
                .is_some_and(|(timed_hi, _)| ack.at_or_after(timed_hi))
            {
                self.rto_timing = None;
            }
            if let Some(ptr) = self.resend_ptr {
                if ack.at_or_after(next.snd_max_seen) {
                    self.resend_ptr = None;
                } else if ack.after(ptr) {
                    self.resend_ptr = Some(ack);
                }
            }
        }
        if effect.go_back {
            // Tahoe collapse: go-back-N from snd_una.
            self.resend_ptr = Some(now.snd_una);
        }
        self.liberate(effect.libs, t);
    }

    /// The shared side of replaying a data or FIN segment: everything the
    /// trace does to the shared state, and what `effect` adds. `matched`
    /// is the group's [`Match`] for a new-data send.
    fn apply_send(&mut self, step: &Step, effect: &Effect, matched: Option<Match>) {
        let Step {
            index, rec, now, ..
        } = *step;
        let t = rec.ts;
        let hi = rec.seq_hi();
        // A data or FIN segment.
        if rec.is_data() {
            self.analysis.data_packets += 1;
        }
        if let Effect::Retx {
            karn,
            cause,
            dup_acks,
            burst,
            libs,
        } = *effect
        {
            if karn {
                self.rto_timing = None; // Karn: the timed segment was re-sent
            }
            self.apply_retransmission(step, cause, dup_acks, burst, libs);
            return;
        }
        if self.rto_timing.is_none() && rec.is_data() {
            self.rto_timing = Some((hi, t));
        }
        match *effect {
            Effect::Probe => {
                // Zero-window probe: the persist timer talking, not a
                // violation.
                self.analysis.zero_window_probes += 1;
                return;
            }
            Effect::Resync(libs) => {
                self.add_delay(Duration::ZERO);
                self.liberate(libs, t);
                return;
            }
            Effect::Cured(margin) => {
                self.end_resync_by(t);
                self.analysis.reseq_cured_violations += 1;
                self.add_delay(-margin);
                return;
            }
            Effect::Violation { permit, cwnd } => {
                self.end_resync_by(t);
                self.analysis.issues.push(SenderIssue {
                    index,
                    time: t,
                    detail: IssueDetail::WindowViolation {
                        sent: hi,
                        permit,
                        cwnd,
                        offered: now.peer_window,
                        una: now.snd_una,
                    },
                });
                return;
            }
            Effect::Sent { quench, evidence } => {
                if let Some(Match { lib, .. }) = matched {
                    let delay = t - lib.at;
                    if let Some(libs) = quench {
                        // The member entered slow start when the (unseen)
                        // quench arrived, shortly after `lib.at` (§6.2).
                        self.analysis.inferred_quenches.push(lib.at);
                        let rtt = now.rtt_estimate.unwrap_or(Duration::from_millis(100));
                        self.quench_resync_until = Some(t + rtt * 4);
                        self.liberate(libs, t);
                        self.add_delay(Duration::ZERO);
                    } else if delay > LULL_THRESHOLD {
                        self.analysis.issues.push(SenderIssue {
                            index,
                            time: t,
                            detail: IssueDetail::Lull { sent: hi, delay },
                        });
                    } else {
                        self.add_delay(delay);
                    }
                    if evidence {
                        self.sender_window_evidence += 1;
                    }
                }
            }
            Effect::Retx { .. } => {}
        }
        // Advancing past the refill pointer completes the refill.
        if self.resend_ptr.is_some_and(|ptr| hi.after(ptr)) {
            self.resend_ptr = None;
        }
    }

    /// The shared side of a retransmission whose cause (and whether it
    /// was found in the look-behind) a member worked out.
    fn apply_retransmission(
        &mut self,
        step: &Step,
        cause: Option<(RetxCause, bool)>,
        dup_acks: u32,
        burst: bool,
        libs: Libs,
    ) {
        let Step {
            index, rec, now, ..
        } = *step;
        self.analysis.retransmissions += 1;
        let (t, seq, hi) = (rec.ts, rec.tcp.seq, rec.seq_hi());
        let Some((cause, stale)) = cause else {
            self.analysis.issues.push(SenderIssue {
                index,
                time: t,
                detail: IssueDetail::UnexplainedRetransmission { seq, dup_acks },
            });
            return;
        };
        self.note_cause(cause);
        // A refill goes on from `hi`, unless that completes it.
        let refill = hi.before(now.snd_max_seen).then_some(hi);
        match cause {
            RetxCause::BurstContinuation | RetxCause::EarlyDupAck => {
                if burst {
                    // Rolling window: a burst lasts as long as its packets
                    // keep coming back-to-back (§8.5's bursts can span
                    // dozens of packets and tens of milliseconds).
                    self.burst_until = Some(t + BURST_WINDOW);
                }
            }
            RetxCause::RefillAfterCut if stale => self.stale_refill = Some((hi, t)),
            RetxCause::RefillAfterCut => self.resend_ptr = refill,
            RetxCause::FastRetransmit => {}
            RetxCause::OddRetransmitAfterAck => {
                // The liberation is burned: new data waits for the next
                // ack (§8.6).
                self.lib_floor = t;
            }
            RetxCause::Timeout => {
                self.liberate(libs, t);
                if burst {
                    self.burst_until = Some(t + BURST_WINDOW);
                } else {
                    self.resend_ptr = refill;
                }
            }
        }
    }
}

impl<'a> Member<'a> {
    fn new(id: usize, cfg: &'a TcpConfig, prepared: &Prepared) -> Member<'a> {
        let (cwnd_mss, eff_mss, cc) = prepared.establishment(cfg);
        Member {
            id,
            cfg,
            cwnd_mss,
            eff_mss,
            cc,
            rto_model: RttEstimator::new(cfg),
            fast_retx_armed: false,
            pre_quench_cwnd: 0,
        }
    }

    fn usable_window(&self, now: &Facts, sender_window: Option<u32>) -> u64 {
        let cwnd = if self.cfg.no_congestion_window {
            u64::MAX
        } else {
            self.cc.cwnd
        };
        let mut w = cwnd.min(u64::from(now.peer_window));
        if let Some(sw) = sender_window {
            w = w.min(u64::from(sw));
        }
        w
    }

    fn permit(&self, now: &Facts, sender_window: Option<u32>) -> SeqNum {
        now.snd_una
            + (self
                .usable_window(now, sender_window)
                .min(u64::from(u32::MAX)) as u32)
    }

    /// Replays an incoming ack; `last` is the last permit of the group's
    /// liberations.
    fn on_ack(
        &mut self,
        step: &Step,
        shared: &Shared,
        last: Option<SeqNum>,
        pass: &Pass,
    ) -> AckEffect {
        let Step { rec, now, next, .. } = *step;
        let sw = pass.sender_window;
        let (snap_dup_acks, snap_armed) = (self.cc.dup_acks, self.fast_retx_armed);
        let mut libs = Libs::default();
        let mut go_back = false;
        let ack = rec.tcp.ack;
        if ack.after(now.snd_una) {
            // Liberating ack. Replay the candidate's RTO machinery (§8.6:
            // the Solaris variant resets on any ack covering retransmitted
            // data).
            let any_retransmitted = now.last_retx_time.is_some();
            if any_retransmitted && ack.at_or_before(now.retx_high) {
                self.rto_model.on_ack_of_retransmitted();
            } else {
                self.rto_model.on_clean_ack();
            }
            if let Some((timed_hi, t0)) = shared.rto_timing {
                let retransmitted = any_retransmitted && timed_hi.at_or_before(now.retx_high);
                if ack.at_or_after(timed_hi) && !retransmitted {
                    self.rto_model.sample(rec.ts - t0);
                }
            }
            if self.cc.in_recovery {
                self.cc.exit_recovery(self.cfg, self.cwnd_mss);
            } else {
                self.cc.open_window(self.cfg, self.cwnd_mss);
            }
            self.cc.dup_acks = 0;
            self.fast_retx_armed = false;
            // The ack advances snd_una and sets the offered window.
            libs.push(self.permit(next, sw), last);
        } else if ack == now.snd_una {
            if is_dup_ack(rec, now) {
                self.cc.dup_acks += 1;
                if self.cfg.dupack_updates_cwnd {
                    self.cc.open_window(self.cfg, self.cwnd_mss);
                    libs.push(self.permit(now, sw), last);
                }
                if self.cfg.fast_retransmit && self.cc.dup_acks == self.cfg.dupack_threshold {
                    // The TCP will cut & retransmit now; mirror it.
                    let flight = self.usable_window(now, sw).max(u64::from(self.cwnd_mss));
                    let entered = self.cc.enter_fast_retransmit(
                        self.cfg,
                        self.cwnd_mss,
                        flight,
                        now.snd_max_seen,
                    );
                    self.fast_retx_armed = true;
                    go_back = !entered;
                    libs.collapse(self.permit(now, sw));
                } else if self.cc.in_recovery && self.cc.dup_acks > self.cfg.dupack_threshold {
                    self.cc.recovery_inflate(self.cwnd_mss);
                    libs.push(self.permit(now, sw), last);
                }
            } else if u32::from(rec.tcp.window) != now.peer_window {
                libs.push(self.permit(next, sw), last);
            }
        }
        AckEffect {
            dup_acks: snap_dup_acks,
            fast_retx_armed: snap_armed,
            go_back,
            libs,
        }
    }

    /// Replays new data up to `hi`; `matched` is the group's [`Match`].
    fn on_new_data(
        &mut self,
        step: &Step,
        hi: SeqNum,
        shared: &Shared,
        pass: &Pass,
        matched: Option<Match>,
    ) -> Effect {
        let Step { rec, now, .. } = *step;
        let sw = pass.sender_window;
        // Zero-window probe: a one-byte segment sent while the window
        // cannot fit a real segment is the persist timer talking, not a
        // violation.
        if rec.payload_len == 1 {
            let in_flight = (now.snd_max_seen - now.snd_una).max(0) as u64;
            if self.usable_window(now, sw) <= in_flight + u64::from(self.cwnd_mss) / 4 {
                return Effect::Probe;
            }
        }
        // Window check.
        let permit = self.permit(now, sw);
        if hi.after(permit) {
            // Post-quench resync: the slow-start phase reconstruction may
            // lag by an ack; adopt the observed flight while it stays
            // below the pre-quench window.
            if let Some(until) = shared.quench_resync_until {
                let flight = (hi - now.snd_una).max(0) as u64;
                if rec.ts <= until && flight <= self.pre_quench_cwnd {
                    self.cc.cwnd = self.cc.cwnd.max(flight);
                    let mut libs = Libs::default();
                    let last = shared.liberations.last().map(|l| l.permit);
                    libs.push(self.permit(now, sw), last);
                    return Effect::Resync(libs);
                }
            }
            // An ack recorded ≤ ε later that, once processed, would
            // permit `hi` (§3.1.3 situation ii / §3.2 vantage ambiguity).
            // Approximate: its snd_una plus at least the current usable
            // window (the window only grows on a liberating ack).
            let window = self.usable_window(now, sw).min(u64::from(u32::MAX)) as u32;
            let cures = |dir, ack: &TraceRecord| {
                dir == Dir::ReceiverToSender
                    && ack.tcp.flags.ack()
                    && ack.tcp.ack.after(now.snd_una)
                    && (ack.tcp.ack + window).at_or_after(hi)
            };
            let records = &pass.prepared.conn.records;
            if let Some(margin) = first_within(records, step.index, pass.opts.epsilon, cures) {
                return Effect::Cured(margin);
            }
            return Effect::Violation {
                permit,
                cwnd: self.cc.cwnd,
            };
        }
        let Some(Match { lib, suspect, peak }) = matched else {
            return Effect::Sent {
                quench: None,
                evidence: false,
            };
        };
        let mut quench = None;
        if suspect && pass.opts.infer_quench && self.quench_consistent(lib.at, hi, now, pass) {
            // Repair the model: the TCP entered slow start when the
            // (unseen) quench arrived — shortly after `lib.at` — and
            // every liberating ack since then grew cwnd by one segment
            // (§6.2: "the whole series is consistent with slow start
            // having begun sometime between the ack and the data
            // packet").
            self.pre_quench_cwnd = self.cc.cwnd;
            self.cc.on_quench(self.cfg, self.cwnd_mss);
            let prepared = pass.prepared;
            let acks_since = acks_between(
                now.liberating_acks_seen(&prepared.liberating_ack_times),
                prepared.sorted_acks,
                lib.at,
                rec.ts,
            ) as u64;
            self.cc.cwnd += acks_since * u64::from(self.cwnd_mss);
            let mut libs = Libs::default();
            libs.collapse(self.permit(now, sw));
            quench = Some(libs);
        }
        let evidence = peak && self.window_exceeds_peak(now, pass);
        Effect::Sent { quench, evidence }
    }

    /// Sender-window evidence (§6.2) at a peak send: the window allowed a
    /// full segment more than the connection ever had in flight, yet the
    /// flight peaked at `max_in_flight` with data still to come.
    fn window_exceeds_peak(&self, now: &Facts, pass: &Pass) -> bool {
        self.usable_window(now, pass.sender_window) as i64
            >= pass.prepared.pre.max_in_flight + i64::from(self.eff_mss)
    }

    /// Replays a retransmission of data up to `hi`.
    fn on_retransmission(
        &mut self,
        step: &Step,
        hi: SeqNum,
        shared: &Shared,
        pass: &Pass,
    ) -> Effect {
        let Step { rec, now, .. } = *step;
        let (seq, t) = (rec.tcp.seq, rec.ts);
        let karn = shared.rto_timing.is_some_and(|(timed_hi, _)| {
            timed_hi.after(seq) && timed_hi.at_or_before(hi + self.cwnd_mss)
        });

        // Current-state view first; then the §3.2 look-behind through the
        // pre-ack snapshots (newest first) within the vantage window.
        let now_view = Snap {
            t,
            snd_una: now.snd_una,
            dup_acks: self.cc.dup_acks,
            fast_retx_armed: self.fast_retx_armed,
            resend_ptr: shared.resend_ptr,
        };
        let try_cause = |view: &Snap| self.try_cause(seq, hi, t, view, now, shared, pass);
        let cause = match try_cause(&now_view) {
            Some(c) => Some((c, false)),
            None => shared
                .history
                .iter()
                .rev()
                .take_while(|s| t - s.t <= pass.opts.lookbehind)
                .find_map(try_cause)
                .map(|c| (c, true)),
        };
        let Some((found, _)) = cause else {
            return Effect::Retx {
                karn,
                cause,
                dup_acks: self.cc.dup_acks,
                burst: false,
                libs: Libs::default(),
            };
        };
        let mut libs = Libs::default();
        let burst = match found {
            RetxCause::BurstContinuation | RetxCause::EarlyDupAck => self.cfg.burst_retransmit,
            RetxCause::FastRetransmit => {
                self.fast_retx_armed = false;
                false
            }
            RetxCause::Timeout => {
                self.rto_model.on_timeout();
                let sw = pass.sender_window;
                let flight = self.usable_window(now, sw).max(u64::from(self.cwnd_mss));
                self.cc.on_timeout(self.cfg, self.cwnd_mss, flight);
                libs.collapse(self.permit(now, sw));
                self.cfg.burst_retransmit
            }
            RetxCause::RefillAfterCut | RetxCause::OddRetransmitAfterAck => false,
        };
        Effect::Retx {
            karn,
            cause,
            dup_acks: 0,
            burst,
            libs,
        }
    }

    /// Tests every per-config retransmission rule against one state view.
    #[allow(clippy::too_many_arguments)]
    fn try_cause(
        &self,
        seq: SeqNum,
        hi: SeqNum,
        t: Time,
        view: &Snap,
        now: &Facts,
        shared: &Shared,
        pass: &Pass,
    ) -> Option<RetxCause> {
        // (a) Part of an ongoing burst.
        if let Some(until) = shared.burst_until {
            if t <= until && seq.at_or_after(view.snd_una) {
                return Some(RetxCause::BurstContinuation);
            }
        }
        // (b) Go-back-N refill at the expected pointer (or continuing a
        // refill that was matched against stale state).
        if view.resend_ptr == Some(seq)
            && !hi.after(self.permit(now, pass.sender_window) + self.cwnd_mss)
        {
            return Some(RetxCause::RefillAfterCut);
        }
        if let Some((ptr, at)) = shared.stale_refill {
            if ptr == seq && t - at <= pass.opts.lookbehind {
                return Some(RetxCause::RefillAfterCut);
            }
        }
        let head = seq == view.snd_una;
        // (c) Fast retransmit armed by the dup-ack threshold.
        if head && view.fast_retx_armed {
            return Some(RetxCause::FastRetransmit);
        }
        // (d) §8.5: retransmission on the first dup ack.
        if head && self.cfg.retransmit_on_first_dupack && view.dup_acks >= 1 {
            return Some(RetxCause::EarlyDupAck);
        }
        // (e) §8.6: odd retransmission just after a liberating ack —
        // "just after" includes the host's processing lag (§3.2), so any
        // liberating ack within the look-behind window qualifies.
        if head && self.cfg.retransmit_after_ack_period > 0 {
            let lb = pass.opts.lookbehind.max(EPSILON);
            let recent = now
                .liberating_acks_seen(&pass.prepared.liberating_ack_times)
                .iter()
                .rev()
                .take(8)
                .any(|&at| t >= at && t - at <= lb);
            if recent {
                return Some(RetxCause::OddRetransmitAfterAck);
            }
        }
        // (f) Timeout: accepted only when the candidate's *own* RTO
        // machinery would have fired by now — this is what lets a trace
        // full of 300–600 ms retransmissions reject every candidate whose
        // adapted timer sits above a second, while the Solaris profile
        // (whose timer is reset by acks of retransmitted data and so
        // never adapts) explains it.
        let since_last = now.prev_send.map(|t0| t - t0).unwrap_or(Duration::ZERO);
        let floor = self.cfg.min_rto.min(self.cfg.initial_rto);
        let modeled = self.rto_model.rto();
        let threshold = (modeled * 3 / 5).max(floor * 4 / 5);
        if head && since_last >= threshold {
            return Some(RetxCause::Timeout);
        }
        None
    }

    /// Does this delayed send look like a slow-start restart — the §6.2
    /// signature of an unseen source quench? The tell is a *collapsed
    /// flight*: the TCP stalled with the window wide open and resumed
    /// with far less data outstanding than the connection's peak. (Not
    /// applicable to configs that do not slow-start on quench, e.g.
    /// Linux 1.0 — exactly the caveat the paper notes.)
    fn quench_consistent(&self, lib_at: Time, hi: SeqNum, now: &Facts, pass: &Pass) -> bool {
        if !matches!(
            self.cfg.quench_response,
            QuenchResponse::SlowStart | QuenchResponse::SlowStartCutSsthresh
        ) {
            return false;
        }
        // Retransmission activity during the stall already explains a
        // disturbed window; do not also invent a quench.
        if now.last_retx_time.is_some_and(|t| t >= lib_at) {
            return false;
        }
        let flight_now = (hi - now.snd_una).max(0);
        flight_now <= i64::from(2 * self.eff_mss).max(pass.prepared.pre.max_in_flight / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::classify;
    use tcpa_tcpsim::profiles;
    use tcpa_trace::{Trace, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, TcpFlags, TcpOption, TcpRepr};

    fn rec(
        ts_ms: i64,
        src: u8,
        dst: u8,
        flags: TcpFlags,
        seq: u32,
        len: u32,
        ack: u32,
    ) -> TraceRecord {
        TraceRecord {
            ts: Time::from_millis(ts_ms),
            ip: Ipv4Repr {
                src: Ipv4Addr::from_host_id(src),
                dst: Ipv4Addr::from_host_id(dst),
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident: 0,
                payload_len: 20 + len as usize,
            },
            tcp: TcpRepr {
                seq: SeqNum(seq),
                ack: SeqNum(ack),
                flags,
                window: 32_768,
                ..TcpRepr::new(5000 + u16::from(src), 5000 + u16::from(dst))
            },
            payload_len: len,
            checksum_ok: Some(true),
        }
    }

    fn with_mss(mut r: TraceRecord, mss: u16) -> TraceRecord {
        r.tcp.options.push(TcpOption::Mss(mss));
        r
    }

    const A: TcpFlags = TcpFlags::ACK;
    const S: TcpFlags = TcpFlags::SYN;
    const SA: TcpFlags = TcpFlags(0x12);

    /// A hand-built clean slow-start trace: 1, then 2, then 4 segments,
    /// each flight ack-clocked, MSS 512.
    fn slow_start_trace() -> Connection {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(100, 2, 1, SA, 9000, 0, 1001), 512),
            rec(101, 1, 2, A, 1001, 0, 9001),
            // flight 1
            rec(102, 1, 2, A, 1001, 512, 9001),
            rec(202, 2, 1, A, 9001, 0, 1513),
            // flight 2
            rec(203, 1, 2, A, 1513, 512, 9001),
            rec(204, 1, 2, A, 2025, 512, 9001),
            rec(303, 2, 1, A, 9001, 0, 2537),
            // flight 3 (ack covered both: cwnd now 3*512? one ack for two
            // segments → one open_window → cwnd 3: three segments go out)
            rec(304, 1, 2, A, 2537, 512, 9001),
            rec(305, 1, 2, A, 3049, 512, 9001),
            rec(306, 1, 2, A, 3561, 512, 9001),
        ];
        let trace: Trace = v.drain(..).collect();
        Connection::split(&trace).remove(0)
    }

    #[test]
    fn clean_slow_start_fits_reno_with_no_issues() {
        let conn = slow_start_trace();
        let a = analyze_sender(&conn, &profiles::reno()).expect("analyzable");
        assert!(a.issues.is_empty(), "{:?}", a.issues);
        assert_eq!(a.retransmissions, 0);
        assert_eq!(a.data_packets, 6);
        // Response delays: each flight goes out within a few ms of its ack
        // (the hand-built trace spaces back-to-back sends 1 ms apart).
        assert!(a.response_delays.max().unwrap() <= Duration::from_millis(5));
    }

    /// [`slow_start_trace`], but a 4th segment in flight 3 exceeds
    /// cwnd=3·512.
    fn overshoot_trace() -> Connection {
        let mut v = slow_start_trace().records;
        v.push((Dir::SenderToReceiver, rec(307, 1, 2, A, 4073, 512, 9001)));
        Connection {
            records: v,
            ..slow_start_trace()
        }
    }

    #[test]
    fn overshoot_is_a_window_violation() {
        let conn = overshoot_trace();
        let a = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert_eq!(a.hard_issues(), 1, "{:?}", a.issues);
        assert!(matches!(
            a.issues[0].kind(),
            SenderIssueKind::WindowViolation
        ));
    }

    #[test]
    fn violation_cured_by_adjacent_ack_is_resequencing_not_misbehavior() {
        let conn = {
            let mut v = slow_start_trace().records;
            v.push((Dir::SenderToReceiver, rec(307, 1, 2, A, 4073, 512, 9001)));
            // The curing ack recorded 400 µs later.
            let mut cure = rec(307, 2, 1, A, 9001, 0, 3049);
            cure.ts = Time::from_micros(307_400);
            v.push((Dir::ReceiverToSender, cure));
            Connection {
                records: v,
                ..slow_start_trace()
            }
        };
        let a = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert_eq!(a.hard_issues(), 0, "{:?}", a.issues);
        assert_eq!(a.reseq_cured_violations, 1);
    }

    #[test]
    fn timeout_retransmission_accepted_and_window_collapsed() {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(100, 2, 1, SA, 9000, 0, 1001), 512),
            rec(102, 1, 2, A, 1001, 512, 9001),
            // no ack; RTO (≥ 1 s for Reno) fires:
            rec(3200, 1, 2, A, 1001, 512, 9001),
        ];
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        let a = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert!(a.issues.is_empty(), "{:?}", a.issues);
        assert_eq!(a.retransmissions, 1);
        assert_eq!(a.retx_causes, vec![(RetxCause::Timeout, 1)]);
    }

    #[test]
    fn premature_retransmission_rejected_for_reno_accepted_for_solaris() {
        // Retransmission after only 400 ms: below Reno's 1 s floor,
        // above Solaris's 200 ms floor.
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(100, 2, 1, SA, 9000, 0, 1001), 512),
            rec(102, 1, 2, A, 1001, 512, 9001),
            rec(502, 1, 2, A, 1001, 512, 9001),
        ];
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);

        let reno = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert_eq!(reno.hard_issues(), 1, "{:?}", reno.issues);
        assert!(matches!(
            reno.issues[0].kind(),
            SenderIssueKind::UnexplainedRetransmission
        ));

        let sol = analyze_sender(&conn, &profiles::solaris_2_4()).unwrap();
        assert_eq!(sol.hard_issues(), 0, "{:?}", sol.issues);
        assert_eq!(sol.retx_causes, vec![(RetxCause::Timeout, 1)]);
    }

    #[test]
    fn fast_retransmit_after_three_dups_accepted() {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
            rec(51, 1, 2, A, 1001, 512, 9001),
            rec(150, 2, 1, A, 9001, 0, 1513),
            rec(151, 1, 2, A, 1513, 512, 9001),
            rec(152, 1, 2, A, 2025, 512, 9001),
            rec(250, 2, 1, A, 9001, 0, 2537),
            // four segments; first (2537) lost in the network
            rec(251, 1, 2, A, 2537, 512, 9001),
            rec(252, 1, 2, A, 3049, 512, 9001),
            rec(253, 1, 2, A, 3561, 512, 9001),
            // dup acks for 2537 elicited by the two later segments + one more
            rec(350, 2, 1, A, 9001, 0, 2537),
            rec(351, 2, 1, A, 9001, 0, 2537),
            rec(352, 2, 1, A, 9001, 0, 2537),
            // fast retransmit
            rec(353, 1, 2, A, 2537, 512, 9001),
        ];
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        let a = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert_eq!(a.hard_issues(), 0, "{:?}", a.issues);
        assert_eq!(a.retx_causes, vec![(RetxCause::FastRetransmit, 1)]);
    }

    #[test]
    fn burst_retransmission_fits_linux_but_not_reno() {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
            rec(51, 1, 2, A, 1001, 512, 9001),
            rec(150, 2, 1, A, 9001, 0, 1513),
            rec(151, 1, 2, A, 1513, 512, 9001),
            rec(152, 1, 2, A, 2025, 512, 9001),
            // one dup ack …
            rec(250, 2, 1, A, 9001, 0, 1513),
            // … and Linux 1.0 re-sends everything in flight at once.
            rec(251, 1, 2, A, 1513, 512, 9001),
            rec(252, 1, 2, A, 2025, 512, 9001),
        ];
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);

        let lin = analyze_sender(&conn, &profiles::linux_1_0()).unwrap();
        assert_eq!(lin.hard_issues(), 0, "{:?}", lin.issues);
        assert!(lin
            .retx_causes
            .iter()
            .any(|(c, _)| *c == RetxCause::EarlyDupAck));
        assert!(lin
            .retx_causes
            .iter()
            .any(|(c, _)| *c == RetxCause::BurstContinuation));

        let reno = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert!(reno.hard_issues() >= 1, "{:?}", reno.issues);
    }

    /// Slow start until a 2048-byte socket buffer (4 segments) caps the
    /// flight: flights of 1, 2, 4, 4, 4, … with every segment acked
    /// individually, each ack offering `offered` bytes.
    fn plateau_trace(offered: u16) -> Connection {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
        ];
        let mut una = 1001u32;
        let mut t = 60;
        for round in 0..8 {
            let flight = [1usize, 2, 4][round.min(2)];
            for k in 0..flight {
                v.push(rec(t + k as i64, 1, 2, A, una + 512 * k as u32, 512, 9001));
            }
            t += 100;
            for k in 0..flight {
                una += 512;
                let mut ack = rec(t + k as i64, 2, 1, A, 9001, 0, una);
                ack.tcp.window = offered;
                v.push(ack);
            }
            t += 10;
        }
        let trace: Trace = v.drain(..).collect();
        Connection::split(&trace).remove(0)
    }

    #[test]
    fn sender_window_inferred_when_flight_plateaus() {
        // Offered window 32 KB and cwnd keeps growing, but the socket
        // buffer caps the flight at 2048 bytes (4 segments).
        let conn = plateau_trace(32_768);
        let a = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert_eq!(a.inferred_sender_window, Some(2048));
        assert!(a.issues.is_empty(), "{:?}", a.issues);
    }

    /// A first pass of `cfg` alone, to its end or until a second pass is
    /// due.
    struct FirstPass {
        analysis: SenderAnalysis,
        visited: usize,
        second_pass_due: bool,
    }

    fn first_pass(prepared: &Prepared, cfg: &TcpConfig) -> FirstPass {
        let opts = ReplayOptions::default();
        let pass = Pass {
            prepared,
            opts: &opts,
            sender_window: None,
            until: Until::End,
        };
        let mut out = Lockstep {
            groups: Vec::new(),
            work: Vec::new(),
            records: 0,
            forks: 0,
        };
        let mut ended = pass.run(vec![Member::new(0, cfg, prepared)], &mut out);
        let (group, visited) = ended.pop().expect("one group");
        assert!(ended.is_empty());
        FirstPass {
            second_pass_due: pass.second_pass_due(&group.shared),
            analysis: group.finish().analysis,
            visited,
        }
    }

    /// `cfg`'s replay for a verdict alone: its analysis and its work.
    fn verdict(prepared: &Prepared, cfg: &TcpConfig) -> (SenderAnalysis, ReplayWork) {
        let mut replay = prepared.replay(&[cfg], Until::Verdict);
        let group = replay.groups.pop().expect("one group");
        assert!(replay.groups.is_empty());
        (group.analysis, replay.work[0])
    }

    #[test]
    fn full_replay_ends_its_first_pass_once_the_second_is_due() {
        let conn = plateau_trace(32_768);
        let prepared = Prepared::new(&conn).unwrap();
        let reno = profiles::reno();
        let first = first_pass(&prepared, &reno);
        assert!(first.second_pass_due);
        assert!(first.visited < conn.records.len(), "{}", first.visited);
        let opts = ReplayOptions::default();
        let replay = lockstep(&prepared, &[&reno], &opts, Until::End);
        let a = prepared.analyze(&reno, &opts).unwrap();
        assert_eq!(a.inferred_sender_window, Some(2048));
        assert_eq!(
            replay.work,
            [ReplayWork {
                passes: 2,
                records: (first.visited + conn.records.len()) as u64,
                settled_early: false,
            }]
        );
    }

    #[test]
    fn verdict_settles_only_once_evidence_plus_peak_sends_left_is_below_two() {
        for evidence in 0..4 {
            for left in 0..4u32 {
                assert_eq!(
                    verdict_settled(true, evidence, left),
                    evidence + (left as usize) < 2,
                    "evidence {evidence}, peak sends left {left}"
                );
                // With no second pass to come, the first non-close event
                // settles the verdict.
                assert!(verdict_settled(false, evidence, left));
            }
        }
    }

    #[test]
    fn first_pass_with_issues_goes_on_while_a_second_pass_may_come() {
        // Trumpet has no congestion window, so its first pass over the
        // plateau finds lulls before the sender-window evidence is in;
        // under the inferred window its second pass has no issues.
        let conn = plateau_trace(32_768);
        let cfg = profiles::trumpet_winsock();
        let prepared = Prepared::new(&conn).unwrap();
        let first = first_pass(&prepared, &cfg);
        assert!(first.second_pass_due);
        let first_issue = first
            .analysis
            .issues
            .first()
            .expect("first pass has issues");
        assert!(first_issue.index + 1 < first.visited, "{first_issue:?}");

        let (a, work) = verdict(&prepared, &cfg);
        let full = analyze_sender(&conn, &cfg).unwrap();
        assert_eq!(work.passes, 2);
        assert!(!work.settled_early);
        assert_eq!(a.inferred_sender_window, Some(2048));
        assert!(a.issues.is_empty(), "{:?}", a.issues);
        assert_eq!(classify(&a), classify(&full));
        assert_eq!(a.response_delays.samples(), full.response_delays.samples());
    }

    #[test]
    fn doomed_first_pass_stops_once_evidence_plus_peak_sends_left_is_below_two() {
        // A 2048-byte offered window keeps every candidate's window at
        // the peak flight, so no pass gathers sender-window evidence.
        let mut conn = plateau_trace(2048);
        // A needless resend of the first segment 1 ms on: Reno's 1 s RTO
        // floor cannot explain it.
        let resend = rec(61, 1, 2, A, 1001, 512, 9001);
        conn.records.insert(3, (Dir::SenderToReceiver, resend));
        let reno = profiles::reno();
        let full = analyze_sender(&conn, &reno).unwrap();
        assert_eq!(full.issues.first().map(|i| i.index), Some(3));
        assert_eq!(full.inferred_sender_window, None);

        let prepared = Prepared::new(&conn).unwrap();
        let from: Vec<u32> = prepared.facts.iter().map(|f| f.peak_sends_from).collect();
        assert_eq!(from.len(), conn.records.len() + 1);
        assert_eq!((from[0], from[conn.records.len()]), (5, 0), "{from:?}");
        // The pass goes on past its issue while at least two peak sends
        // are left, and ends at the record that leaves one.
        let stop = (3..conn.records.len()).find(|&i| from[i + 1] < 2).unwrap();
        assert!(from[4] >= 2 && stop > 3, "{from:?}");
        let (a, work) = verdict(&prepared, &reno);
        assert!(a.hard_issues() > 0);
        assert_eq!(
            work,
            ReplayWork {
                passes: 1,
                records: stop as u64 + 1,
                settled_early: true,
            }
        );
    }

    #[test]
    fn trace_facts_are_the_state_before_each_record() {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(100, 2, 1, SA, 9000, 0, 1001), 512),
            rec(101, 1, 2, A, 1001, 0, 9001),
            rec(102, 1, 2, A, 1001, 512, 9001),
            rec(103, 1, 2, A, 1513, 512, 9001),
            // Liberating ack 1: 100 ms after 1001 was sent.
            rec(202, 2, 1, A, 9001, 0, 1513),
            rec(203, 1, 2, A, 2025, 512, 9001),
            rec(204, 1, 2, A, 2537, 512, 9001),
            // Liberating ack 2: 200 ms after 1513 was sent.
            rec(303, 2, 1, A, 9001, 0, 2025),
            // 2025 again, first sent at 203.
            rec(1400, 1, 2, A, 2025, 512, 9001),
            // Liberating ack 3: 1296 ms after 2537 was first sent.
            rec(1500, 2, 1, A, 9001, 0, 3049),
            rec(1501, 1, 2, A, 3049, 512, 9001),
        ];
        // A window update: same ack, smaller window.
        let mut update = rec(1502, 2, 1, A, 9001, 0, 3049);
        update.tcp.window = 4096;
        v.push(update);
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        let prepared = Prepared::new(&conn).unwrap();

        let ms = Time::from_millis;
        let rtt1 = Duration::from_millis(100);
        let rtt2 = Duration::from_micros(112_500); // (7 · 100 + 200) / 8
        let rtt3 = Duration(260_437_500); // (7 · 112.5 + 1296) / 8
                                          // Before each record and past the last: liberating acks seen, the
                                          // RTT estimate, and when the record's segment was last sent.
        let want = [
            (0, None, None),
            (0, None, None),
            (0, None, None),
            (0, None, None),
            (0, None, None),
            (0, None, None),
            (1, Some(rtt1), None),
            (1, Some(rtt1), None),
            (1, Some(rtt1), None),
            (2, Some(rtt2), Some(ms(203))),
            (2, Some(rtt2), None),
            (3, Some(rtt3), None),
            (3, Some(rtt3), None),
            (3, Some(rtt3), None),
        ];
        let got: Vec<_> = prepared
            .facts
            .iter()
            .map(|f| (f.liberating_acks, f.rtt_estimate, f.prev_send))
            .collect();
        assert_eq!(got, want);
        let liberating = [(5, ms(202)), (8, ms(303)), (10, ms(1500))];
        for (i, f) in prepared.facts.iter().enumerate() {
            let before: Vec<Time> = liberating
                .iter()
                .filter(|&&(at, _)| at < i)
                .map(|&(_, t)| t)
                .collect();
            let seen = f.liberating_acks_seen(&prepared.liberating_ack_times);
            assert_eq!(seen, before, "record {i}");
        }

        // The ack state moves only past the ack that moves it; the
        // retransmission state only past the retransmission.
        let una: Vec<u32> = prepared.facts.iter().map(|f| f.snd_una.0).collect();
        assert_eq!(
            una,
            [1001, 1001, 1001, 1001, 1001, 1001, 1513, 1513, 1513, 2025, 2025, 3049, 3049, 3049]
        );
        let (retx, after_retx) = (&prepared.facts[9], &prepared.facts[10]);
        assert_eq!((retx.last_retx_time, retx.retx_high), (None, SeqNum(1001)));
        assert_eq!(after_retx.last_retx_time, Some(ms(1400)));
        assert_eq!(after_retx.retx_high, SeqNum(2537));
        assert_eq!(after_retx.snd_max_seen, SeqNum(3049));
        let windows: Vec<u32> = prepared.facts[11..].iter().map(|f| f.peer_window).collect();
        assert_eq!(windows, [32_768, 32_768, 4096]);
    }

    /// cwnd is ~4 segments; suddenly the sender pauses 400 ms and then
    /// trickles out a lone segment — the §6.2 slow-start signature.
    fn quench_trace() -> Connection {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
            rec(51, 1, 2, A, 1001, 512, 9001),
            rec(150, 2, 1, A, 9001, 0, 1513),
            rec(151, 1, 2, A, 1513, 512, 9001),
            rec(152, 1, 2, A, 2025, 512, 9001),
            rec(250, 2, 1, A, 9001, 0, 2537),
            // quench arrives (invisible); 400 ms later one lone segment:
            rec(650, 1, 2, A, 2537, 512, 9001),
            // ack-clocked restart, next data a full RTT later:
            rec(750, 2, 1, A, 9001, 0, 3049),
            rec(751, 1, 2, A, 3049, 512, 9001),
        ];
        let trace: Trace = v.drain(..).collect();
        Connection::split(&trace).remove(0)
    }

    #[test]
    fn unseen_source_quench_inferred() {
        let conn = quench_trace();
        let a = analyze_sender(&conn, &profiles::reno()).unwrap();
        assert_eq!(a.inferred_quenches.len(), 1, "{:?}", a.issues);
        assert_eq!(a.lulls(), 0);
    }

    /// Streams of response delays that cross [`LOW_DELAY`]: random ones
    /// in ±50 ms, tie-heavy ones (a handful of values, [`LOW_DELAY`]
    /// itself among them), and runs of the zero and negative delays that
    /// a resync and a cured violation add.
    fn delay_streams() -> Vec<Vec<Duration>> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut streams = Vec::new();
        for _ in 0..4 {
            let random = (0..300).map(|_| Duration(next(100_000_001) as i64 - 50_000_000));
            streams.push(random.collect());
        }
        let ties = [
            Duration::ZERO,
            LOW_DELAY,
            LOW_DELAY + Duration(1),
            Duration::from_millis(-1),
            Duration::from_millis(40),
        ];
        for _ in 0..4 {
            streams.push((0..300).map(|_| ties[next(5) as usize]).collect());
        }
        // Low runs that hold the median down, then high runs that lift it.
        let mut runs = Vec::new();
        for k in 1..20 {
            let low = [Duration::ZERO, -LOW_DELAY][k % 2];
            runs.extend(std::iter::repeat_n(low, k));
            runs.extend(std::iter::repeat_n(Duration::from_millis(5), k + 1));
        }
        streams.push(runs);
        streams
    }

    #[test]
    fn low_baseline_count_agrees_with_the_running_median() {
        let conn = quench_trace();
        let prepared = Prepared::new(&conn).unwrap();
        for stream in delay_streams() {
            let mut shared = Shared::new(&prepared);
            let mut median = RunningMedian::new();
            let mut summary = Summary::new();
            let mut baseline = Duration::from_millis(2);
            for d in std::iter::once(None).chain(stream.into_iter().map(Some)) {
                if let Some(d) = d {
                    shared.add_delay(d);
                    median.add(d);
                    summary.add(d);
                    baseline = median.median().unwrap();
                }
                let low = baseline <= LOW_DELAY;
                assert_eq!(shared.baseline_is_low(), low, "{baseline}");
                assert_eq!(summary.percentile_at_most(50.0, LOW_DELAY), low);
                let threshold = baseline * 10;
                for delay in [
                    SUSPECT_FLOOR,
                    SUSPECT_FLOOR + Duration(1),
                    threshold,
                    threshold + Duration(1),
                    Duration::from_millis(500),
                ] {
                    let suspect = delay > SUSPECT_FLOOR && delay > threshold.max(SUSPECT_FLOOR);
                    assert_eq!(shared.suspect(delay), suspect, "{delay} at {baseline}");
                }
            }
        }
    }

    #[test]
    fn liberation_lookup_matches_linear_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for case in 0..400 {
            // Strictly increasing permits; every fourth list starts just
            // below u32::MAX so its permits wrap.
            let len = 1 + next(60) as usize;
            let mut permit = if case % 4 == 0 {
                SeqNum(u32::MAX - next(20_000) as u32)
            } else {
                SeqNum(next(u64::from(u32::MAX)) as u32)
            };
            let mut at = Time::from_millis(next(1000) as i64);
            let mut libs = Vec::with_capacity(len);
            for _ in 0..len {
                libs.push(Liberation { at, permit });
                permit += 1 + next(3000) as u32;
                at += Duration::from_micros(next(5000) as i64);
            }
            let (first, last) = (libs[0].permit, libs[len - 1].permit);
            let span = (last - first) as u32 + 8000;
            let mid = libs[len / 2].at;
            for _ in 0..50 {
                let hi = (first - 4000) + next(u64::from(span)) as u32;
                for floor in [Time(i64::MIN), mid] {
                    let linear = libs
                        .iter()
                        .filter(|l| l.at > floor || floor == Time(i64::MIN))
                        .find(|l| l.permit.at_or_after(hi))
                        .map(|l| (l.at, l.permit));
                    let (_, searched) = first_liberation(&libs, 0, hi, floor);
                    let searched = searched.map(|l| (l.at, l.permit));
                    assert_eq!(searched, linear, "case {case}, hi {hi}, floor {floor:?}");
                }
            }
        }
    }

    /// `cfg`'s replay class on `conn`.
    fn class(conn: &Connection, cfg: &TcpConfig) -> ReplayClass {
        Prepared::new(conn).unwrap().replay_class(cfg)
    }

    /// The replay classes of every profile on `conn`.
    fn classes(conn: &Connection) -> Vec<(&'static str, ReplayClass)> {
        profiles::all_profiles()
            .iter()
            .map(|cfg| (cfg.name, class(conn, cfg)))
            .collect()
    }

    #[test]
    fn loss_free_trace_reads_neither_optional_tier() {
        let all = classes(&slow_start_trace());
        for (name, class) in &all {
            assert_eq!(class.dup_ack, None, "{name}");
            assert_eq!(class.retransmission, None, "{name}");
        }
        // BSDI 1.1 differs from Reno only in a recovery-exit bug.
        let of = |name: &str| all.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(of("BSDI 1.1"), of("Generic Reno"));
        assert_ne!(of("Generic Tahoe"), of("Generic Reno"));
    }

    #[test]
    fn syn_ack_without_mss_option_moves_net3_out_of_renos_class() {
        let (reno, net3) = (profiles::reno(), profiles::net3());
        let with_option = slow_start_trace();
        assert_eq!(class(&with_option, &net3), class(&with_option, &reno));

        // The same trace, with a SYN-ack that offers no MSS: the Net/3
        // uninitialized-cwnd bug (§8.4) opens a huge window.
        let mut without = slow_start_trace();
        without.records[1].1.tcp.options.clear();
        let net3_class = class(&without, &net3);
        assert_ne!(net3_class, class(&without, &reno));
        for cfg in profiles::all_profiles() {
            if class(&without, &cfg) == net3_class {
                assert!(cfg.uninit_cwnd_bug, "{} shares Net/3's class", cfg.name);
            }
        }
    }

    #[test]
    fn lossy_trace_separates_the_rto_schemes() {
        let reno = profiles::reno();
        let fixed = TcpConfig {
            rto_scheme: tcpa_tcpsim::config::RtoScheme::Fixed,
            ..profiles::reno()
        };
        let clean = slow_start_trace();
        assert_eq!(class(&clean, &reno), class(&clean, &fixed));

        // One timeout retransmission, no duplicate ack.
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(100, 2, 1, SA, 9000, 0, 1001), 512),
            rec(102, 1, 2, A, 1001, 512, 9001),
            rec(3200, 1, 2, A, 1001, 512, 9001),
        ];
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        let reno_class = class(&conn, &reno);
        assert!(reno_class.retransmission.is_some() && reno_class.dup_ack.is_none());
        assert_ne!(reno_class, class(&conn, &fixed));
    }

    #[test]
    fn growth_knobs_separate_classes_whose_replays_differ() {
        use tcpa_tcpsim::config::QuenchResponse::{CwndDownOneSegment, Ignore};
        let reno = profiles::reno();

        // Without a congestion window the overshoot is no violation.
        let conn = overshoot_trace();
        let no_cwnd = TcpConfig {
            no_congestion_window: true,
            ..profiles::reno()
        };
        assert_eq!(analyze_sender(&conn, &reno).unwrap().hard_issues(), 1);
        assert_eq!(analyze_sender(&conn, &no_cwnd).unwrap().hard_issues(), 0);
        assert_ne!(class(&conn, &reno), class(&conn, &no_cwnd));

        // Only a slow-start response infers a quench, so the two others
        // replay alike.
        let conn = quench_trace();
        let ignore = TcpConfig {
            quench_response: Ignore,
            ..profiles::reno()
        };
        let cwnd_down = TcpConfig {
            quench_response: CwndDownOneSegment,
            ..profiles::reno()
        };
        assert_eq!(
            analyze_sender(&conn, &reno)
                .unwrap()
                .inferred_quenches
                .len(),
            1
        );
        assert!(analyze_sender(&conn, &ignore)
            .unwrap()
            .inferred_quenches
            .is_empty());
        assert_ne!(class(&conn, &reno), class(&conn, &ignore));
        assert_eq!(class(&conn, &ignore), class(&conn, &cwnd_down));
    }

    #[test]
    fn duplicate_acks_read_the_fast_retransmit_tier() {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
            rec(51, 1, 2, A, 1001, 512, 9001),
            rec(52, 1, 2, A, 1513, 512, 9001),
            rec(150, 2, 1, A, 9001, 0, 1513),
            // A duplicate, then a window update at the same ack.
            rec(151, 2, 1, A, 9001, 0, 1513),
        ];
        let mut update = rec(152, 2, 1, A, 9001, 0, 1513);
        update.tcp.window = 4096;
        v.push(update);
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        let prepared = Prepared::new(&conn).unwrap();
        let (dup, window) = (&conn.records[5].1, &conn.records[6].1);
        assert!(is_dup_ack(dup, &prepared.facts[5]));
        assert!(!is_dup_ack(window, &prepared.facts[6]));
        let reno = prepared.replay_class(&profiles::reno());
        assert!(reno.dup_ack.is_some() && reno.retransmission.is_none());
        assert_ne!(reno, prepared.replay_class(&profiles::bsdi_1_1()));
    }

    /// Replays `cfgs` in lockstep over `conn` in full, and checks that
    /// each candidate is a member of one group, whose analysis is the
    /// candidate's own replay alone.
    fn lockstep_matching_single_replays(conn: &Connection, cfgs: &[&TcpConfig]) -> Lockstep {
        let prepared = Prepared::new(conn).unwrap();
        let replay = prepared.replay(cfgs, Until::End);
        let mut members: Vec<usize> = replay
            .groups
            .iter()
            .flat_map(|g| g.members.iter().copied())
            .collect();
        members.sort_unstable();
        assert_eq!(members, (0..cfgs.len()).collect::<Vec<_>>());
        for group in &replay.groups {
            for &id in &group.members {
                let alone = crate::fingerprint::fingerprint_one(conn, cfgs[id]).unwrap();
                let analysis = &group.analysis;
                assert_eq!(format!("{analysis:?}"), format!("{:?}", alone.analysis));
            }
        }
        replay
    }

    #[test]
    fn members_fork_at_the_record_where_their_replays_diverge() {
        // Slow start to four segments in flight; the first of them is
        // lost, one duplicate ack comes back (record 10) and the head is
        // re-sent a millisecond later (record 11).
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
            rec(51, 1, 2, A, 1001, 512, 9001),
            rec(150, 2, 1, A, 9001, 0, 1513),
            rec(151, 1, 2, A, 1513, 512, 9001),
            rec(152, 1, 2, A, 2025, 512, 9001),
            rec(250, 2, 1, A, 9001, 0, 2537),
            rec(251, 1, 2, A, 2537, 512, 9001),
            rec(252, 1, 2, A, 3049, 512, 9001),
            rec(253, 1, 2, A, 3561, 512, 9001),
            rec(350, 2, 1, A, 9001, 0, 2537),
            rec(351, 1, 2, A, 2537, 512, 9001),
            rec(450, 2, 1, A, 9001, 0, 4073),
        ];
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        let n = conn.records.len() as u64;
        let reno = profiles::reno();
        // Re-sends on the first duplicate ack, yet cuts no window there.
        let early = TcpConfig {
            retransmit_on_first_dupack: true,
            ..profiles::reno()
        };
        // Fast-retransmits on the first duplicate ack: a window cut.
        let first_dup = TcpConfig {
            dupack_threshold: 1,
            ..profiles::reno()
        };
        let replay = lockstep_matching_single_replays(&conn, &[&reno, &early, &first_dup]);
        assert_eq!(replay.forks, 2);
        // All three step records 0–10, where `first_dup` cuts its window
        // and forks; the other two step record 11, where only `early`
        // explains the re-send and forks. Each group steps on to the end.
        assert_eq!(replay.records, n + (n - 11) + (n - 12));
        let causes: Vec<_> = [&reno, &early, &first_dup]
            .iter()
            .map(|cfg| analyze_sender(&conn, cfg).unwrap().retx_causes)
            .collect();
        assert_eq!(
            causes,
            [
                vec![],
                vec![(RetxCause::EarlyDupAck, 1)],
                vec![(RetxCause::FastRetransmit, 1)]
            ]
        );
    }

    #[test]
    fn members_held_at_the_offered_window_never_fork() {
        // Stop and wait: the receiver offers one 512-byte segment, so no
        // initial congestion window of a segment or more ever decides a
        // permit.
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
        ];
        for k in 0..8u32 {
            let t = 60 + 100 * i64::from(k);
            v.push(rec(t, 1, 2, A, 1001 + 512 * k, 512, 9001));
            v.push(rec(t + 90, 2, 1, A, 9001, 0, 1513 + 512 * k));
        }
        for r in v
            .iter_mut()
            .filter(|r| r.ip.src == Ipv4Addr::from_host_id(2))
        {
            r.tcp.window = 512;
        }
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        let cfgs: Vec<TcpConfig> = [1, 2, 4]
            .into_iter()
            .map(|segs| TcpConfig {
                initial_cwnd_segs: segs,
                ..profiles::reno()
            })
            .collect();
        let (one, two) = (class(&conn, &cfgs[0]), class(&conn, &cfgs[1]));
        assert_ne!(one, two, "the candidates are in different replay classes");
        let cfgs: Vec<&TcpConfig> = cfgs.iter().collect();
        let replay = lockstep_matching_single_replays(&conn, &cfgs);
        assert_eq!(replay.forks, 0);
        assert_eq!(replay.records, conn.records.len() as u64);
        assert_eq!(replay.groups.len(), 1);
        let analysis = &replay.groups[0].analysis;
        assert!(analysis.issues.is_empty(), "{:?}", analysis.issues);
        assert_eq!(analysis.data_packets, 8);
    }

    #[test]
    fn connection_without_data_is_unanalyzable() {
        let mut v = vec![
            with_mss(rec(0, 1, 2, S, 1000, 0, 0), 512),
            with_mss(rec(50, 2, 1, SA, 9000, 0, 1001), 512),
        ];
        let trace: Trace = v.drain(..).collect();
        let conn = Connection::split(&trace).remove(0);
        assert!(analyze_sender(&conn, &profiles::reno()).is_none());
    }

    #[test]
    fn issue_details_render_the_old_text() {
        let (sent, permit, una) = (SeqNum(2_162_700_857), SeqNum(2_162_700_309), SeqNum(7));
        let (cwnd, offered) = (3832u64, 16_384u32);
        let violation = IssueDetail::WindowViolation {
            sent,
            permit,
            cwnd,
            offered,
            una,
        };
        assert_eq!(
            violation.to_string(),
            format!(
                "sent {} beyond permit {} (cwnd {}, offered {}, una {})",
                sent, permit, cwnd, offered, una
            )
        );
        for delay in [
            Duration::from_millis(1500),
            Duration::from_micros(250_300),
            Duration(-1_234_567),
            Duration(999),
            Duration(-7),
        ] {
            assert_eq!(
                IssueDetail::Lull { sent, delay }.to_string(),
                format!("new data {} sent {} after liberation", sent, delay)
            );
        }
        for (seq, dup_acks) in [(SeqNum(0), 0u32), (SeqNum(u32::MAX), 3)] {
            assert_eq!(
                IssueDetail::UnexplainedRetransmission { seq, dup_acks }.to_string(),
                format!("retransmission of {seq} (dup_acks {dup_acks}) fits no rule")
            );
        }
    }

    /// The count quench inference made before [`acks_between`], verbatim.
    fn acks_between_by_scan(seen: &[Time], after: Time, before: Time) -> usize {
        seen.iter().filter(|&&t| t > after && t < before).count()
    }

    /// Checks [`acks_between`] against the scan on every prefix of
    /// `times` (as a replay sees them, record by record), for every pair
    /// of bounds drawn from one below the smallest to one above the
    /// largest value: ties at either bound and `after >= before` included.
    fn check_acks_between(times: &[Time]) {
        let sorted_len = non_decreasing_len(times);
        let lo = times.iter().min().map_or(0, |t| t.0) - 1;
        let hi = times.iter().max().map_or(0, |t| t.0) + 1;
        for k in 0..=times.len() {
            let seen = &times[..k];
            for after in lo..=hi {
                for before in lo..=hi {
                    let (after, before) = (Time(after), Time(before));
                    assert_eq!(
                        acks_between(seen, sorted_len, after, before),
                        acks_between_by_scan(seen, after, before),
                        "{times:?}, prefix {k}, after {after:?}, before {before:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn acks_between_counts_sorted_prefixes_exactly() {
        let mut rng = tcpa_netsim::rng::SplitMix64::new(23);
        check_acks_between(&[]);
        for _ in 0..200 {
            let len = rng.next_below(12) as usize;
            // Small steps, many of them zero: ties are common.
            let mut t = rng.next_below(4) as i64;
            let times: Vec<Time> = (0..len)
                .map(|_| {
                    t += rng.next_below(3) as i64;
                    Time(t)
                })
                .collect();
            assert_eq!(non_decreasing_len(&times), times.len());
            check_acks_between(&times);
        }
    }

    #[test]
    fn acks_between_counts_past_a_backward_step() {
        let mut rng = tcpa_netsim::rng::SplitMix64::new(7);
        for _ in 0..200 {
            let len = 2 + rng.next_below(11) as usize;
            let mut t = 0;
            let mut times: Vec<Time> = (0..len)
                .map(|_| {
                    t += rng.next_below(3) as i64;
                    Time(t)
                })
                .collect();
            // The clock steps back before a random entry after the first.
            let at = 1 + rng.next_below(len as u64 - 1) as usize;
            let back = 1 + times[at].0 - times[at - 1].0 + rng.next_below(4) as i64;
            for time in &mut times[at..] {
                time.0 -= back;
            }
            assert_eq!(non_decreasing_len(&times), at);
            check_acks_between(&times);
        }
    }
}
