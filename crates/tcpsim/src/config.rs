//! The behavior-flag configuration that selects a TCP implementation.
//!
//! Every knob corresponds to a behavior or bug the paper catalogues; the
//! named per-implementation settings live in [`crate::profiles`].

use tcpa_trace::Duration;

/// Code lineage, as in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lineage {
    /// Derived from the 1988 BSD Tahoe release.
    Tahoe,
    /// Derived from the 1990 BSD Reno release (incl. Net/3).
    Reno,
    /// Written independently of the BSD code.
    Independent,
}

impl core::fmt::Display for Lineage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Lineage::Tahoe => write!(f, "Tahoe"),
            Lineage::Reno => write!(f, "Reno"),
            Lineage::Independent => write!(f, "Indep."),
        }
    }
}

/// How the congestion window grows during congestion avoidance (§8.1–8.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CwndIncrease {
    /// Tahoe's Eqn 1: `cwnd += MSS*MSS/cwnd`.
    Linear,
    /// Reno's Eqn 2: `cwnd += MSS*MSS/cwnd + MSS/8` — the super-linear
    /// increase later judged too aggressive (\[BP95\], credited to S. Floyd).
    SuperLinear,
}

/// Fast-recovery behavior after a fast retransmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastRecovery {
    /// Tahoe: none — slow start from one segment.
    None,
    /// Reno: inflate cwnd by one MSS per additional dup ack, deflate on
    /// the ack of new data.
    Reno,
    /// Solaris 2.3/2.4: the fast-recovery code exists but a logic bug
    /// keeps it from being exercised (§8.6); behaves as [`FastRecovery::None`].
    RareBuggy,
}

/// When a receiver acknowledges newly arrived in-sequence data (§9.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// BSD: a free-running heartbeat timer; any pending un-acked
    /// in-sequence data is acked when the heartbeat fires. The phase is
    /// absolute, so measured delays are uniform on `[0, interval)`.
    Heartbeat {
        /// Heartbeat period (BSD: 200 ms).
        interval: Duration,
    },
    /// Solaris: a one-shot timer scheduled on packet arrival.
    PerPacketTimer {
        /// Timer delay (Solaris: 50 ms).
        delay: Duration,
    },
    /// Linux 1.0: acknowledge every packet immediately.
    EveryPacket,
}

/// Response to an ICMP source quench (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuenchResponse {
    /// BSD: enter slow start (cwnd = 1 MSS; ssthresh untouched).
    SlowStart,
    /// Solaris: enter slow start *and* halve ssthresh.
    SlowStartCutSsthresh,
    /// Linux 1.0: merely shrink cwnd by one segment.
    CwndDownOneSegment,
    /// Ignore it entirely.
    Ignore,
}

/// Retransmission-timeout estimation scheme (§8.6, \[DJM97\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtoScheme {
    /// Jacobson/Karn srtt + 4·rttvar with a coarse clock tick.
    Jacobson,
    /// Solaris: Jacobson arithmetic, but the RTO is *reset to its initial
    /// value* whenever an ack arrives for retransmitted data, so it never
    /// adapts on a lossy or retransmission-riddled connection.
    SolarisBroken,
    /// No estimation at all: a fixed RTO with multiplicative backoff
    /// (primitive stacks; our Trumpet/Winsock reconstruction).
    Fixed,
}

/// Full behavioral description of one TCP implementation.
///
/// Defaults (via [`TcpConfig::generic_reno`]) describe the paper's generic
/// Reno (§8.2); profiles adjust fields from there.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Human-readable implementation name, e.g. `"Solaris 2.4"`.
    pub name: &'static str,
    /// Code lineage (Table 1).
    pub lineage: Lineage,

    // ---- MSS handling -------------------------------------------------
    /// The MSS this endpoint offers in its SYN.
    pub mss: u16,
    /// Whether the SYN/SYN-ack carries an MSS option at all. Receivers
    /// that omit it trigger the Net/3 uninitialized-cwnd bug in peers
    /// (§8.4).
    pub send_mss_option: bool,
    /// MSS assumed for the peer when it offers no option (RFC 1122: 536).
    pub default_peer_mss: u16,
    /// MSS-confusion bug (\[BP95\], §8.3): congestion-window arithmetic uses
    /// the MSS *including* TCP option bytes.
    pub mss_includes_options: bool,
    /// §8.3 variant: cwnd is initialized from this side's *initially
    /// offered* MSS instead of the negotiated one.
    pub cwnd_init_from_offered_mss: bool,

    // ---- congestion windows -------------------------------------------
    /// Initial congestion window in segments (all studied TCPs: 1).
    pub initial_cwnd_segs: u32,
    /// Initial ssthresh in segments; `None` = effectively unbounded
    /// (65535 bytes). Linux 1.0 and Solaris use `Some(1)` (§8.5, §8.6).
    pub initial_ssthresh_segs: Option<u32>,
    /// Congestion-avoidance increase rule.
    pub cwnd_increase: CwndIncrease,
    /// §8.3 variant: slow start iff `cwnd < ssthresh` (strict) versus
    /// `cwnd <= ssthresh`.
    pub ss_test_strict: bool,
    /// Floor, in segments, below which ssthresh is never cut (Tahoe: 1;
    /// Reno: 2).
    pub min_ssthresh_segs: u32,
    /// §8.3 variant: when halving, round ssthresh down to a segment
    /// multiple.
    pub ssthresh_round_down: bool,
    /// Net/3 uninitialized-cwnd bug (§8.4): when the peer's SYN-ack omits
    /// the MSS option, cwnd and ssthresh come up huge instead of 1 MSS.
    pub uninit_cwnd_bug: bool,
    /// Header-prediction bug (\[BP95\]): exiting fast recovery through the
    /// fast path fails to deflate cwnd at all.
    pub header_prediction_bug: bool,
    /// Fencepost bug (\[BP95\]): recovery deflation leaves cwnd one segment
    /// above ssthresh.
    pub fencepost_bug: bool,
    /// Trumpet/Winsock reconstruction (§10): no congestion window at all —
    /// the sender fills the offered window regardless of congestion.
    pub no_congestion_window: bool,

    // ---- loss detection / retransmission ------------------------------
    /// Fast retransmit implemented (Linux 1.0: no, §8.5).
    pub fast_retransmit: bool,
    /// Duplicate acks needed to trigger fast retransmit (3).
    pub dupack_threshold: u32,
    /// Fast-recovery style.
    pub fast_recovery: FastRecovery,
    /// Rarely-manifested §8.3 bug when `false`: the duplicate-ack counter
    /// is not cleared on timeout.
    pub clear_dupacks_on_timeout: bool,
    /// Rarely-manifested §8.3 bug: duplicate acks also apply the
    /// congestion-avoidance cwnd increase.
    pub dupack_updates_cwnd: bool,
    /// Linux 1.0 (§8.5): every retransmission re-sends *all* unacked data
    /// in one burst.
    pub burst_retransmit: bool,
    /// Linux 1.0 (§8.5): the first duplicate ack already triggers
    /// retransmission ("decides to retransmit much too early").
    pub retransmit_on_first_dupack: bool,
    /// Solaris (§8.6): every `n`-th liberating ack provokes a needless
    /// retransmission of the segment just above the ack instead of new
    /// data; 0 disables.
    pub retransmit_after_ack_period: u32,

    // ---- RTO -----------------------------------------------------------
    /// Estimation scheme.
    pub rto_scheme: RtoScheme,
    /// RTO before any RTT sample exists (BSD ≈3 s; Solaris ≈300 ms).
    pub initial_rto: Duration,
    /// Lower clamp.
    pub min_rto: Duration,
    /// Upper clamp.
    pub max_rto: Duration,
    /// Clock tick: samples and RTOs are quantized up to this (BSD: 500 ms).
    pub rto_granularity: Duration,
    /// Backoff multiplier on timeout (2.0 standard; Linux 1.0 backs off
    /// less than fully, §8.5).
    pub rto_backoff: f64,
    /// RTO for SYN retransmission (a separate, fixed timer; Fig 5 notes
    /// the initial SYN "uses a different retransmission timer").
    pub syn_rto: Duration,
    /// Stevens's broken clients (§2): the connection-establishment retry
    /// timer does not back off — retries arrive at a constant interval.
    pub syn_backoff_flat: bool,
    /// Give up on a segment after this many consecutive retransmission
    /// timeouts (BSD: 12).
    pub max_retransmits: u32,
    /// Send a keep-alive probe after this much connection idle time
    /// (classically two hours; \[CL94\]/\[DJM97\] found wide variation).
    /// `None` disables keep-alives.
    pub keepalive_interval: Option<Duration>,
    /// Whether the connection is terminated with a RST when the maximum
    /// retransmission count is reached. \[DJM97\] found TCPs that do *not*
    /// "correctly terminate their connections with RST packets" — set
    /// `false` to model them.
    pub rst_on_give_up: bool,

    // ---- sender window --------------------------------------------------
    /// Socket send-buffer size in bytes — the *sender window* tcpanaly
    /// must infer (§6.2).
    pub send_buffer: u32,

    // ---- receiver -------------------------------------------------------
    /// Receive buffer / offered window in bytes.
    pub recv_window: u32,
    /// Optional schedule of offered-window values: the `k`-th ack
    /// advertises `schedule[min(k, len-1)]` (minus buffered out-of-order
    /// data). Reproduces Fig 3's growing offered window. Empty = always
    /// `recv_window`.
    pub recv_window_schedule: Vec<u32>,
    /// In-sequence acking policy.
    pub ack_policy: AckPolicy,
    /// Generate an ack once this many full segments are pending
    /// (standard: 2; larger values yield §9.1 "stretch acks").
    pub ack_every_n: u32,
    /// Solaris: ack every packet during the initial slow-start phase
    /// (first `n` data packets), then switch to the configured policy; 0
    /// disables.
    pub initial_ack_every_packet: u32,
    /// Solaris 2.3 acking-policy bug (§8.6, fixed in 2.4): every 32nd data
    /// packet elicits an extra, gratuitous ack.
    pub gratuitous_ack_bug: bool,
    /// Receiving application's consumption rate in bytes/second; `None`
    /// means the application drains instantly. A slow reader shrinks the
    /// offered window and, once it hits zero, exercises the peer's
    /// zero-window probing (the behavior \[CL94\]'s active probing study
    /// examined).
    pub app_read_rate: Option<u64>,

    // ---- zero-window probing ---------------------------------------------
    /// Initial persist-timer delay before probing a closed window
    /// (BSD: 5 s), backed off exponentially to [`TcpConfig::persist_max`].
    pub persist_initial: Duration,
    /// Persist-timer ceiling (BSD: 60 s).
    pub persist_max: Duration,

    // ---- misc -----------------------------------------------------------
    /// Response to ICMP source quench.
    pub quench_response: QuenchResponse,
}

impl TcpConfig {
    /// The paper's generic Reno (§8.2): the base from which profiles are
    /// expressed as deltas.
    pub fn generic_reno() -> TcpConfig {
        TcpConfig {
            name: "Generic Reno",
            lineage: Lineage::Reno,
            mss: 1460,
            send_mss_option: true,
            default_peer_mss: 536,
            mss_includes_options: false,
            cwnd_init_from_offered_mss: false,
            initial_cwnd_segs: 1,
            initial_ssthresh_segs: None,
            cwnd_increase: CwndIncrease::SuperLinear,
            ss_test_strict: false,
            min_ssthresh_segs: 2,
            ssthresh_round_down: false,
            uninit_cwnd_bug: false,
            header_prediction_bug: false,
            fencepost_bug: false,
            no_congestion_window: false,
            fast_retransmit: true,
            dupack_threshold: 3,
            fast_recovery: FastRecovery::Reno,
            clear_dupacks_on_timeout: true,
            dupack_updates_cwnd: false,
            burst_retransmit: false,
            retransmit_on_first_dupack: false,
            retransmit_after_ack_period: 0,
            rto_scheme: RtoScheme::Jacobson,
            initial_rto: Duration::from_millis(3000),
            min_rto: Duration::from_millis(1000),
            max_rto: Duration::from_secs(64),
            rto_granularity: Duration::from_millis(500),
            rto_backoff: 2.0,
            syn_rto: Duration::from_secs(6),
            syn_backoff_flat: false,
            max_retransmits: 12,
            rst_on_give_up: true,
            keepalive_interval: None,
            send_buffer: 65_535,
            recv_window: 16_384,
            recv_window_schedule: Vec::new(),
            ack_policy: AckPolicy::Heartbeat {
                interval: Duration::from_millis(200),
            },
            ack_every_n: 2,
            initial_ack_every_packet: 0,
            gratuitous_ack_bug: false,
            app_read_rate: None,
            persist_initial: Duration::from_secs(5),
            persist_max: Duration::from_secs(60),
            quench_response: QuenchResponse::SlowStart,
        }
    }

    /// The paper's generic Tahoe (§8.1).
    pub fn generic_tahoe() -> TcpConfig {
        TcpConfig {
            name: "Generic Tahoe",
            lineage: Lineage::Tahoe,
            cwnd_increase: CwndIncrease::Linear,
            fast_recovery: FastRecovery::None,
            min_ssthresh_segs: 1,
            header_prediction_bug: false,
            fencepost_bug: false,
            ..TcpConfig::generic_reno()
        }
    }

    /// `true` when `other` sets every behavior knob exactly as `self`
    /// does, whatever either is named. Two such configs produce the same
    /// traces in simulation and the same replay of any trace in analysis.
    pub fn behaves_like(&self, other: &TcpConfig) -> bool {
        *self
            == TcpConfig {
                name: self.name,
                ..other.clone()
            }
    }

    /// The effective MSS used to size data packets, given what the peer
    /// offered (if anything).
    pub fn effective_send_mss(&self, peer_mss: Option<u16>) -> u32 {
        let peer = peer_mss.unwrap_or(self.default_peer_mss);
        u32::from(self.mss.min(peer))
    }

    /// The MSS value used in congestion-window arithmetic, applying the
    /// MSS-confusion and offered-MSS variants.
    pub fn cwnd_mss(&self, peer_mss: Option<u16>) -> u32 {
        let mut m = if self.cwnd_init_from_offered_mss {
            u32::from(self.mss)
        } else {
            self.effective_send_mss(peer_mss)
        };
        if self.mss_includes_options {
            // The confusion in [BP95]: counting option bytes into the MSS
            // used for window updates. The classic case is the timestamp
            // option's 12 bytes; these old stacks send plain headers, so
            // model the canonical +12.
            m += 12;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_tahoe_differs_from_reno_as_in_paper() {
        let tahoe = TcpConfig::generic_tahoe();
        let reno = TcpConfig::generic_reno();
        assert_eq!(tahoe.cwnd_increase, CwndIncrease::Linear);
        assert_eq!(reno.cwnd_increase, CwndIncrease::SuperLinear);
        assert_eq!(tahoe.fast_recovery, FastRecovery::None);
        assert_eq!(reno.fast_recovery, FastRecovery::Reno);
        assert!(tahoe.fast_retransmit && reno.fast_retransmit);
        assert_eq!(tahoe.min_ssthresh_segs, 1);
    }

    #[test]
    fn effective_mss_is_minimum_of_offers() {
        let cfg = TcpConfig::generic_reno();
        assert_eq!(cfg.effective_send_mss(Some(536)), 536);
        assert_eq!(cfg.effective_send_mss(Some(9000)), 1460);
        assert_eq!(cfg.effective_send_mss(None), 536);
    }

    #[test]
    fn cwnd_mss_variants() {
        let mut cfg = TcpConfig::generic_reno();
        assert_eq!(cfg.cwnd_mss(Some(536)), 536);
        cfg.cwnd_init_from_offered_mss = true;
        assert_eq!(cfg.cwnd_mss(Some(536)), 1460, "uses own offer");
        cfg.cwnd_init_from_offered_mss = false;
        cfg.mss_includes_options = true;
        assert_eq!(cfg.cwnd_mss(Some(536)), 548, "options counted in");
    }
}
