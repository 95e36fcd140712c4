//! Named per-implementation behavior profiles (Table 1 + §10).
//!
//! Each profile is expressed as a delta from a base — the same methodology
//! the paper uses when coding a new implementation into tcpanaly as a C++
//! subclass of its closest relative (§5).
//!
//! Where the paper text leaves a variant unspecified (it summarizes §8.3
//! "qualitatively for purposes of brevity"), the assignment of minor
//! variants to implementations here is a *reconstruction*: each catalogued
//! variant is given to at least one implementation so the full matrix is
//! exercised, and the major, explicitly-attributed behaviors (§8.4–§8.6,
//! §9.1, §10) follow the paper exactly. DESIGN.md carries the inventory.

use crate::config::{
    AckPolicy, CwndIncrease, FastRecovery, Lineage, QuenchResponse, RtoScheme, TcpConfig,
};
use tcpa_trace::Duration;

/// Generic Tahoe (§8.1).
pub fn tahoe() -> TcpConfig {
    TcpConfig::generic_tahoe()
}

/// Generic Reno (§8.2).
pub fn reno() -> TcpConfig {
    TcpConfig::generic_reno()
}

/// Net/3 (TCP Lite): generic Reno plus the uninitialized-cwnd bug (§8.4)
/// and the \[BP95\] header-prediction/fencepost/MSS problems.
pub fn net3() -> TcpConfig {
    TcpConfig {
        name: "Net/3",
        uninit_cwnd_bug: true,
        header_prediction_bug: true,
        ..reno()
    }
}

/// BSDI 1.1: early Reno-derived; header-prediction bug, Eqn 2.
pub fn bsdi_1_1() -> TcpConfig {
    TcpConfig {
        name: "BSDI 1.1",
        header_prediction_bug: true,
        ..reno()
    }
}

/// BSDI 2.0: incorporated Net/3 changes, inheriting the uninitialized-cwnd
/// bug — "more bugs with later versions" (§8.3).
pub fn bsdi_2_0() -> TcpConfig {
    TcpConfig {
        name: "BSDI 2.0",
        uninit_cwnd_bug: true,
        header_prediction_bug: true,
        fencepost_bug: true,
        ..reno()
    }
}

/// BSDI 2.1: as 2.0, plus the rarely-manifested dup-ack-updates-cwnd slip
/// (§8.3's "more bugs with later versions" at work).
pub fn bsdi_2_1() -> TcpConfig {
    TcpConfig {
        name: "BSDI 2.1",
        dupack_updates_cwnd: true,
        ..bsdi_2_0()
    }
}

/// DEC OSF/1 2.0: early Reno derivative, still on the plain Eqn 1
/// increase.
pub fn osf1_2_0() -> TcpConfig {
    TcpConfig {
        name: "DEC OSF/1 2.0",
        cwnd_increase: CwndIncrease::Linear,
        ..reno()
    }
}

/// DEC OSF/1 3.2: Reno-derived; carries the MSS-confusion problem (§8.3).
pub fn osf1() -> TcpConfig {
    TcpConfig {
        name: "DEC OSF/1 3.2",
        mss_includes_options: true,
        ..reno()
    }
}

/// HP/UX 9.05: Reno-derived; uses the plain Eqn 1 increase and rounds
/// ssthresh down to a segment multiple when cutting (§8.3 variants).
pub fn hpux() -> TcpConfig {
    TcpConfig {
        name: "HP/UX 9.05",
        cwnd_increase: CwndIncrease::Linear,
        ssthresh_round_down: true,
        ..reno()
    }
}

/// IRIX 4.0: the oldest Reno derivative in the study — plain Eqn 1, no
/// later accretions.
pub fn irix_4_0() -> TcpConfig {
    TcpConfig {
        name: "IRIX 4.0",
        cwnd_increase: CwndIncrease::Linear,
        ..reno()
    }
}

/// IRIX 5.x: Reno-derived; initializes cwnd from the initially offered
/// MSS rather than the negotiated one, and uses the strict slow-start
/// boundary test (§8.3 variants). (The IRIX *packet filter* duplication
/// bug of §3.1.2 belongs to `tcpa-filter`, not the TCP.)
pub fn irix() -> TcpConfig {
    TcpConfig {
        name: "IRIX 5.2",
        cwnd_init_from_offered_mss: true,
        ss_test_strict: true,
        ..reno()
    }
}

/// IRIX 6.2: the 5.x line plus the fencepost and dup-ack-counter slips —
/// §8.3's observation that later versions accrete bugs.
pub fn irix_6_2() -> TcpConfig {
    TcpConfig {
        name: "IRIX 6.2",
        fencepost_bug: true,
        clear_dupacks_on_timeout: false,
        ..irix()
    }
}

/// HP/UX 10.00: the 9.05 line with the ssthresh rounding fixed but the
/// Eqn 2 super-linear increase adopted.
pub fn hpux_10() -> TcpConfig {
    TcpConfig {
        name: "HP/UX 10.00",
        cwnd_increase: CwndIncrease::SuperLinear,
        ssthresh_round_down: false,
        ..hpux()
    }
}

/// NetBSD 1.0: Net/3-based.
pub fn netbsd() -> TcpConfig {
    TcpConfig {
        name: "NetBSD 1.0",
        uninit_cwnd_bug: true,
        header_prediction_bug: true,
        fencepost_bug: true,
        ..reno()
    }
}

/// SunOS 4.1: the study's Tahoe derivative (§8.1, Table 1); also carries
/// the rarely-manifested dup-ack bookkeeping bugs of §8.3.
pub fn sunos_4_1() -> TcpConfig {
    TcpConfig {
        name: "SunOS 4.1.3",
        clear_dupacks_on_timeout: false,
        dupack_updates_cwnd: true,
        ..tahoe()
    }
}

fn solaris_base() -> TcpConfig {
    TcpConfig {
        name: "Solaris 2.x",
        lineage: Lineage::Independent,
        // §8.6: initializes ssthresh to one MSS — conservative but slow.
        initial_ssthresh_segs: Some(1),
        // Footnote: a later Solaris release adopted the Eqn 2 term; the
        // 2.3/2.4 releases studied use Eqn 1 behavior… but the paper lists
        // Solaris among Eqn-2 users, so keep Eqn 2.
        cwnd_increase: CwndIncrease::SuperLinear,
        ss_test_strict: true,
        // §8.6: fast-recovery code present but effectively never runs.
        fast_recovery: FastRecovery::RareBuggy,
        // §8.6: the broken retransmission timer.
        rto_scheme: RtoScheme::SolarisBroken,
        initial_rto: Duration::from_millis(300),
        min_rto: Duration::from_millis(200),
        max_rto: Duration::from_secs(60),
        rto_granularity: Duration::from_millis(50),
        // §8.6: occasionally retransmits the packet just after the ack.
        retransmit_after_ack_period: 8,
        // §9.1: 50 ms interval timer scheduled per packet; acks every
        // packet during the initial slow-start sequence.
        ack_policy: AckPolicy::PerPacketTimer {
            delay: Duration::from_millis(50),
        },
        initial_ack_every_packet: 8,
        // §6.2: slow start plus ssthresh cut on source quench.
        quench_response: QuenchResponse::SlowStartCutSsthresh,
        ..reno()
    }
}

/// Solaris 2.3 (§8.6), including the acking-policy bug 2.4 fixed.
pub fn solaris_2_3() -> TcpConfig {
    TcpConfig {
        name: "Solaris 2.3",
        gratuitous_ack_bug: true,
        ..solaris_base()
    }
}

/// Solaris 2.4 (§8.6).
pub fn solaris_2_4() -> TcpConfig {
    TcpConfig {
        name: "Solaris 2.4",
        ..solaris_base()
    }
}

/// Linux 1.0 (§8.5): broken retransmission — bursts of every unacked
/// packet, triggered far too early; no fast retransmit; ssthresh starts at
/// one segment; acks every packet.
pub fn linux_1_0() -> TcpConfig {
    TcpConfig {
        name: "Linux 1.0",
        lineage: Lineage::Independent,
        initial_ssthresh_segs: Some(1),
        fast_retransmit: false,
        burst_retransmit: true,
        retransmit_on_first_dupack: true,
        // "the timeout is not fully doubling as it backs off"
        rto_backoff: 1.5,
        initial_rto: Duration::from_millis(1000),
        min_rto: Duration::from_millis(300),
        rto_granularity: Duration::from_millis(100),
        // Historically a much shorter connection retry than BSD's 6 s.
        syn_rto: Duration::from_secs(1),
        ack_policy: AckPolicy::EveryPacket,
        quench_response: QuenchResponse::CwndDownOneSegment,
        ..reno()
    }
}

/// Linux 2.0 (§10): the broken retransmission fixed; still acks every
/// packet.
pub fn linux_2_0() -> TcpConfig {
    TcpConfig {
        name: "Linux 2.0.30",
        lineage: Lineage::Independent,
        fast_retransmit: true,
        burst_retransmit: false,
        retransmit_on_first_dupack: false,
        initial_ssthresh_segs: None,
        rto_backoff: 2.0,
        initial_rto: Duration::from_millis(1000),
        min_rto: Duration::from_millis(200),
        rto_granularity: Duration::from_millis(100),
        ack_policy: AckPolicy::EveryPacket,
        quench_response: QuenchResponse::SlowStart,
        ..reno()
    }
}

/// Windows 95 (§10): independently written but broadly Reno-like;
/// reconstruction uses the plain Eqn 1 increase and a 100 ms heartbeat.
pub fn windows_95() -> TcpConfig {
    TcpConfig {
        name: "Windows 95",
        lineage: Lineage::Independent,
        cwnd_increase: CwndIncrease::Linear,
        ack_policy: AckPolicy::Heartbeat {
            interval: Duration::from_millis(100),
        },
        ..reno()
    }
}

/// Windows NT (§10): shares the Windows 95 stack lineage; reconstruction
/// differs in its stretch-ack tendency (one ack per ~3 segments).
pub fn windows_nt() -> TcpConfig {
    TcpConfig {
        name: "Windows NT",
        ack_every_n: 3,
        ..windows_95()
    }
}

/// Trumpet/Winsock (§10): "severe deficiencies". Reconstruction per the
/// abstract's "would devastate Internet performance": no congestion
/// window at all, a fixed unadaptive RTO, burst retransmission, and an
/// ack for every packet.
pub fn trumpet_winsock() -> TcpConfig {
    TcpConfig {
        name: "Trumpet/Winsock 2.0b",
        lineage: Lineage::Independent,
        no_congestion_window: true,
        burst_retransmit: true,
        fast_retransmit: false,
        rto_scheme: RtoScheme::Fixed,
        initial_rto: Duration::from_millis(1000),
        min_rto: Duration::from_millis(1000),
        max_rto: Duration::from_secs(16),
        rto_granularity: Duration::from_millis(100),
        // §2's broken clients: constant-interval connection retries.
        syn_rto: Duration::from_secs(2),
        syn_backoff_flat: true,
        ack_policy: AckPolicy::EveryPacket,
        quench_response: QuenchResponse::Ignore,
        ..reno()
    }
}

/// Every profile tcpanaly knows, in Table 1 order (main study first, then
/// the contributed implementations of §10, then the generics).
pub fn all_profiles() -> Vec<TcpConfig> {
    vec![
        bsdi_1_1(),
        bsdi_2_0(),
        bsdi_2_1(),
        osf1_2_0(),
        osf1(),
        hpux(),
        hpux_10(),
        irix_4_0(),
        irix(),
        irix_6_2(),
        linux_1_0(),
        netbsd(),
        solaris_2_3(),
        solaris_2_4(),
        sunos_4_1(),
        linux_2_0(),
        trumpet_winsock(),
        windows_95(),
        windows_nt(),
        net3(),
        tahoe(),
        reno(),
    ]
}

/// Looks a profile up by its exact name.
pub fn profile_by_name(name: &str) -> Option<TcpConfig> {
    all_profiles().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_have_unique_names() {
        let profiles = all_profiles();
        let mut names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), profiles.len());
    }

    /// Three profiles set every knob exactly as an earlier profile does,
    /// so no trace can tell them apart and a fingerprint that ranks ties
    /// in `all_profiles()` order never names them.
    #[test]
    fn exactly_three_profiles_behave_like_an_earlier_one() {
        let profiles = all_profiles();
        let mut twins = Vec::new();
        for (j, later) in profiles.iter().enumerate() {
            for earlier in &profiles[..j] {
                if later.behaves_like(earlier) {
                    twins.push((earlier.name, later.name));
                }
            }
        }
        assert_eq!(
            twins,
            [
                ("DEC OSF/1 2.0", "IRIX 4.0"),
                ("BSDI 2.0", "NetBSD 1.0"),
                ("HP/UX 10.00", "Generic Reno"),
            ]
        );
        assert!(!bsdi_2_0().behaves_like(&bsdi_2_1()));
        assert!(reno().behaves_like(&TcpConfig {
            name: "renamed",
            ..reno()
        }));
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for p in all_profiles() {
            let found = profile_by_name(p.name).expect("lookup");
            assert_eq!(found.name, p.name);
        }
        assert!(profile_by_name("4.5BSD").is_none());
    }

    #[test]
    fn lineages_match_table_1() {
        assert_eq!(profile_by_name("BSDI 1.1").unwrap().lineage, Lineage::Reno);
        assert_eq!(
            profile_by_name("SunOS 4.1.3").unwrap().lineage,
            Lineage::Tahoe
        );
        for indep in ["Solaris 2.3", "Solaris 2.4", "Linux 1.0", "Windows 95"] {
            assert_eq!(
                profile_by_name(indep).unwrap().lineage,
                Lineage::Independent,
                "{indep}"
            );
        }
    }

    #[test]
    fn headline_pathologies_present() {
        assert!(net3().uninit_cwnd_bug);
        let lin = linux_1_0();
        assert!(lin.burst_retransmit && lin.retransmit_on_first_dupack);
        assert!(!lin.fast_retransmit);
        let sol = solaris_2_4();
        assert_eq!(sol.rto_scheme, RtoScheme::SolarisBroken);
        assert_eq!(sol.initial_rto, Duration::from_millis(300));
        assert!(trumpet_winsock().no_congestion_window);
    }

    #[test]
    fn solaris_23_vs_24_differ_only_in_acking_bug() {
        let a = solaris_2_3();
        let b = solaris_2_4();
        assert!(a.gratuitous_ack_bug && !b.gratuitous_ack_bug);
        assert_eq!(a.rto_scheme, b.rto_scheme);
        assert_eq!(a.ack_policy, b.ack_policy);
    }

    #[test]
    fn every_catalogued_variant_is_exercised_by_some_profile() {
        let ps = all_profiles();
        assert!(ps.iter().any(|p| p.mss_includes_options));
        assert!(ps.iter().any(|p| p.cwnd_init_from_offered_mss));
        assert!(ps.iter().any(|p| p.ss_test_strict));
        assert!(ps.iter().any(|p| p.ssthresh_round_down));
        assert!(ps.iter().any(|p| !p.clear_dupacks_on_timeout));
        assert!(ps.iter().any(|p| p.dupack_updates_cwnd));
        assert!(ps.iter().any(|p| p.fencepost_bug));
        assert!(ps.iter().any(|p| p.header_prediction_bug));
        assert!(ps.iter().any(|p| p.gratuitous_ack_bug));
        assert!(ps.iter().any(|p| p.cwnd_increase == CwndIncrease::Linear));
    }
}
