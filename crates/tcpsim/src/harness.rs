//! One-call bulk-transfer harness.
//!
//! Everything downstream — the analyzer's tests, the figure regenerators,
//! the Table 1 corpus builder — runs the same experiment shape the paper's
//! measurement framework did: a 100 KB (by default) unidirectional bulk
//! transfer between two hosts across a bottlenecked wide-area path, with
//! packet taps at both endpoints.

use crate::config::TcpConfig;
use crate::endpoint::{EndpointStats, Role, TcpEndpoint};
use tcpa_netsim::{perfect_trace, GroundTruth, LinkParams, LossModel, NetBuilder, Stack, TapEvent};
use tcpa_trace::{Duration, Time, Trace};
use tcpa_wire::Ipv4Addr;

/// The wide-area path between the two endpoint LANs.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Bottleneck rate in each direction, bits/second.
    pub rate_bps: u64,
    /// One-way propagation delay of the WAN hop.
    pub one_way_delay: Duration,
    /// Router queue capacity, packets.
    pub queue_cap: usize,
    /// Loss on the data direction (sender → receiver).
    pub loss_data: LossModel,
    /// Loss on the ack direction.
    pub loss_ack: LossModel,
    /// Corruption on the data direction (delivered but discarded by the
    /// receiving TCP, §7).
    pub corrupt_data: LossModel,
    /// Endpoint NIC → stack processing delay (drives §3.2 vantage-point
    /// ambiguity).
    pub proc_delay: Duration,
}

impl Default for PathSpec {
    fn default() -> PathSpec {
        // A mid-90s cross-country path: T1 bottleneck, ~30 ms one way.
        PathSpec {
            rate_bps: 1_544_000,
            one_way_delay: Duration::from_millis(30),
            queue_cap: 20,
            loss_data: LossModel::None,
            loss_ack: LossModel::None,
            corrupt_data: LossModel::None,
            proc_delay: Duration::from_micros(300),
        }
    }
}

/// Everything a finished transfer yields.
pub struct TransferOutcome {
    /// Tap events at the data sender's LAN.
    pub sender_tap: Vec<TapEvent>,
    /// Tap events at the receiver's LAN.
    pub receiver_tap: Vec<TapEvent>,
    /// Sender endpoint counters.
    pub sender_stats: EndpointStats,
    /// Receiver endpoint counters.
    pub receiver_stats: EndpointStats,
    /// Network ground truth.
    pub truth: GroundTruth,
    /// Simulated completion time (last event processed).
    pub finished_at: Time,
    /// `true` if the transfer completed (both FINs exchanged) within the
    /// horizon.
    pub completed: bool,
}

impl TransferOutcome {
    /// The perfect-filter trace at the sender (what an error-free tcpdump
    /// on the sender's LAN would record).
    pub fn sender_trace(&self) -> Trace {
        perfect_trace(&self.sender_tap)
    }

    /// The perfect-filter trace at the receiver.
    pub fn receiver_trace(&self) -> Trace {
        perfect_trace(&self.receiver_tap)
    }
}

/// Addresses/ports the harness always uses (sender is host id 1).
pub const SENDER_ADDR: Ipv4Addr = Ipv4Addr::from_host_id(1);
/// Receiver address.
pub const RECEIVER_ADDR: Ipv4Addr = Ipv4Addr::from_host_id(2);
/// Sender's ephemeral port.
pub const SENDER_PORT: u16 = 33_000;
/// Receiver's service port.
pub const RECEIVER_PORT: u16 = 9_000;

/// Optional extras injected into a run.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// Times at which an ICMP source quench is delivered to the sender
    /// (§6.2), as if emitted by the first-hop router.
    pub quench_at: Vec<Time>,
    /// Simulation horizon; default 600 s.
    pub horizon: Option<Time>,
    /// Sending application pauses for the given duration once this many
    /// bytes are written — creates the idle period that exercises
    /// keep-alives.
    pub sender_pause: Option<(u64, Duration)>,
}

/// Runs one bulk transfer and returns the taps, stats and ground truth.
pub fn run_transfer(
    sender_cfg: TcpConfig,
    receiver_cfg: TcpConfig,
    path: &PathSpec,
    bytes: u64,
    seed: u64,
) -> TransferOutcome {
    run_transfer_with(
        sender_cfg,
        receiver_cfg,
        path,
        bytes,
        seed,
        &Extras::default(),
    )
}

/// [`run_transfer`] with injection extras.
pub fn run_transfer_with(
    sender_cfg: TcpConfig,
    receiver_cfg: TcpConfig,
    path: &PathSpec,
    bytes: u64,
    seed: u64,
    extras: &Extras,
) -> TransferOutcome {
    let wan_ab = LinkParams::wan(path.rate_bps, path.one_way_delay, path.queue_cap)
        .with_loss(path.loss_data.clone())
        .with_corruption(path.corrupt_data.clone());
    let wan_ba = LinkParams::wan(path.rate_bps, path.one_way_delay, path.queue_cap)
        .with_loss(path.loss_ack.clone());
    let (nb, a, b) =
        NetBuilder::two_endpoint_path(SENDER_ADDR, RECEIVER_ADDR, path.proc_delay, wan_ab, wan_ba);
    let mut sender = TcpEndpoint::new(
        sender_cfg,
        SENDER_ADDR,
        SENDER_PORT,
        RECEIVER_ADDR,
        RECEIVER_PORT,
        Role::ActiveSender { total_bytes: bytes },
    );
    if let Some((after, dur)) = extras.sender_pause {
        sender = sender.with_app_pause(after, dur);
    }
    let receiver = TcpEndpoint::new(
        receiver_cfg,
        RECEIVER_ADDR,
        RECEIVER_PORT,
        SENDER_ADDR,
        SENDER_PORT,
        Role::PassiveReceiver,
    );
    let mut engine = nb.build(vec![(a, Box::new(sender)), (b, Box::new(receiver))], seed);
    engine.enable_tap(a);
    engine.enable_tap(b);
    for &t in &extras.quench_at {
        engine.inject(
            t,
            a,
            tcpa_netsim::Packet::source_quench(Ipv4Addr::new(10, 0, 0, 1), SENDER_ADDR),
        );
    }
    let finished_at = engine.run_until(extras.horizon.unwrap_or(Time::from_secs(600)));

    let completed = {
        let s = downcast(engine.stack(a).expect("sender stack"));
        let r = downcast(engine.stack(b).expect("receiver stack"));
        s.done() && r.done() && !s.failed() && !r.failed()
    };
    let results = engine.into_results();
    let sender_stats = downcast(results.stacks[a].as_deref().unwrap())
        .stats
        .clone();
    let receiver_stats = downcast(results.stacks[b].as_deref().unwrap())
        .stats
        .clone();
    let mut taps = results.taps;
    TransferOutcome {
        receiver_tap: std::mem::take(&mut taps[b]),
        sender_tap: std::mem::take(&mut taps[a]),
        sender_stats,
        receiver_stats,
        truth: results.truth,
        finished_at,
        completed,
    }
}

fn downcast(stack: &dyn tcpa_netsim::Stack) -> &TcpEndpoint {
    stack
        .as_any()
        .downcast_ref::<TcpEndpoint>()
        .expect("stack is a TcpEndpoint")
}
