//! The discrete-event engine: hosts, routing, taps and ground truth.
//!
//! Time advances through a binary heap of events; ties are broken by
//! insertion order, so runs are fully deterministic. The standard topology
//! for reproduction experiments is a four-node path
//!
//! ```text
//!   A ——lan—— Ra ——wan (bottleneck, loss)—— Rb ——lan—— B
//! ```
//!
//! built by [`NetBuilder::two_endpoint_path`]. Taps sit on the endpoints'
//! LANs: an outbound packet is recorded when its LAN transmission
//! *completes* (its wire time; Ethernet serialization is what gives the
//! paper's Figure 1 its 1 MB/s slope), and an inbound packet when it
//! reaches the host's NIC. Queueing and loss on the WAN therefore happen
//! *after* the sender's tap and *before* the receiver's tap, matching
//! where the paper's measurement points sat.

use crate::link::{Enqueue, Link, LinkParams};
use crate::packet::Packet;
use crate::rng::SplitMix64;
use crate::stack::Stack;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tcpa_trace::{Duration, Time};
use tcpa_wire::Ipv4Addr;

/// Index of a host within an [`Engine`].
pub type HostId = usize;

/// Direction of a tap event relative to the tapped host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDir {
    /// The host transmitted this packet.
    Out,
    /// The host received this packet.
    In,
}

/// One perfectly-observed wire event at a tapped host.
///
/// `tcpa-filter` turns sequences of these into *imperfect* packet-filter
/// traces.
#[derive(Debug, Clone)]
pub struct TapEvent {
    /// The true wire time at the tap.
    pub t_wire: Time,
    /// For outbound packets: when the host's stack emitted the packet
    /// (before interface queueing and serialization). The IRIX 5.2/5.3
    /// duplication bug records packets at *both* times (§3.1.2).
    pub t_stack: Option<Time>,
    /// Direction relative to the tapped host.
    pub dir: TapDir,
    /// The packet.
    pub pkt: Packet,
}

/// What the network actually did — for validating the analyzer against
/// reality.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// (time, uid) of packets destroyed by a link loss model.
    pub wire_drops: Vec<(Time, u64)>,
    /// (time, uid) of packets dropped at a full queue.
    pub queue_drops: Vec<(Time, u64)>,
    /// Packets delivered to an endpoint stack.
    pub delivered: u64,
}

impl GroundTruth {
    /// Total packets the network dropped.
    pub fn total_drops(&self) -> usize {
        self.wire_drops.len() + self.queue_drops.len()
    }
}

enum Ev {
    Start { host: HostId },
    TxDone { link: usize },
    Arrive { host: HostId, pkt: Packet },
    Process { host: HostId, pkt: Packet },
    Timer { host: HostId, gen: u64 },
}

struct EvEntry {
    t: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for EvEntry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for EvEntry {}
impl PartialOrd for EvEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

struct Host {
    addr: Ipv4Addr,
    stack: Option<Box<dyn Stack>>,
    proc_delay: Duration,
    timer_gen: u64,
    scheduled_timer: Option<Time>,
    tapped: bool,
    tap: Vec<TapEvent>,
}

/// Everything a finished simulation yields.
pub struct SimResults {
    /// Per-host tap events (empty for untapped hosts).
    pub taps: Vec<Vec<TapEvent>>,
    /// Per-host stacks (None for routers); downcast via
    /// [`Stack::as_any`] to recover concrete endpoint state.
    pub stacks: Vec<Option<Box<dyn Stack>>>,
    /// What the network really did.
    pub truth: GroundTruth,
}

/// Converts a tap's events into the trace a *perfect, error-free* packet
/// filter with a TCP-only pattern would have produced: every TCP packet,
/// timestamped at its true wire time, non-TCP packets excluded (the
/// paper's filters matched TCP only, which is why source quench must be
/// inferred, §6.2). `tcpa-filter` layers measurement errors on top.
pub fn perfect_trace(events: &[TapEvent]) -> tcpa_trace::Trace {
    let mut trace = tcpa_trace::Trace::new();
    for ev in events {
        if let crate::packet::PacketKind::Tcp {
            tcp,
            payload_len,
            corrupt,
        } = &ev.pkt.kind
        {
            trace.push(tcpa_trace::TraceRecord {
                ts: ev.t_wire,
                ip: ev.pkt.ip_repr(),
                tcp: tcp.clone(),
                payload_len: *payload_len,
                checksum_ok: Some(!corrupt),
            });
        }
    }
    trace
}

/// Declarative topology builder.
#[derive(Default)]
pub struct NetBuilder {
    hosts: Vec<(Ipv4Addr, Duration, bool)>, // addr, proc delay, is_endpoint
    links: Vec<(HostId, HostId, LinkParams)>,
}

impl NetBuilder {
    /// An empty topology.
    pub fn new() -> NetBuilder {
        NetBuilder::default()
    }

    /// Adds an endpoint host with the given address and stack processing
    /// delay (NIC → TCP). A stack must be supplied for it in
    /// [`NetBuilder::build`].
    pub fn host(&mut self, addr: Ipv4Addr, proc_delay: Duration) -> HostId {
        self.hosts.push((addr, proc_delay, true));
        self.hosts.len() - 1
    }

    /// Adds a store-and-forward router (no stack, no processing delay).
    pub fn router(&mut self, addr: Ipv4Addr) -> HostId {
        self.hosts.push((addr, Duration::ZERO, false));
        self.hosts.len() - 1
    }

    /// Adds a unidirectional link.
    pub fn link(&mut self, from: HostId, to: HostId, params: LinkParams) {
        self.links.push((from, to, params));
    }

    /// Adds a pair of links in both directions.
    pub fn biconnect(&mut self, a: HostId, b: HostId, ab: LinkParams, ba: LinkParams) {
        self.link(a, b, ab);
        self.link(b, a, ba);
    }

    /// Builds the engine. `stacks` pairs endpoint host ids with their
    /// stacks; every endpoint host must appear exactly once.
    pub fn build(self, stacks: Vec<(HostId, Box<dyn Stack>)>, seed: u64) -> Engine {
        let n = self.hosts.len();
        let mut hosts: Vec<Host> = self
            .hosts
            .iter()
            .map(|&(addr, proc_delay, _)| Host {
                addr,
                stack: None,
                proc_delay,
                timer_gen: 0,
                scheduled_timer: None,
                tapped: false,
                tap: Vec::new(),
            })
            .collect();
        for (id, stack) in stacks {
            assert!(
                self.hosts[id].2,
                "host {id} is a router and cannot take a stack"
            );
            assert!(hosts[id].stack.is_none(), "host {id} given two stacks");
            hosts[id].stack = Some(stack);
        }
        for (id, spec) in self.hosts.iter().enumerate() {
            assert!(
                !spec.2 || hosts[id].stack.is_some(),
                "endpoint host {id} has no stack"
            );
        }
        let links: Vec<Link> = self
            .links
            .into_iter()
            .map(|(from, to, params)| Link::new(from, to, params))
            .collect();

        // Next-hop routing by BFS over the directed link graph.
        let mut routes = vec![vec![None; n]; n];
        for (src, row) in routes.iter_mut().enumerate() {
            // BFS from src; first link on shortest path to each dst.
            let mut dist = vec![usize::MAX; n];
            let mut first_link = vec![None; n];
            let mut queue = std::collections::VecDeque::new();
            dist[src] = 0;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for (li, link) in links.iter().enumerate() {
                    if link.src_host == u && dist[link.dst_host] == usize::MAX {
                        dist[link.dst_host] = dist[u] + 1;
                        first_link[link.dst_host] = if u == src { Some(li) } else { first_link[u] };
                        queue.push_back(link.dst_host);
                    }
                }
            }
            row.clone_from_slice(&first_link);
        }

        Engine {
            now: Time::ZERO,
            seq: 0,
            uid: 0,
            heap: BinaryHeap::new(),
            hosts,
            links,
            routes,
            pending_out: HashMap::new(),
            rng: SplitMix64::new(seed),
            truth: GroundTruth::default(),
            material: 0,
            started: false,
        }
    }

    /// Builds the standard reproduction topology: two endpoint hosts on
    /// 10 Mb/s Ethernets joined by a WAN whose two directions are given by
    /// `wan_ab` / `wan_ba`. Returns `(builder, a, b)`; the caller adds any
    /// extra pieces and calls [`NetBuilder::build`].
    pub fn two_endpoint_path(
        addr_a: Ipv4Addr,
        addr_b: Ipv4Addr,
        proc_delay: Duration,
        wan_ab: LinkParams,
        wan_ba: LinkParams,
    ) -> (NetBuilder, HostId, HostId) {
        let mut nb = NetBuilder::new();
        let a = nb.host(addr_a, proc_delay);
        let b = nb.host(addr_b, proc_delay);
        let ra = nb.router(Ipv4Addr::new(10, 0, 0, 1));
        let rb = nb.router(Ipv4Addr::new(10, 0, 0, 2));
        nb.biconnect(a, ra, LinkParams::ethernet(), LinkParams::ethernet());
        nb.biconnect(ra, rb, wan_ab, wan_ba);
        nb.biconnect(rb, b, LinkParams::ethernet(), LinkParams::ethernet());
        (nb, a, b)
    }
}

/// The discrete-event simulator.
pub struct Engine {
    now: Time,
    seq: u64,
    uid: u64,
    heap: BinaryHeap<Reverse<EvEntry>>,
    hosts: Vec<Host>,
    links: Vec<Link>,
    routes: Vec<Vec<Option<usize>>>,
    pending_out: HashMap<u64, Time>,
    rng: SplitMix64,
    truth: GroundTruth,
    /// Count of non-timer events in the heap; lets the engine stop early
    /// when every stack is done and nothing is in flight.
    material: u64,
    started: bool,
}

impl Engine {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Enables wire-event recording at a host.
    pub fn enable_tap(&mut self, host: HostId) {
        self.hosts[host].tapped = true;
    }

    /// The recorded tap events of a host, in wire-time order.
    pub fn tap_events(&self, host: HostId) -> &[TapEvent] {
        &self.hosts[host].tap
    }

    /// Consumes the engine, returning all taps, the ground truth, and the
    /// stacks (for downcasting to concrete endpoint types).
    pub fn into_results(self) -> SimResults {
        let mut taps = Vec::with_capacity(self.hosts.len());
        let mut stacks = Vec::with_capacity(self.hosts.len());
        for h in self.hosts {
            taps.push(h.tap);
            stacks.push(h.stack);
        }
        SimResults {
            taps,
            stacks,
            truth: self.truth,
        }
    }

    /// Borrow a host's stack (e.g. to inspect statistics mid-run).
    pub fn stack(&self, host: HostId) -> Option<&dyn Stack> {
        self.hosts[host].stack.as_deref()
    }

    /// The ground truth so far.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Schedules delivery of an arbitrary packet to a host's stack at time
    /// `t` (used to inject ICMP source quench, §6.2).
    pub fn inject(&mut self, t: Time, host: HostId, pkt: Packet) {
        self.push(t, Ev::Arrive { host, pkt }, true);
    }

    fn push(&mut self, t: Time, ev: Ev, material: bool) {
        if material {
            self.material += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(EvEntry { t, seq, ev }));
    }

    /// Runs until `t_end`, or until every stack reports done and nothing
    /// is in flight. Returns the time of the last processed event.
    pub fn run_until(&mut self, t_end: Time) -> Time {
        if !self.started {
            self.started = true;
            for id in 0..self.hosts.len() {
                if self.hosts[id].stack.is_some() {
                    self.push(Time::ZERO, Ev::Start { host: id }, true);
                }
            }
        }
        let mut last = self.now;
        while let Some(Reverse(entry)) = self.heap.peek() {
            if entry.t > t_end {
                break;
            }
            let Reverse(entry) = self.heap.pop().unwrap();
            debug_assert!(entry.t >= self.now, "event queue went backwards");
            self.now = entry.t;
            let material = !matches!(entry.ev, Ev::Timer { .. });
            if material {
                self.material -= 1;
            }
            self.dispatch(entry.ev);
            last = self.now;
            if self.material == 0 && self.all_done() {
                break;
            }
        }
        last
    }

    /// Runs with a generous default horizon (10 simulated minutes).
    pub fn run(&mut self) -> Time {
        self.run_until(Time::from_secs(600))
    }

    fn all_done(&self) -> bool {
        self.hosts
            .iter()
            .filter_map(|h| h.stack.as_deref())
            .all(|s| s.done())
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Start { host } => {
                let mut out = Vec::new();
                let now = self.now;
                if let Some(stack) = self.hosts[host].stack.as_deref_mut() {
                    stack.start(now, &mut out);
                }
                self.emit_all(host, out);
                self.sync_timer(host);
            }
            Ev::TxDone { link } => {
                let (pkt, dropped, more) = self.links[link].complete_tx(&mut self.rng);
                let src_host = self.links[link].src_host;
                let t_stack = self.pending_out.remove(&pkt.uid);
                if self.hosts[src_host].tapped {
                    self.hosts[src_host].tap.push(TapEvent {
                        t_wire: self.now,
                        t_stack,
                        dir: TapDir::Out,
                        pkt: pkt.clone(),
                    });
                }
                if more {
                    let t_done = self.now + self.links[link].current_tx_time();
                    self.push(t_done, Ev::TxDone { link }, true);
                }
                if dropped {
                    self.truth.wire_drops.push((self.now, pkt.uid));
                } else {
                    let dst = self.links[link].dst_host;
                    let t_arrive = self.links[link].arrival_time(self.now);
                    self.push(t_arrive, Ev::Arrive { host: dst, pkt }, true);
                }
            }
            Ev::Arrive { host, pkt } => {
                if self.hosts[host].tapped {
                    self.hosts[host].tap.push(TapEvent {
                        t_wire: self.now,
                        t_stack: None,
                        dir: TapDir::In,
                        pkt: pkt.clone(),
                    });
                }
                if pkt.dst == self.hosts[host].addr {
                    if self.hosts[host].stack.is_some() {
                        let t = self.now + self.hosts[host].proc_delay;
                        self.push(t, Ev::Process { host, pkt }, true);
                    }
                    // Packets addressed to a stackless router are dropped.
                } else {
                    // Forward towards the destination.
                    self.route_packet(host, pkt);
                }
            }
            Ev::Process { host, pkt } => {
                let mut out = Vec::new();
                let now = self.now;
                self.truth.delivered += 1;
                if let Some(stack) = self.hosts[host].stack.as_deref_mut() {
                    stack.on_packet(now, pkt, &mut out);
                }
                self.emit_all(host, out);
                self.sync_timer(host);
            }
            Ev::Timer { host, gen } => {
                if gen != self.hosts[host].timer_gen {
                    return; // superseded
                }
                self.hosts[host].scheduled_timer = None;
                let mut out = Vec::new();
                let now = self.now;
                if let Some(stack) = self.hosts[host].stack.as_deref_mut() {
                    stack.on_timer(now, &mut out);
                }
                self.emit_all(host, out);
                self.sync_timer(host);
            }
        }
    }

    fn emit_all(&mut self, host: HostId, out: Vec<Packet>) {
        for mut pkt in out {
            self.uid += 1;
            pkt.uid = self.uid;
            self.pending_out.insert(pkt.uid, self.now);
            self.route_packet(host, pkt);
        }
    }

    fn route_packet(&mut self, from: HostId, pkt: Packet) {
        let Some(dst_host) = self.hosts.iter().position(|h| h.addr == pkt.dst) else {
            return; // unroutable: silently discarded, like a real network
        };
        let Some(link_id) = self.routes[from][dst_host] else {
            return;
        };
        let uid = pkt.uid;
        match self.links[link_id].enqueue(pkt) {
            Enqueue::Accepted { starts_tx: true } => {
                let t_done = self.now + self.links[link_id].current_tx_time();
                self.push(t_done, Ev::TxDone { link: link_id }, true);
            }
            Enqueue::Accepted { starts_tx: false } => {}
            Enqueue::Overflow => {
                self.pending_out.remove(&uid);
                self.truth.queue_drops.push((self.now, uid));
            }
        }
    }

    fn sync_timer(&mut self, host: HostId) {
        let want = self.hosts[host]
            .stack
            .as_deref()
            .and_then(|s| s.next_timer());
        if self.hosts[host].scheduled_timer == want {
            return;
        }
        self.hosts[host].timer_gen += 1;
        self.hosts[host].scheduled_timer = want;
        if let Some(t) = want {
            let gen = self.hosts[host].timer_gen;
            let t = t.max(self.now);
            self.push(t, Ev::Timer { host, gen }, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use tcpa_wire::{TcpFlags, TcpRepr};

    /// Emits `count` packets, one per `interval`, and records acks.
    struct Blaster {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        count: u32,
        sent: u32,
        interval: Duration,
        next_at: Option<Time>,
        acks_seen: Vec<Time>,
    }

    impl Blaster {
        fn new(src: Ipv4Addr, dst: Ipv4Addr, count: u32, interval: Duration) -> Blaster {
            Blaster {
                src,
                dst,
                count,
                sent: 0,
                interval,
                next_at: None,
                acks_seen: Vec::new(),
            }
        }

        fn emit(&mut self, out: &mut Vec<Packet>) {
            let mut tcp = TcpRepr::new(1000, 2000);
            tcp.flags = TcpFlags::ACK;
            tcp.seq = tcpa_wire::SeqNum(self.sent * 1000);
            out.push(Packet::tcp(self.src, self.dst, self.sent as u16, tcp, 1000));
            self.sent += 1;
        }
    }

    impl Stack for Blaster {
        fn start(&mut self, now: Time, out: &mut Vec<Packet>) {
            self.emit(out);
            if self.sent < self.count {
                self.next_at = Some(now + self.interval);
            }
        }
        fn on_packet(&mut self, now: Time, _pkt: Packet, _out: &mut Vec<Packet>) {
            self.acks_seen.push(now);
        }
        fn on_timer(&mut self, now: Time, out: &mut Vec<Packet>) {
            self.emit(out);
            self.next_at = if self.sent < self.count {
                Some(now + self.interval)
            } else {
                None
            };
        }
        fn next_timer(&self) -> Option<Time> {
            self.next_at
        }
        fn done(&self) -> bool {
            self.sent == self.count
        }
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
    }

    /// Replies to every data packet with a 0-length ack.
    struct Echo {
        src: Ipv4Addr,
        received: u32,
    }

    impl Stack for Echo {
        fn on_packet(&mut self, _now: Time, pkt: Packet, out: &mut Vec<Packet>) {
            if let PacketKind::Tcp { tcp, .. } = &pkt.kind {
                self.received += 1;
                let mut reply = TcpRepr::new(tcp.dst_port, tcp.src_port);
                reply.flags = TcpFlags::ACK;
                out.push(Packet::tcp(
                    self.src,
                    pkt.src,
                    self.received as u16,
                    reply,
                    0,
                ));
            }
        }
        fn on_timer(&mut self, _now: Time, _out: &mut Vec<Packet>) {}
        fn next_timer(&self) -> Option<Time> {
            None
        }
        fn done(&self) -> bool {
            true
        }
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
    }

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::from_host_id(1), Ipv4Addr::from_host_id(2))
    }

    fn build_path(count: u32, wan_ab: LinkParams, wan_ba: LinkParams) -> (Engine, HostId, HostId) {
        let (a_addr, b_addr) = addrs();
        let (nb, a, b) = NetBuilder::two_endpoint_path(
            a_addr,
            b_addr,
            Duration::from_micros(100),
            wan_ab,
            wan_ba,
        );
        let blaster = Blaster::new(a_addr, b_addr, count, Duration::from_millis(10));
        let echo = Echo {
            src: b_addr,
            received: 0,
        };
        let mut engine = nb.build(vec![(a, Box::new(blaster)), (b, Box::new(echo))], 7);
        engine.enable_tap(a);
        engine.enable_tap(b);
        (engine, a, b)
    }

    #[test]
    fn packets_cross_the_path_and_acks_return() {
        let wan = LinkParams::wan(1_000_000, Duration::from_millis(20), 20);
        let (mut engine, a, b) = build_path(5, wan.clone(), wan);
        engine.run();
        let a_out = engine
            .tap_events(a)
            .iter()
            .filter(|e| e.dir == TapDir::Out)
            .count();
        let a_in = engine
            .tap_events(a)
            .iter()
            .filter(|e| e.dir == TapDir::In)
            .count();
        assert_eq!(a_out, 5);
        assert_eq!(a_in, 5, "five acks should return");
        let b_in = engine
            .tap_events(b)
            .iter()
            .filter(|e| e.dir == TapDir::In)
            .count();
        assert_eq!(b_in, 5);
        assert_eq!(engine.ground_truth().total_drops(), 0);
    }

    #[test]
    fn tap_events_are_time_ordered_per_host() {
        let wan = LinkParams::wan(256_000, Duration::from_millis(35), 8);
        let (mut engine, a, _) = build_path(20, wan.clone(), wan);
        engine.run();
        let times: Vec<Time> = engine.tap_events(a).iter().map(|e| e.t_wire).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rtt_matches_link_parameters() {
        // One packet; hand-computable latency.
        let wan = LinkParams::wan(1_000_000, Duration::from_millis(50), 10);
        let (mut engine, a, _) = build_path(1, wan.clone(), wan);
        engine.run();
        let out_t = engine.tap_events(a)[0].t_wire;
        let in_t = engine.tap_events(a)[1].t_wire;
        let rtt = in_t - out_t;
        // Expect > 2*50ms propagation plus serializations; < 120ms total.
        assert!(rtt > Duration::from_millis(100), "rtt = {rtt}");
        assert!(rtt < Duration::from_millis(120), "rtt = {rtt}");
    }

    #[test]
    fn wire_loss_recorded_and_packet_not_delivered() {
        let wan_ab = LinkParams::wan(1_000_000, Duration::from_millis(10), 20)
            .with_loss(crate::link::LossModel::DropList(vec![2]));
        let wan_ba = LinkParams::wan(1_000_000, Duration::from_millis(10), 20);
        let (mut engine, a, b) = build_path(6, wan_ab, wan_ba);
        engine.run();
        assert_eq!(engine.ground_truth().wire_drops.len(), 1);
        // Sender tap saw all 6; receiver tap saw 5.
        let a_out = engine
            .tap_events(a)
            .iter()
            .filter(|e| e.dir == TapDir::Out)
            .count();
        let b_in = engine
            .tap_events(b)
            .iter()
            .filter(|e| e.dir == TapDir::In)
            .count();
        assert_eq!(a_out, 6);
        assert_eq!(b_in, 5);
    }

    #[test]
    fn queue_overflow_drops_recorded() {
        // Slow WAN with a 2-packet queue; blaster sends 20 back-to-back
        // (interval shorter than serialization time).
        let (a_addr, b_addr) = addrs();
        let (nb, a, b) = NetBuilder::two_endpoint_path(
            a_addr,
            b_addr,
            Duration::ZERO,
            LinkParams::wan(64_000, Duration::from_millis(5), 2),
            LinkParams::wan(64_000, Duration::from_millis(5), 2),
        );
        let blaster = Blaster::new(a_addr, b_addr, 20, Duration::from_micros(10));
        let echo = Echo {
            src: b_addr,
            received: 0,
        };
        let mut engine = nb.build(vec![(a, Box::new(blaster)), (b, Box::new(echo))], 7);
        engine.enable_tap(b);
        engine.run();
        assert!(
            !engine.ground_truth().queue_drops.is_empty(),
            "2-packet queue must overflow"
        );
        let b_in = engine
            .tap_events(b)
            .iter()
            .filter(|e| e.dir == TapDir::In)
            .count();
        assert_eq!(
            b_in + engine.ground_truth().queue_drops.len(),
            20,
            "every packet either arrived or overflowed"
        );
    }

    #[test]
    fn outbound_tap_records_stack_emission_time() {
        let wan = LinkParams::wan(1_000_000, Duration::from_millis(10), 10);
        let (mut engine, a, _) = build_path(1, wan.clone(), wan);
        engine.run();
        let ev = &engine.tap_events(a)[0];
        let t_stack = ev.t_stack.expect("outbound event carries stack time");
        assert!(ev.t_wire > t_stack, "serialization takes time");
        // 1054 bytes at 10 Mb/s LAN = 843.2 µs.
        assert_eq!(
            ev.t_wire - t_stack,
            Duration::transmission(1054, 10_000_000)
        );
    }

    #[test]
    fn injected_source_quench_reaches_stack_but_not_tcp_tap_filters() {
        let wan = LinkParams::wan(1_000_000, Duration::from_millis(10), 10);
        let (mut engine, a, _) = build_path(2, wan.clone(), wan);
        let (a_addr, _) = addrs();
        engine.inject(
            Time::from_millis(1),
            a,
            Packet::source_quench(Ipv4Addr::new(10, 0, 0, 1), a_addr),
        );
        engine.run();
        // The tap itself records everything at the host; TCP-only
        // filtering is the *filter simulator's* job, so here we simply
        // check the quench arrived as an In event that is_tcp() == false.
        let quench_events: Vec<_> = engine
            .tap_events(a)
            .iter()
            .filter(|e| !e.pkt.is_tcp())
            .collect();
        assert_eq!(quench_events.len(), 1);
        assert_eq!(quench_events[0].dir, TapDir::In);
    }

    #[test]
    fn engine_stops_early_when_stacks_done() {
        let wan = LinkParams::wan(1_000_000, Duration::from_millis(10), 10);
        let (mut engine, _, _) = build_path(3, wan.clone(), wan);
        let end = engine.run_until(Time::from_secs(3600));
        assert!(end < Time::from_secs(1), "should stop long before horizon");
    }
}
