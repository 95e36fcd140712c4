//! The TCP endpoint state machine.
//!
//! One struct, [`TcpEndpoint`], plays either role of a bulk transfer
//! (§1: "traces of the TCP sending and receiving bulk data transfers"):
//! the *active sender* opens the connection, ships `total_bytes`, then
//! closes; the *passive receiver* accepts, acknowledges per its configured
//! policy, and closes after the sender's FIN.
//!
//! All behavioral variation is driven by the [`TcpConfig`] — the endpoint
//! code itself has no per-implementation branches beyond reading flags, so
//! each profile's pathology is an *emergent* property of its flags (e.g.
//! Figure 5's retransmission storm emerges from `initial_rto = 300 ms` +
//! `SolarisBroken` + Karn's rule; it is not scripted).

use crate::config::{AckPolicy, TcpConfig, DEFAULT_PEER_MSS};
use crate::congestion::CcState;
use crate::rtt::RttEstimator;
use tcpa_netsim::{Packet, PacketKind, Stack};
use tcpa_trace::{Duration, Time};
use tcpa_wire::{Ipv4Addr, SeqNum, TcpFlags, TcpRepr};

/// Initial persist-timer delay before probing a closed window (BSD: 5 s),
/// backed off exponentially to [`PERSIST_MAX`].
const PERSIST_INITIAL: Duration = Duration::from_secs(5);

/// Persist-timer ceiling (BSD: 60 s).
const PERSIST_MAX: Duration = Duration::from_secs(60);

/// Which side of the bulk transfer this endpoint plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Actively opens the connection and sends `total_bytes` of data.
    ActiveSender {
        /// Application bytes to transfer.
        total_bytes: u64,
    },
    /// Passively accepts and consumes the transfer.
    PassiveReceiver,
}

/// Counters exposed for tests and the reproduction harness.
#[derive(Debug, Clone, Default)]
pub struct EndpointStats {
    /// Data-bearing packets transmitted (retransmissions included).
    pub data_packets_sent: u64,
    /// Data-bearing packets that were retransmissions.
    pub retransmissions: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// Pure acks transmitted.
    pub acks_sent: u64,
    /// New data bytes cumulatively acknowledged by the peer.
    pub bytes_acked: u64,
    /// ICMP source quench messages processed.
    pub quenches_received: u64,
    /// Segments discarded on arrival as corrupt.
    pub corrupt_discarded: u64,
    /// Data packets received (receiver side).
    pub data_packets_received: u64,
    /// Zero-window probes sent (persist timer fired).
    pub zero_window_probes: u64,
    /// Window-update acks sent (receiver side).
    pub window_updates_sent: u64,
    /// Arrivals discarded because they exceeded the advertised window.
    pub window_rejected: u64,
    /// RST segments sent.
    pub rsts_sent: u64,
    /// Keep-alive probes sent.
    pub keepalives_sent: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    SynSent,
    Listen,
    SynRcvd,
    Established,
    /// SYN retries exhausted, or the retransmission limit was reached
    /// mid-connection.
    Failed,
}

/// One past the last data byte for a transfer starting at `iss`.
fn data_end_of(iss: SeqNum, total_bytes: u64) -> SeqNum {
    iss + 1 + (total_bytes as u32)
}

/// A simulated TCP endpoint; plugs into `tcpa-netsim` as a [`Stack`].
pub struct TcpEndpoint {
    cfg: TcpConfig,
    role: Role,
    local_addr: Ipv4Addr,
    local_port: u16,
    remote_addr: Ipv4Addr,
    remote_port: u16,
    state: State,
    ident: u16,

    // ---- sender ----
    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    snd_max: SeqNum,
    cc: CcState,
    rtt: RttEstimator,
    peer_window: u32,
    peer_mss: Option<u16>,
    peer_sent_mss: bool,
    eff_mss: u32,
    cwnd_mss: u32,
    total_bytes: u64,
    our_fin_sent: bool,
    our_fin_acked: bool,
    want_close: bool,
    any_retransmitted: bool,
    retx_high: SeqNum,
    rtt_timing: Option<(SeqNum, Time)>,
    rtx_deadline: Option<Time>,
    /// Consecutive RTO firings without an intervening liberating ack.
    consecutive_timeouts: u32,
    syn_deadline: Option<Time>,
    syn_retries: u32,
    liberating_acks: u64,

    // ---- zero-window probing (sender side) ----
    persist_deadline: Option<Time>,
    persist_backoff: Duration,

    // ---- application write pause (sender side) ----
    /// The application stops producing at this sequence for a while.
    pause_boundary: Option<(SeqNum, Duration)>,
    pause_until: Option<Time>,

    // ---- keep-alive ----
    last_activity: Time,
    keepalive_deadline: Option<Time>,

    // ---- receiver ----
    irs: SeqNum,
    rcv_nxt: SeqNum,
    ooo: Vec<(SeqNum, u32)>,
    peer_fin_received: bool,
    ack_pending_bytes: u32,
    delack_deadline: Option<Time>,
    acks_sent_idx: usize,
    /// In-order bytes delivered but not yet read by the application.
    unconsumed: u64,
    last_consume: Time,
    /// Window value carried by our most recent ack.
    last_advertised_win: u32,

    /// Public counters.
    pub stats: EndpointStats,
}

impl TcpEndpoint {
    /// Creates an endpoint. Active senders transition out of `Closed` when
    /// the engine calls [`Stack::start`]; passive receivers listen.
    pub fn new(
        cfg: TcpConfig,
        local_addr: Ipv4Addr,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
        role: Role,
    ) -> TcpEndpoint {
        let total_bytes = match role {
            Role::ActiveSender { total_bytes } => total_bytes,
            Role::PassiveReceiver => 0,
        };
        // Deterministic ISS derived from the port pair: reproducible yet
        // distinct per connection.
        let iss = SeqNum(u32::from(local_port) << 16 | 0x1000);
        let rtt = RttEstimator::new(&cfg);
        let state = match role {
            Role::ActiveSender { .. } => State::Closed,
            Role::PassiveReceiver => State::Listen,
        };
        TcpEndpoint {
            rtt,
            role,
            local_addr,
            local_port,
            remote_addr,
            remote_port,
            state,
            ident: 1,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            cc: CcState {
                cwnd: 0,
                ssthresh: 0,
                dup_acks: 0,
                in_recovery: false,
                recover: SeqNum::ZERO,
            },
            peer_window: 0,
            peer_mss: None,
            peer_sent_mss: false,
            eff_mss: u32::from(DEFAULT_PEER_MSS),
            cwnd_mss: u32::from(DEFAULT_PEER_MSS),
            total_bytes,
            our_fin_sent: false,
            our_fin_acked: false,
            want_close: false,
            any_retransmitted: false,
            retx_high: iss,
            rtt_timing: None,
            rtx_deadline: None,
            consecutive_timeouts: 0,
            syn_deadline: None,
            syn_retries: 0,
            liberating_acks: 0,
            persist_deadline: None,
            persist_backoff: PERSIST_INITIAL,
            pause_boundary: None,
            pause_until: None,
            last_activity: Time::ZERO,
            keepalive_deadline: None,
            irs: SeqNum::ZERO,
            rcv_nxt: SeqNum::ZERO,
            ooo: Vec::new(),
            peer_fin_received: false,
            ack_pending_bytes: 0,
            delack_deadline: None,
            acks_sent_idx: 0,
            unconsumed: 0,
            last_consume: Time::ZERO,
            last_advertised_win: 0,
            stats: EndpointStats::default(),
            cfg,
        }
    }

    /// Makes the sending application pause for `dur` once `after_bytes`
    /// of the transfer have been handed to TCP — the idle period that
    /// exercises keep-alive probing.
    pub fn with_app_pause(mut self, after_bytes: u64, dur: Duration) -> TcpEndpoint {
        let boundary = self.iss + 1 + (after_bytes.min(self.total_bytes) as u32);
        self.pause_boundary = Some((boundary, dur));
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Congestion-control snapshot (tests/diagnostics).
    pub fn cc(&self) -> &CcState {
        &self.cc
    }

    /// `true` once the three-way handshake completed.
    pub fn established(&self) -> bool {
        self.state == State::Established
    }

    /// `true` if connection setup gave up.
    pub fn failed(&self) -> bool {
        self.state == State::Failed
    }

    // ------------------------------------------------------------------
    // Packet construction
    // ------------------------------------------------------------------

    fn base_tcp(&self) -> TcpRepr {
        let mut t = TcpRepr::new(self.local_port, self.remote_port);
        t.window = self.offered_window() as u16;
        t
    }

    fn mk_packet(&mut self, tcp: TcpRepr, payload_len: u32) -> Packet {
        let ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        Packet::tcp(self.local_addr, self.remote_addr, ident, tcp, payload_len)
    }

    fn send_syn(&mut self, out: &mut Vec<Packet>) {
        let mut t = self.base_tcp();
        t.seq = self.iss;
        t.flags = TcpFlags::SYN;
        t.mss = self.cfg.send_mss_option.then_some(self.cfg.mss);
        let pkt = self.mk_packet(t, 0);
        out.push(pkt);
    }

    fn send_syn_ack(&mut self, out: &mut Vec<Packet>) {
        let mut t = self.base_tcp();
        t.seq = self.iss;
        t.ack = self.rcv_nxt;
        t.flags = TcpFlags::SYN | TcpFlags::ACK;
        t.mss = self.cfg.send_mss_option.then_some(self.cfg.mss);
        let pkt = self.mk_packet(t, 0);
        out.push(pkt);
    }

    fn send_ack(&mut self, out: &mut Vec<Packet>) {
        let mut t = self.base_tcp();
        t.seq = self.snd_nxt;
        t.ack = self.rcv_nxt;
        t.flags = TcpFlags::ACK;
        self.last_advertised_win = u32::from(t.window);
        let pkt = self.mk_packet(t, 0);
        out.push(pkt);
        self.stats.acks_sent += 1;
        self.acks_sent_idx += 1;
        self.ack_pending_bytes = 0;
        self.delack_deadline = None;
    }

    /// Emits one data (or FIN) segment. `seq` must lie in
    /// `[snd_una, data_end]`; `len == 0` means the FIN segment.
    fn send_segment(
        &mut self,
        now: Time,
        seq: SeqNum,
        len: u32,
        is_retx: bool,
        out: &mut Vec<Packet>,
    ) {
        let mut t = self.base_tcp();
        t.seq = seq;
        t.ack = self.rcv_nxt;
        t.flags = TcpFlags::ACK;
        let data_end = self.data_end();
        if len == 0 {
            debug_assert_eq!(seq, data_end, "zero-length segment must be the FIN");
            t.flags = t.flags | TcpFlags::FIN;
        } else if (seq + len) == data_end {
            t.flags = t.flags | TcpFlags::PSH;
        }
        let pkt = self.mk_packet(t, len);
        out.push(pkt);
        if len > 0 {
            self.stats.data_packets_sent += 1;
        }
        if is_retx {
            self.stats.retransmissions += 1;
            self.any_retransmitted = true;
            let hi = seq + len.max(1);
            if hi.after(self.retx_high) {
                self.retx_high = hi;
            }
        } else if self.rtt_timing.is_none() && len > 0 {
            // Time exactly one segment at a time (Karn).
            self.rtt_timing = Some((seq + len, now));
        }
        if self.rtx_deadline.is_none() {
            self.rtx_deadline = Some(now + self.rtt.rto());
        }
    }

    // ------------------------------------------------------------------
    // Sender machinery
    // ------------------------------------------------------------------

    /// One past the last application data byte.
    fn data_end(&self) -> SeqNum {
        data_end_of(self.iss, self.total_bytes)
    }

    fn usable_window(&self) -> u64 {
        let cwnd = if self.cfg.no_congestion_window {
            u64::MAX
        } else {
            self.cc.cwnd
        };
        cwnd.min(u64::from(self.peer_window))
            .min(u64::from(self.cfg.send_buffer))
    }

    /// Sends whatever the windows currently permit (the *liberation* act
    /// tcpanaly reconstructs, §6.1).
    fn try_output(&mut self, now: Time, out: &mut Vec<Packet>) {
        if self.state != State::Established {
            return;
        }
        let wnd = self.usable_window();
        let data_end = match (self.pause_boundary, self.pause_until) {
            // Paused right now: nothing beyond the boundary is available.
            (Some((boundary, _)), Some(until)) if now < until => boundary,
            // Pause pending: it begins when the boundary is reached.
            (Some((boundary, dur)), None) => {
                if !self.snd_nxt.before(boundary) {
                    self.pause_until = Some(now + dur);
                    boundary
                } else {
                    boundary.min(data_end_of(self.iss, self.total_bytes))
                }
            }
            // Pause over.
            (Some(_), Some(_)) => {
                self.pause_boundary = None;
                self.data_end()
            }
            (None, _) => self.data_end(),
        };
        let mut all_data_sent = false;
        loop {
            let in_flight = (self.snd_nxt - self.snd_una).max(0) as u64;
            if in_flight >= wnd {
                break; // window exhausted
            }
            let room = (wnd - in_flight).min(u64::from(u32::MAX)) as u32;
            let rem = (data_end - self.snd_nxt).max(0) as u32;
            if rem == 0 {
                all_data_sent = true;
                break;
            }
            let len = self.eff_mss.min(rem).min(room);
            if len < self.eff_mss && len < rem {
                break; // sender-side SWS avoidance: wait for more window
            }
            let is_retx = self.snd_nxt.before(self.snd_max);
            let seq = self.snd_nxt;
            self.send_segment(now, seq, len, is_retx, out);
            self.snd_nxt += len;
            if self.snd_nxt.after(self.snd_max) {
                self.snd_max = self.snd_nxt;
            }
        }
        // All data sent: emit FIN if the application is closing.
        let closing = match self.role {
            Role::ActiveSender { .. } => true,
            Role::PassiveReceiver => self.want_close,
        };
        if all_data_sent
            && closing
            && !self.our_fin_sent
            && self.pause_boundary.is_none()
            && self.snd_nxt == data_end
        {
            let in_flight = (self.snd_nxt - self.snd_una).max(0) as u64;
            if in_flight < wnd || wnd == 0 {
                self.send_segment(now, data_end, 0, false, out);
                self.our_fin_sent = true;
                self.snd_nxt += 1;
                if self.snd_nxt.after(self.snd_max) {
                    self.snd_max = self.snd_nxt;
                }
            }
        }
        self.manage_persist(now);
    }

    /// `true` when data is pending but the offered window is too small to
    /// send any of it and (at most probe bytes) are outstanding — the
    /// condition under which BSD's tcp_output hands the connection to the
    /// persist timer.
    fn window_stuck(&self) -> bool {
        let rem = (self.data_end() - self.snd_nxt).max(0) as u64;
        if rem == 0 {
            return false;
        }
        let in_flight = (self.snd_nxt - self.snd_una).max(0) as u64;
        let needed = u64::from(self.eff_mss).min(rem);
        let wnd = self.usable_window();
        wnd.saturating_sub(in_flight) < needed && in_flight <= 4
    }

    fn manage_persist(&mut self, now: Time) {
        if self.window_stuck() {
            if self.persist_deadline.is_none() {
                self.persist_deadline = Some(now + self.persist_backoff);
            }
        } else {
            self.persist_deadline = None;
            self.persist_backoff = PERSIST_INITIAL;
        }
    }

    /// Retransmits starting at `snd_una`: one segment, or — under the
    /// Linux 1.0 bug — everything in flight as a single burst (§8.5).
    fn retransmit(&mut self, now: Time, burst: bool, out: &mut Vec<Packet>) {
        let data_end = self.data_end();
        let mut seq = self.snd_una;
        loop {
            if seq == data_end && self.our_fin_sent {
                self.send_segment(now, seq, 0, true, out);
                seq += 1;
            } else {
                let rem = (data_end - seq).max(0) as u32;
                if rem == 0 {
                    break;
                }
                let len = self.eff_mss.min(rem);
                self.send_segment(now, seq, len, true, out);
                seq += len;
            }
            if !burst || seq.at_or_after(self.snd_max) {
                break;
            }
        }
        // Karn: the timed segment is being retransmitted; discard the
        // pending measurement if it falls in the re-sent range.
        if let Some((timed_hi, _)) = self.rtt_timing {
            if timed_hi.after(self.snd_una) && timed_hi.at_or_before(seq) {
                self.rtt_timing = None;
            }
        }
        if !burst {
            // Go-back-N: continue from just after the retransmitted piece.
            self.snd_nxt = seq;
        }
    }

    /// Persist timer fired: send a one-byte window probe into the closed
    /// window and back the timer off.
    fn on_persist_timeout(&mut self, now: Time, out: &mut Vec<Packet>) {
        self.persist_deadline = None;
        if self.state != State::Established || !self.window_stuck() {
            return;
        }
        let seq = self.snd_nxt;
        self.send_segment(now, seq, 1, false, out);
        self.stats.zero_window_probes += 1;
        self.snd_nxt += 1;
        if self.snd_nxt.after(self.snd_max) {
            self.snd_max = self.snd_nxt;
        }
        self.persist_backoff = (self.persist_backoff * 2).min(PERSIST_MAX);
        self.persist_deadline = Some(now + self.persist_backoff);
    }

    /// Sends a keep-alive probe: a zero-length segment one byte *below*
    /// the expected sequence, provoking a duplicate ack from a live peer
    /// (the classic BSD garbage-probe).
    fn on_keepalive(&mut self, _now: Time, out: &mut Vec<Packet>) {
        self.keepalive_deadline = None;
        if self.state != State::Established {
            return;
        }
        let mut t = self.base_tcp();
        t.seq = self.snd_una - 1;
        t.ack = self.rcv_nxt;
        t.flags = TcpFlags::ACK;
        let pkt = self.mk_packet(t, 0);
        out.push(pkt);
        self.stats.keepalives_sent += 1;
    }

    fn arm_keepalive(&mut self) {
        if let Some(interval) = self.cfg.keepalive_interval {
            if self.state == State::Established {
                self.keepalive_deadline = Some(self.last_activity + interval);
            }
        }
    }

    fn on_rtx_timeout(&mut self, now: Time, out: &mut Vec<Packet>) {
        if self.snd_una == self.snd_max {
            self.rtx_deadline = None;
            return;
        }
        if self.window_stuck() {
            // Only probe bytes are outstanding against a too-small window;
            // the persist timer owns them.
            self.rtx_deadline = None;
            return;
        }
        self.stats.timeouts += 1;
        self.consecutive_timeouts += 1;
        if self.consecutive_timeouts > self.cfg.max_retransmits {
            // Give up. A correct TCP tears the connection down with a
            // RST; [DJM97] found implementations that just go silent.
            if self.cfg.rst_on_give_up {
                let mut t = self.base_tcp();
                t.seq = self.snd_nxt;
                t.ack = self.rcv_nxt;
                t.flags = TcpFlags::RST | TcpFlags::ACK;
                let pkt = self.mk_packet(t, 0);
                out.push(pkt);
                self.stats.rsts_sent += 1;
            }
            self.state = State::Failed;
            self.rtx_deadline = None;
            self.persist_deadline = None;
            self.delack_deadline = None;
            return;
        }
        self.rtt.on_timeout();
        let flight = self.usable_window().max(u64::from(self.cwnd_mss));
        self.cc.on_timeout(&self.cfg, self.cwnd_mss, flight);
        self.rtx_deadline = None; // send_segment re-arms
        self.retransmit(now, self.cfg.burst_retransmit, out);
        self.rtx_deadline = Some(now + self.rtt.rto());
    }

    fn process_ack(&mut self, now: Time, tcp: &TcpRepr, payload_len: u32, out: &mut Vec<Packet>) {
        let ack = tcp.ack;
        if ack.after(self.snd_max) {
            return; // acks data never sent: ignore
        }
        if ack.after(self.snd_una) {
            let newly = (ack - self.snd_una) as u64;
            self.stats.bytes_acked += newly;
            let ambiguous = self.any_retransmitted && ack.at_or_before(self.retx_high);
            if ambiguous {
                self.rtt.on_ack_of_retransmitted();
            } else {
                self.rtt.on_clean_ack();
            }
            if let Some((timed_hi, t0)) = self.rtt_timing {
                if ack.at_or_after(timed_hi) {
                    let retransmitted =
                        self.any_retransmitted && timed_hi.at_or_before(self.retx_high);
                    if !retransmitted {
                        self.rtt.sample(now - t0);
                    }
                    self.rtt_timing = None;
                }
            }
            if self.cc.in_recovery {
                // Plain Reno: any ack of new data deflates and exits.
                self.cc.exit_recovery(&self.cfg, self.cwnd_mss);
            } else {
                self.cc.open_window(&self.cfg, self.cwnd_mss);
            }
            self.cc.dup_acks = 0;
            self.consecutive_timeouts = 0;
            self.snd_una = ack;
            if self.snd_nxt.before(self.snd_una) {
                self.snd_nxt = self.snd_una;
            }
            self.peer_window = u32::from(tcp.window);
            if self.our_fin_sent && ack == self.data_end() + 1 {
                self.our_fin_acked = true;
            }
            self.rtx_deadline = if self.snd_una == self.snd_max {
                None
            } else {
                Some(now + self.rtt.rto())
            };
            self.liberating_acks += 1;
            let period = u64::from(self.cfg.retransmit_after_ack_period);
            if period > 0
                && self.liberating_acks.is_multiple_of(period)
                && self.snd_una.before(self.snd_max)
                && self.snd_una.before(self.data_end())
            {
                // §8.6 Solaris oddity: burn this liberation on a needless
                // retransmission of the segment just above the ack. The
                // congestion state is deliberately untouched.
                let rem = (self.data_end() - self.snd_una).max(0) as u32;
                let len = self.eff_mss.min(rem);
                let seq = self.snd_una;
                self.send_segment(now, seq, len, true, out);
                return;
            }
            self.try_output(now, out);
        } else if ack == self.snd_una {
            let window_changed = u32::from(tcp.window) != self.peer_window;
            let outstanding = self.snd_una.before(self.snd_max);
            let is_dup = payload_len == 0
                && !tcp.flags.syn()
                && !tcp.flags.fin()
                && !window_changed
                && outstanding;
            if !is_dup {
                self.peer_window = u32::from(tcp.window);
                self.try_output(now, out);
                return;
            }
            self.cc.dup_acks += 1;
            if self.cfg.dupack_updates_cwnd {
                // §8.3 rarely-manifested bug.
                self.cc.open_window(&self.cfg, self.cwnd_mss);
            }
            if self.cfg.retransmit_on_first_dupack && self.cc.dup_acks == 1 {
                // §8.5 Linux 1.0: "apparently spurs the TCP to retransmit
                // every packet it has in flight" — without cutting cwnd
                // (the figure's caption notes that a proper cut would have
                // prevented the following flood).
                self.retransmit(now, self.cfg.burst_retransmit, out);
                if self.cfg.burst_retransmit {
                    self.snd_nxt = self.snd_max;
                }
                return;
            }
            if self.cfg.fast_retransmit && self.cc.dup_acks == self.cfg.dupack_threshold {
                self.stats.fast_retransmits += 1;
                let flight = self.usable_window().max(u64::from(self.cwnd_mss));
                let entered =
                    self.cc
                        .enter_fast_retransmit(&self.cfg, self.cwnd_mss, flight, self.snd_max);
                self.retransmit(now, false, out);
                if entered {
                    // Reno keeps snd_nxt where it was.
                    self.snd_nxt = self.snd_max;
                } // Tahoe: retransmit() left snd_nxt just past the re-sent
                  // segment; slow start refills from there.
                self.rtx_deadline = Some(now + self.rtt.rto());
                return;
            }
            if self.cc.in_recovery && self.cc.dup_acks > self.cfg.dupack_threshold {
                self.cc.recovery_inflate(self.cwnd_mss);
                self.try_output(now, out);
            }
        }
        // ack before snd_una: old duplicate; nothing to do.
    }

    // ------------------------------------------------------------------
    // Receiver machinery
    // ------------------------------------------------------------------

    fn offered_window(&self) -> u32 {
        // Out-of-order data in the reassembly queue is deliberately NOT
        // subtracted: the advertised window tracks in-sequence buffer
        // space, so duplicate acks are bit-identical — which is exactly
        // what the peer's fast-retransmit dup-ack test ("no data, window
        // unchanged") requires.
        let base = if self.cfg.recv_window_schedule.is_empty() {
            self.cfg.recv_window
        } else {
            let idx = self
                .acks_sent_idx
                .min(self.cfg.recv_window_schedule.len() - 1);
            self.cfg.recv_window_schedule[idx]
        };
        // A slow application leaves data sitting in the socket buffer,
        // shrinking what can be advertised — down to a closed window.
        let backlog = u32::try_from(self.unconsumed).unwrap_or(u32::MAX);
        base.saturating_sub(backlog).min(65_535)
    }

    /// Advances the application's reads and, when the window has reopened
    /// substantially since we last advertised it, emits a window update
    /// (the receiver-side half of zero-window probing).
    fn consume(&mut self, now: Time, out: &mut Vec<Packet>) {
        let Some(rate) = self.cfg.app_read_rate else {
            return;
        };
        let elapsed = now - self.last_consume;
        if elapsed.as_nanos() <= 0 {
            return;
        }
        let bytes = (elapsed.as_nanos() as u128 * rate as u128 / 1_000_000_000) as u64;
        if bytes == 0 {
            return;
        }
        self.last_consume = now;
        self.unconsumed = self.unconsumed.saturating_sub(bytes);
        // BSD window-update duty: advertise when the window has opened by
        // two segments or half the buffer since the last advertisement.
        let now_win = self.offered_window();
        let opened = now_win.saturating_sub(self.last_advertised_win);
        let threshold = (2 * self.rcv_seg()).min(self.cfg.recv_window / 2).max(1);
        if self.state == State::Established && opened >= threshold {
            self.send_ack(out);
            self.stats.window_updates_sent += 1;
        }
    }

    /// When the app is a slow reader, the engine must wake us to consume
    /// and re-advertise.
    fn next_consume_wakeup(&self) -> Option<Time> {
        let rate = self.cfg.app_read_rate?;
        if self.unconsumed == 0 || rate == 0 {
            return None;
        }
        // Wake when roughly two segments' worth will have drained.
        let target = u64::from(2 * self.rcv_seg()).min(self.unconsumed).max(1);
        let nanos = (target as u128 * 1_000_000_000 / rate as u128) as i64;
        Some(self.last_consume + Duration(nanos.max(1_000_000)))
    }

    /// Receiver's segment-size yardstick for the every-two-segments rule.
    fn rcv_seg(&self) -> u32 {
        self.cfg.effective_send_mss(self.peer_mss)
    }

    fn insert_ooo(&mut self, seq: SeqNum, len: u32) {
        // Store, merge overlaps, keep sorted by wrap ordering.
        self.ooo.push((seq, len));
        self.ooo.sort_by(|a, b| {
            if a.0.before(b.0) {
                core::cmp::Ordering::Less
            } else if a.0 == b.0 {
                core::cmp::Ordering::Equal
            } else {
                core::cmp::Ordering::Greater
            }
        });
        let mut merged: Vec<(SeqNum, u32)> = Vec::with_capacity(self.ooo.len());
        for &(seq, len) in &self.ooo {
            if let Some(last) = merged.last_mut() {
                let last_end = last.0 + last.1;
                if seq.at_or_before(last_end) {
                    let end = seq + len;
                    if end.after(last_end) {
                        last.1 = (end - last.0) as u32;
                    }
                    continue;
                }
            }
            merged.push((seq, len));
        }
        self.ooo = merged;
    }

    /// Advances `rcv_nxt` over any out-of-order data that now fits.
    /// Returns `true` if a hole was filled from the reassembly queue.
    fn drain_ooo(&mut self) -> bool {
        let mut filled = false;
        while let Some(&(seq, len)) = self.ooo.first() {
            if seq.at_or_before(self.rcv_nxt) {
                let end = seq + len;
                if end.after(self.rcv_nxt) {
                    self.rcv_nxt = end;
                    filled = true;
                }
                self.ooo.remove(0);
            } else {
                break;
            }
        }
        filled
    }

    fn arm_delayed_ack(&mut self, now: Time) {
        match self.cfg.ack_policy {
            AckPolicy::Heartbeat { interval } => {
                if self.delack_deadline.is_none() {
                    let t = interval.as_nanos();
                    let next = (now.as_nanos() / t + 1) * t;
                    self.delack_deadline = Some(Time(next));
                }
            }
            AckPolicy::PerPacketTimer { delay } => {
                // Scheduled upon the arrival of each packet (§9.1).
                self.delack_deadline = Some(now + delay);
            }
            AckPolicy::EveryPacket => unreachable!("EveryPacket never delays"),
        }
    }

    fn process_data(&mut self, now: Time, tcp: &TcpRepr, payload_len: u32, out: &mut Vec<Packet>) {
        let seq = tcp.seq;
        let fin = tcp.flags.fin();
        if payload_len > 0 {
            self.stats.data_packets_received += 1;
        }
        let seq_end = seq + payload_len + u32::from(fin);

        if seq_end.at_or_before(self.rcv_nxt) {
            // Entirely old data (a needless retransmission): mandatory
            // duplicate ack (§7).
            self.send_ack(out);
            return;
        }
        // Data beyond the advertised window — e.g. a zero-window probe —
        // is discarded; the mandatory ack restates the current window.
        let acceptable_hi = self.rcv_nxt + self.offered_window();
        if seq_end.after(acceptable_hi) {
            self.stats.window_rejected += 1;
            self.send_ack(out);
            return;
        }
        if seq.after(self.rcv_nxt) {
            // Above a sequence hole: buffer and send a mandatory dup ack.
            if payload_len > 0 {
                self.insert_ooo(seq, payload_len);
            }
            // (A FIN above a hole is reprocessed when retransmitted.)
            self.send_ack(out);
            return;
        }

        // In sequence (possibly overlapping the left edge).
        let new_hi = seq + payload_len;
        if new_hi.after(self.rcv_nxt) {
            let fresh = (new_hi - self.rcv_nxt) as u32;
            self.ack_pending_bytes += fresh;
            if self.cfg.app_read_rate.is_some() {
                self.unconsumed += u64::from(fresh);
            }
            self.rcv_nxt = new_hi;
        }
        let filled_hole = self.drain_ooo();
        if fin && (seq + payload_len).at_or_before(self.rcv_nxt) && !self.peer_fin_received {
            // FIN is in order once all its data is consumed.
            if self.ooo.is_empty() && (seq + payload_len) == self.rcv_nxt {
                self.rcv_nxt += 1;
                self.peer_fin_received = true;
            }
        }

        if self.peer_fin_received && matches!(self.role, Role::PassiveReceiver) {
            // Application closes in turn.
            self.want_close = true;
        }

        let gratuitous =
            self.cfg.gratuitous_ack_bug && self.stats.data_packets_received.is_multiple_of(32);

        if self.peer_fin_received || filled_hole {
            // Mandatory: ack the FIN / the newly completed sequence run.
            self.send_ack(out);
        } else {
            let in_initial_phase =
                self.stats.data_packets_received <= u64::from(self.cfg.initial_ack_every_packet);
            let every_packet = matches!(self.cfg.ack_policy, AckPolicy::EveryPacket);
            let threshold = self.cfg.ack_every_n * self.rcv_seg();
            if every_packet || in_initial_phase || self.ack_pending_bytes >= threshold {
                self.send_ack(out);
            } else if self.ack_pending_bytes > 0 {
                self.arm_delayed_ack(now);
            }
        }
        if gratuitous {
            // §8.6: the Solaris 2.3 acking-policy bug — an extra ack with
            // no obligation behind it.
            self.send_ack(out);
        }

        // Sending our own FIN (passive close) rides the normal path.
        self.try_output(now, out);
    }

    // ------------------------------------------------------------------
    // Establishment
    // ------------------------------------------------------------------

    fn establish(&mut self) {
        self.eff_mss = self.cfg.effective_send_mss(self.peer_mss);
        self.cwnd_mss = self.cfg.cwnd_mss(self.peer_mss);
        self.cc = CcState::at_establishment(&self.cfg, self.cwnd_mss, self.peer_sent_mss);
        self.snd_una = self.iss + 1;
        self.snd_nxt = self.snd_una;
        self.snd_max = self.snd_una;
        self.retx_high = self.snd_una;
        self.state = State::Established;
        self.syn_deadline = None;
    }

    fn handle_segment(&mut self, now: Time, tcp: TcpRepr, payload_len: u32, out: &mut Vec<Packet>) {
        match self.state {
            State::Closed | State::Failed => {}
            State::SynSent => {
                if tcp.flags.syn() && tcp.flags.ack() && tcp.ack == self.iss + 1 {
                    self.irs = tcp.seq;
                    self.rcv_nxt = self.irs + 1;
                    self.peer_mss = tcp.mss;
                    self.peer_sent_mss = self.peer_mss.is_some();
                    self.peer_window = u32::from(tcp.window);
                    self.establish();
                    self.send_ack(out);
                    self.try_output(now, out);
                }
            }
            State::Listen => {
                if tcp.flags.syn() && !tcp.flags.ack() {
                    self.irs = tcp.seq;
                    self.rcv_nxt = self.irs + 1;
                    self.peer_mss = tcp.mss;
                    self.peer_sent_mss = self.peer_mss.is_some();
                    self.peer_window = u32::from(tcp.window);
                    self.state = State::SynRcvd;
                    self.send_syn_ack(out);
                    self.syn_deadline = Some(now + self.cfg.syn_rto);
                }
            }
            State::SynRcvd => {
                if tcp.flags.syn() && !tcp.flags.ack() {
                    // Duplicate SYN: repeat the SYN-ack.
                    self.send_syn_ack(out);
                    return;
                }
                if tcp.flags.ack() && tcp.ack == self.iss + 1 {
                    self.establish();
                    if payload_len > 0 || tcp.flags.fin() {
                        self.process_data(now, &tcp, payload_len, out);
                    }
                }
            }
            State::Established => {
                if tcp.flags.rst() {
                    // Peer tore the connection down.
                    self.state = State::Failed;
                    self.rtx_deadline = None;
                    self.persist_deadline = None;
                    self.delack_deadline = None;
                    return;
                }
                if tcp.flags.syn() && tcp.flags.ack() {
                    // Duplicate SYN-ack: re-ack it.
                    self.send_ack(out);
                    return;
                }
                if tcp.flags.ack() {
                    self.process_ack(now, &tcp, payload_len, out);
                }
                if payload_len > 0 || tcp.flags.fin() {
                    self.process_data(now, &tcp, payload_len, out);
                }
            }
        }
    }

    fn on_syn_timeout(&mut self, now: Time, out: &mut Vec<Packet>) {
        self.syn_retries += 1;
        if self.syn_retries > 5 {
            self.state = State::Failed;
            self.syn_deadline = None;
            return;
        }
        let backoff = if self.cfg.syn_backoff_flat {
            // §2 ([St96]): "some remote TCPs did not correctly back off
            // their connection-establishment retry timer".
            self.cfg.syn_rto
        } else {
            self.cfg.syn_rto * (1 << self.syn_retries.min(4))
        };
        match self.state {
            State::SynSent => {
                self.send_syn(out);
                self.syn_deadline = Some(now + backoff);
            }
            State::SynRcvd => {
                self.send_syn_ack(out);
                self.syn_deadline = Some(now + backoff);
            }
            _ => self.syn_deadline = None,
        }
    }
}

impl Stack for TcpEndpoint {
    fn start(&mut self, now: Time, out: &mut Vec<Packet>) {
        if matches!(self.role, Role::ActiveSender { .. }) {
            self.state = State::SynSent;
            self.send_syn(out);
            self.syn_deadline = Some(now + self.cfg.syn_rto);
        }
    }

    fn on_packet(&mut self, now: Time, pkt: Packet, out: &mut Vec<Packet>) {
        self.consume(now, out);
        self.last_activity = now;
        self.arm_keepalive();
        match pkt.kind {
            PacketKind::SourceQuench => {
                self.stats.quenches_received += 1;
                if self.state == State::Established {
                    self.cc.on_quench(&self.cfg, self.cwnd_mss);
                }
            }
            PacketKind::Tcp {
                tcp,
                payload_len,
                corrupt,
            } => {
                if corrupt {
                    // The checksum fails; the segment is discarded before
                    // TCP sees it (§7).
                    self.stats.corrupt_discarded += 1;
                    return;
                }
                self.handle_segment(now, tcp, payload_len, out);
            }
        }
    }

    fn on_timer(&mut self, now: Time, out: &mut Vec<Packet>) {
        self.consume(now, out);
        if let Some(t) = self.syn_deadline {
            if t <= now {
                self.on_syn_timeout(now, out);
            }
        }
        if let Some(t) = self.persist_deadline {
            if t <= now {
                self.on_persist_timeout(now, out);
            }
        }
        if let Some(t) = self.rtx_deadline {
            if t <= now {
                self.on_rtx_timeout(now, out);
            }
        }
        if let Some(t) = self.delack_deadline {
            if t <= now {
                self.delack_deadline = None;
                if self.ack_pending_bytes > 0 {
                    self.send_ack(out);
                }
            }
        }
        if let Some(t) = self.pause_until {
            if t <= now {
                // The application resumed writing.
                self.pause_boundary = None;
                self.pause_until = None;
                self.try_output(now, out);
            }
        }
        if let Some(t) = self.keepalive_deadline {
            if t <= now {
                self.on_keepalive(now, out);
            }
        }
        if !out.is_empty() {
            self.last_activity = now;
        }
        self.arm_keepalive();
    }

    fn next_timer(&self) -> Option<Time> {
        [
            self.syn_deadline,
            self.rtx_deadline,
            self.delack_deadline,
            self.persist_deadline,
            self.pause_until,
            self.keepalive_deadline,
            self.next_consume_wakeup(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn done(&self) -> bool {
        match self.state {
            State::Failed => true,
            State::Established => self.our_fin_acked && self.peer_fin_received,
            _ => false,
        }
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
}
