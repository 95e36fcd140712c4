//! Direct unit tests of the endpoint state machine: drive the [`Stack`]
//! interface by hand, packet by packet, without the network simulator.

use tcpa_netsim::{Packet, PacketKind, Stack};
use tcpa_tcpsim::profiles;
use tcpa_tcpsim::{Role, TcpEndpoint};
use tcpa_trace::{Duration, Time};
use tcpa_wire::{Ipv4Addr, SeqNum, TcpFlags, TcpRepr};

const A: Ipv4Addr = Ipv4Addr::from_host_id(1);
const B: Ipv4Addr = Ipv4Addr::from_host_id(2);

fn sender(bytes: u64) -> TcpEndpoint {
    TcpEndpoint::new(
        profiles::reno(),
        A,
        1000,
        B,
        2000,
        Role::ActiveSender { total_bytes: bytes },
    )
}

fn receiver() -> TcpEndpoint {
    TcpEndpoint::new(profiles::reno(), B, 2000, A, 1000, Role::PassiveReceiver)
}

/// Extracts (tcp, payload_len) from an emitted packet.
fn tcp_of(pkt: &Packet) -> (&TcpRepr, u32) {
    match &pkt.kind {
        PacketKind::Tcp {
            tcp, payload_len, ..
        } => (tcp, *payload_len),
        _ => panic!("expected TCP"),
    }
}

/// Builds a reply packet from `from` to the endpoint under test.
fn mk(from: Ipv4Addr, to: Ipv4Addr, tcp: TcpRepr, len: u32) -> Packet {
    Packet::tcp(from, to, 0, tcp, len)
}

#[test]
fn active_open_emits_syn_with_mss() {
    let mut s = sender(1000);
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    assert_eq!(out.len(), 1);
    let (tcp, len) = tcp_of(&out[0]);
    assert!(tcp.flags.syn() && !tcp.flags.ack());
    assert_eq!(len, 0);
    assert_eq!(tcp.mss, Some(1460));
    assert!(!s.established());
}

#[test]
fn handshake_completes_and_data_flows() {
    let mut s = sender(2920);
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let (syn, _) = tcp_of(&out[0]);
    let iss = syn.seq;

    // SYN-ack from the peer.
    let mut synack = TcpRepr::new(2000, 1000);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.seq = SeqNum(5000);
    synack.ack = iss + 1;
    synack.window = 16_384;
    synack.mss = Some(1460);
    let mut out = Vec::new();
    s.on_packet(Time::from_millis(50), mk(B, A, synack, 0), &mut out);
    assert!(s.established());
    // Handshake ack plus the first data segment (cwnd = 1 MSS).
    assert_eq!(out.len(), 2);
    let (ack, len0) = tcp_of(&out[0]);
    assert!(ack.flags.ack() && !ack.flags.syn());
    assert_eq!(len0, 0);
    let (data, len1) = tcp_of(&out[1]);
    assert_eq!(data.seq, iss + 1);
    assert_eq!(len1, 1460);
}

#[test]
fn passive_open_replies_syn_ack_and_repeats_on_dup_syn() {
    let mut r = receiver();
    let mut syn = TcpRepr::new(1000, 2000);
    syn.flags = TcpFlags::SYN;
    syn.seq = SeqNum(100);
    syn.mss = Some(1460);
    let mut out = Vec::new();
    r.on_packet(Time::ZERO, mk(A, B, syn, 0), &mut out);
    assert_eq!(out.len(), 1);
    let (synack, _) = tcp_of(&out[0]);
    assert!(synack.flags.syn() && synack.flags.ack());
    assert_eq!(synack.ack, SeqNum(101));

    // A duplicated SYN must elicit the same SYN-ack again, not confusion.
    let mut out = Vec::new();
    r.on_packet(Time::from_millis(10), mk(A, B, syn, 0), &mut out);
    assert_eq!(out.len(), 1);
    let (synack2, _) = tcp_of(&out[0]);
    assert!(synack2.flags.syn() && synack2.flags.ack());
}

#[test]
fn syn_timer_retries_and_eventually_fails() {
    let mut s = sender(1000);
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let mut syns = 1;
    // Never answer; pump the timer until the endpoint gives up.
    for _ in 0..10 {
        let Some(t) = s.next_timer() else { break };
        let mut out = Vec::new();
        s.on_timer(t, &mut out);
        syns += out.iter().filter(|p| tcp_of(p).0.flags.syn()).count();
    }
    assert!(s.failed(), "connection attempt must give up");
    assert!(s.done());
    assert!((4..=7).contains(&syns), "bounded retries, got {syns} SYNs");
}

#[test]
fn corrupt_segment_discarded_without_ack() {
    let mut r = receiver();
    // Establish.
    let mut syn = TcpRepr::new(1000, 2000);
    syn.flags = TcpFlags::SYN;
    syn.seq = SeqNum(100);
    let mut out = Vec::new();
    r.on_packet(Time::ZERO, mk(A, B, syn, 0), &mut out);
    let mut ack = TcpRepr::new(1000, 2000);
    ack.flags = TcpFlags::ACK;
    ack.seq = SeqNum(101);
    let (synack, _) = tcp_of(&out[0]);
    ack.ack = synack.seq + 1;
    let mut out = Vec::new();
    r.on_packet(Time::from_millis(1), mk(A, B, ack, 0), &mut out);
    assert!(r.established());

    // A corrupt data segment arrives: silence.
    let mut data = TcpRepr::new(1000, 2000);
    data.flags = TcpFlags::ACK;
    data.seq = SeqNum(101);
    let mut pkt = mk(A, B, data, 512);
    if let PacketKind::Tcp { corrupt, .. } = &mut pkt.kind {
        *corrupt = true;
    }
    let mut out = Vec::new();
    r.on_packet(Time::from_millis(5), pkt, &mut out);
    assert!(out.is_empty(), "checksum failure: dropped before TCP");
    assert_eq!(r.stats.corrupt_discarded, 1);
    assert_eq!(r.stats.data_packets_received, 0);
}

#[test]
fn ip_ident_increments_per_packet() {
    let mut s = sender(8 * 1460);
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let mut idents = vec![out[0].ident];
    let (syn, _) = tcp_of(&out[0]);
    let iss = syn.seq;
    let mut synack = TcpRepr::new(2000, 1000);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.seq = SeqNum(9000);
    synack.ack = iss + 1;
    synack.window = 65_535;
    synack.mss = Some(1460);
    let mut out = Vec::new();
    s.on_packet(Time::from_millis(10), mk(B, A, synack, 0), &mut out);
    idents.extend(out.iter().map(|p| p.ident));
    assert!(
        idents.windows(2).all(|w| w[1] == w[0] + 1),
        "monotone ident counter: {idents:?}"
    );
}

#[test]
fn delayed_ack_waits_for_heartbeat() {
    let mut r = receiver();
    let mut syn = TcpRepr::new(1000, 2000);
    syn.flags = TcpFlags::SYN;
    syn.seq = SeqNum(100);
    syn.mss = Some(1460);
    let mut out = Vec::new();
    r.on_packet(Time::ZERO, mk(A, B, syn, 0), &mut out);
    let (synack, _) = tcp_of(&out[0]);
    let mut ack = TcpRepr::new(1000, 2000);
    ack.flags = TcpFlags::ACK;
    ack.seq = SeqNum(101);
    ack.ack = synack.seq + 1;
    let mut out = Vec::new();
    r.on_packet(Time::from_millis(1), mk(A, B, ack, 0), &mut out);

    // One lone segment arrives mid-heartbeat-interval.
    let mut data = TcpRepr::new(1000, 2000);
    data.flags = TcpFlags::ACK;
    data.seq = SeqNum(101);
    data.ack = synack.seq + 1;
    let mut out = Vec::new();
    r.on_packet(Time::from_millis(250), mk(A, B, data, 1460), &mut out);
    assert!(out.is_empty(), "single segment: ack is delayed");
    // The delayed-ack timer is the next heartbeat boundary (400 ms).
    let t = r.next_timer().expect("delack armed");
    assert_eq!(t, Time::from_millis(400));
    let mut out = Vec::new();
    r.on_timer(t, &mut out);
    assert_eq!(out.len(), 1);
    let (dack, _) = tcp_of(&out[0]);
    assert_eq!(dack.ack, SeqNum(101 + 1460));
}

#[test]
fn fin_retransmitted_when_unacked() {
    let mut s = sender(0); // empty transfer: SYN, then FIN immediately
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let (syn, _) = tcp_of(&out[0]);
    let iss = syn.seq;
    let mut synack = TcpRepr::new(2000, 1000);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.seq = SeqNum(7000);
    synack.ack = iss + 1;
    synack.window = 16_384;
    synack.mss = Some(1460);
    let mut out = Vec::new();
    s.on_packet(Time::from_millis(10), mk(B, A, synack, 0), &mut out);
    let fin = out
        .iter()
        .find(|p| tcp_of(p).0.flags.fin())
        .expect("FIN emitted at once for an empty transfer");
    let (fin_tcp, _) = tcp_of(fin);
    assert_eq!(fin_tcp.seq, iss + 1);

    // Never ack it; the retransmission timer must re-send the FIN.
    let t = s.next_timer().expect("rtx timer armed for the FIN");
    assert!(t - Time::from_millis(10) >= Duration::from_secs(1));
    let mut out = Vec::new();
    s.on_timer(t, &mut out);
    assert_eq!(out.len(), 1);
    assert!(tcp_of(&out[0]).0.flags.fin(), "FIN retransmitted");
    assert_eq!(s.stats.retransmissions, 1);
}

#[test]
fn source_quench_collapses_cwnd() {
    let mut s = sender(65_536);
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let (syn, _) = tcp_of(&out[0]);
    let iss = syn.seq;
    let mut synack = TcpRepr::new(2000, 1000);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.seq = SeqNum(7000);
    synack.ack = iss + 1;
    synack.window = 65_535;
    synack.mss = Some(1460);
    let mut out = Vec::new();
    s.on_packet(Time::from_millis(10), mk(B, A, synack, 0), &mut out);
    // Grow the window with a few acks.
    let mut una = iss + 1;
    for k in 0..3 {
        una += 1460;
        let mut ack = TcpRepr::new(2000, 1000);
        ack.flags = TcpFlags::ACK;
        ack.seq = SeqNum(7001);
        ack.ack = una;
        ack.window = 65_535;
        let mut out = Vec::new();
        s.on_packet(Time::from_millis(100 + k), mk(B, A, ack, 0), &mut out);
    }
    let before = s.cc().cwnd;
    assert!(before > 1460);
    let mut out = Vec::new();
    s.on_packet(
        Time::from_millis(200),
        Packet::source_quench(Ipv4Addr::new(10, 0, 0, 1), A),
        &mut out,
    );
    assert_eq!(s.cc().cwnd, 1460, "BSD quench response: slow start");
    assert_eq!(s.stats.quenches_received, 1);
}

#[test]
fn give_up_sends_rst_after_max_retransmits() {
    let mut cfg = profiles::reno();
    cfg.max_retransmits = 3;
    let mut s = TcpEndpoint::new(
        cfg,
        A,
        1000,
        B,
        2000,
        Role::ActiveSender { total_bytes: 4096 },
    );
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let (syn, _) = tcp_of(&out[0]);
    let iss = syn.seq;
    let mut synack = TcpRepr::new(2000, 1000);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.seq = SeqNum(7000);
    synack.ack = iss + 1;
    synack.window = 16_384;
    synack.mss = Some(1460);
    let mut out = Vec::new();
    s.on_packet(Time::from_millis(10), mk(B, A, synack, 0), &mut out);
    assert!(s.established());

    // Never ack anything: pump the retransmission timer until give-up.
    let mut rst_seen = false;
    for _ in 0..12 {
        let Some(t) = s.next_timer() else { break };
        let mut out = Vec::new();
        s.on_timer(t, &mut out);
        rst_seen |= out.iter().any(|p| tcp_of(p).0.flags.rst());
    }
    assert!(s.failed(), "connection must be abandoned");
    assert!(rst_seen, "a correct TCP announces the abort with a RST");
    assert_eq!(s.stats.rsts_sent, 1);
    assert_eq!(s.stats.timeouts, 4, "3 retries + the give-up firing");
}

#[test]
fn broken_tcp_goes_silent_instead_of_rst() {
    // The [DJM97] finding: no RST on give-up.
    let mut cfg = profiles::reno();
    cfg.max_retransmits = 2;
    cfg.rst_on_give_up = false;
    let mut s = TcpEndpoint::new(
        cfg,
        A,
        1000,
        B,
        2000,
        Role::ActiveSender { total_bytes: 4096 },
    );
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let (syn, _) = tcp_of(&out[0]);
    let iss = syn.seq;
    let mut synack = TcpRepr::new(2000, 1000);
    synack.flags = TcpFlags::SYN | TcpFlags::ACK;
    synack.seq = SeqNum(7000);
    synack.ack = iss + 1;
    synack.window = 16_384;
    synack.mss = Some(1460);
    let mut out = Vec::new();
    s.on_packet(Time::from_millis(10), mk(B, A, synack, 0), &mut out);
    for _ in 0..12 {
        let Some(t) = s.next_timer() else { break };
        let mut out = Vec::new();
        s.on_timer(t, &mut out);
        assert!(
            out.iter().all(|p| !tcp_of(p).0.flags.rst()),
            "this TCP never says goodbye"
        );
    }
    assert!(s.failed());
    assert_eq!(s.stats.rsts_sent, 0);
}

#[test]
fn receiver_tears_down_on_rst() {
    let mut r = receiver();
    let mut syn = TcpRepr::new(1000, 2000);
    syn.flags = TcpFlags::SYN;
    syn.seq = SeqNum(100);
    let mut out = Vec::new();
    r.on_packet(Time::ZERO, mk(A, B, syn, 0), &mut out);
    let (synack, _) = tcp_of(&out[0]);
    let mut ack = TcpRepr::new(1000, 2000);
    ack.flags = TcpFlags::ACK;
    ack.seq = SeqNum(101);
    ack.ack = synack.seq + 1;
    let mut out = Vec::new();
    r.on_packet(Time::from_millis(1), mk(A, B, ack, 0), &mut out);
    assert!(r.established());

    let mut rst = TcpRepr::new(1000, 2000);
    rst.flags = TcpFlags::RST | TcpFlags::ACK;
    rst.seq = SeqNum(101);
    let mut out = Vec::new();
    r.on_packet(Time::from_millis(5), mk(A, B, rst, 0), &mut out);
    assert!(out.is_empty());
    assert!(r.failed());
    assert!(r.done());
}
