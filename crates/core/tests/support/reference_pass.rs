//! The clone-based dedup and `BTreeMap` split that the owned calibration
//! pass replaced, kept as the reference the owned pass must reproduce,
//! and the interleaved multi-connection traces both are run on.

use tcpa_filter::{apply, FilterConfig};
use tcpa_netsim::{LossModel, TapEvent};
use tcpa_tcpsim::harness::{run_transfer, PathSpec, RECEIVER_ADDR};
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::{ConnKey, Connection, Dir, Duration, Endpoint, Time, Trace, TraceRecord};
use tcpa_wire::Ipv4Addr;
use tcpanaly::calibrate::{timing::detect_time_travel, Calibrated, DupRemoval, TimeTravel};
use tcpanaly::Analyzer;

/// How far apart two records may be and still count as filter copies of
/// one packet.
const DUP_WINDOW: tcpa_trace::Duration = tcpa_trace::Duration::from_millis(80);

/// Removes measurement duplicates, keeping the earlier copy of each pair.
pub fn remove_duplicates(trace: &Trace) -> (Trace, Vec<DupRemoval>) {
    let n = trace.len();
    let mut removed = vec![false; n];
    let mut removals = Vec::new();
    // Quadratic in the duplicate window, linear overall: the inner scan
    // stops at the first record more than DUP_WINDOW away. (Indexing
    // rather than iterators because both endpoints of the pair are
    // mutated in `removed`.)
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if removed[i] {
            continue;
        }
        let a = &trace.records[i];
        for j in (i + 1)..n {
            if removed[j] {
                continue;
            }
            let b = &trace.records[j];
            if time_gap(a.ts, b.ts) > DUP_WINDOW {
                break;
            }
            let same_packet = a.ip.ident == b.ip.ident
                && a.ip.src == b.ip.src
                && a.ip.dst == b.ip.dst
                && a.tcp.src_port == b.tcp.src_port
                && a.tcp.seq == b.tcp.seq
                && a.tcp.ack == b.tcp.ack
                && a.tcp.flags == b.tcp.flags
                && a.payload_len == b.payload_len;
            if same_packet {
                removed[j] = true;
                removals.push(DupRemoval {
                    kept_index: i,
                    removed_index: j,
                    spread: b.ts - a.ts,
                });
            }
        }
    }
    let clean = trace
        .records
        .iter()
        .enumerate()
        .filter(|(i, _)| !removed[*i])
        .map(|(_, r)| *r)
        .collect();
    (clean, removals)
}

fn time_gap(a: Time, b: Time) -> tcpa_trace::Duration {
    (b - a).abs()
}

/// Splits a trace into connections. The data sender of each connection
/// is the endpoint that shipped more payload bytes (ties go to the
/// SYN initiator, then to the canonical `a` endpoint).
pub fn split(trace: &Trace) -> Vec<Connection> {
    // Preserve first-seen order of connections.
    let mut order: Vec<ConnKey> = Vec::new();
    let mut groups: std::collections::BTreeMap<ConnKey, Vec<TraceRecord>> =
        std::collections::BTreeMap::new();
    for rec in trace.iter() {
        let key = ConnKey::of_record(rec);
        groups
            .entry(key)
            .or_insert_with(|| {
                order.push(key);
                Vec::new()
            })
            .push(*rec);
    }
    order
        .into_iter()
        .map(|key| orient(key, groups.remove(&key).unwrap_or_default()))
        .collect()
}

fn orient(key: ConnKey, records: Vec<TraceRecord>) -> Connection {
    let src_of = |rec: &TraceRecord| Endpoint {
        addr: rec.ip.src,
        port: rec.tcp.src_port,
    };
    let mut bytes_from_a: u64 = 0;
    let mut bytes_from_b: u64 = 0;
    let mut syn_initiator: Option<Endpoint> = None;
    for rec in &records {
        let src = src_of(rec);
        if rec.tcp.flags.syn() && !rec.tcp.flags.ack() && syn_initiator.is_none() {
            syn_initiator = Some(src);
        }
        if src == key.a {
            bytes_from_a += u64::from(rec.payload_len);
        } else {
            bytes_from_b += u64::from(rec.payload_len);
        }
    }
    let sender = match bytes_from_a.cmp(&bytes_from_b) {
        core::cmp::Ordering::Greater => key.a,
        core::cmp::Ordering::Less => key.b,
        core::cmp::Ordering::Equal => syn_initiator.unwrap_or(key.a),
    };
    let receiver = if sender == key.a { key.b } else { key.a };
    let records = records
        .into_iter()
        .map(|rec| {
            let dir = if src_of(&rec) == sender {
                Dir::SenderToReceiver
            } else {
                Dir::ReceiverToSender
            };
            (dir, rec)
        })
        .collect();
    Connection {
        key,
        sender,
        receiver,
        records,
    }
}

/// One simulated connection of an interleaved capture.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Index into `all_profiles()` (wrapped) of the data sender.
    pub profile: usize,
    /// Every how many data packets the path drops one, if it does.
    pub loss_every: Option<u64>,
    /// When the connection starts, relative to the capture.
    pub start_ms: i64,
}

/// The capture a filter of kind `filter` writes beside one receiver
/// serving each of `flows` to its own sender host, all at once. The
/// flows differ in the sender's address, so records of two of them never
/// share an address pair.
pub fn interleaved(flows: &[Flow], filter: &FilterConfig, seed: u64) -> Trace {
    let profiles = all_profiles();
    let mut events: Vec<TapEvent> = Vec::new();
    for (k, flow) in flows.iter().enumerate() {
        let cfg = profiles[flow.profile % profiles.len()].clone();
        let path = PathSpec {
            loss_data: flow.loss_every.map_or(LossModel::None, LossModel::Periodic),
            ..PathSpec::default()
        };
        let out = run_transfer(
            cfg,
            profiles[0].clone(),
            &path,
            64 * 1024,
            seed.wrapping_add(k as u64),
        );
        let host = Ipv4Addr::from_host_id(10 + k as u8);
        let shift = Duration::from_millis(flow.start_ms);
        for mut ev in out.sender_tap {
            if ev.pkt.src != RECEIVER_ADDR {
                ev.pkt.src = host;
            }
            if ev.pkt.dst != RECEIVER_ADDR {
                ev.pkt.dst = host;
            }
            ev.t_wire += shift;
            ev.t_stack = ev.t_stack.map(|t| t + shift);
            events.push(ev);
        }
    }
    events.sort_by_key(|ev| ev.t_wire);
    apply(&events, filter, seed).0
}

/// Calibrates `trace` through the owned pass and requires the reference
/// dedup, time-travel scan and split to agree with it exactly. Returns
/// the owned pass's result.
pub fn check_against_reference(label: &str, trace: &Trace) -> Calibrated {
    let calibrated = Analyzer::at_sender().calibrate(trace.clone());
    let (clean, duplicates) = remove_duplicates(trace);
    let time_travel = detect_time_travel(&clean);
    let connections = split(&clean);

    let removals = |list: &[DupRemoval]| -> Vec<(usize, usize, Duration)> {
        list.iter()
            .map(|d| (d.kept_index, d.removed_index, d.spread))
            .collect()
    };
    assert_eq!(
        removals(&calibrated.report.duplicates),
        removals(&duplicates),
        "{label}: duplicate removals"
    );
    let travel = |list: &[TimeTravel]| -> Vec<(usize, Duration)> {
        list.iter().map(|t| (t.index, t.magnitude)).collect()
    };
    assert_eq!(
        travel(&calibrated.report.time_travel),
        travel(&time_travel),
        "{label}: time travel"
    );
    assert_eq!(
        calibrated.connections.len(),
        connections.len(),
        "{label}: connection count"
    );
    for (i, (owned, reference)) in calibrated.connections.iter().zip(&connections).enumerate() {
        assert_eq!(owned.key, reference.key, "{label}: connection {i} key");
        assert_eq!(
            owned.sender, reference.sender,
            "{label}: connection {i} sender"
        );
        assert_eq!(
            owned.receiver, reference.receiver,
            "{label}: connection {i} receiver"
        );
        assert!(
            owned.records == reference.records,
            "{label}: connection {i} records"
        );
    }
    calibrated
}
