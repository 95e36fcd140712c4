//! Splitting a trace into connections and orienting packets.
//!
//! tcpanaly analyzes one bulk-transfer connection at a time, from the
//! perspective of the *data sender* and the *data receiver*. This module
//! groups a raw [`Trace`] by connection four-tuple and determines which
//! endpoint is the bulk-data source.

use crate::record::{Trace, TraceRecord};
use core::fmt;
use std::collections::BTreeMap;
use tcpa_wire::Ipv4Addr;

/// One endpoint of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// TCP port.
    pub port: u16,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// A direction within an oriented connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From the bulk-data sender towards the receiver.
    SenderToReceiver,
    /// From the receiver back towards the sender (acks).
    ReceiverToSender,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::SenderToReceiver => Dir::ReceiverToSender,
            Dir::ReceiverToSender => Dir::SenderToReceiver,
        }
    }
}

/// An unordered connection identifier (the four-tuple, canonicalized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    /// The lexicographically smaller endpoint.
    pub a: Endpoint,
    /// The lexicographically larger endpoint.
    pub b: Endpoint,
}

impl ConnKey {
    /// Builds a canonical key from the two endpoints of a packet.
    pub fn new(x: Endpoint, y: Endpoint) -> ConnKey {
        if x <= y {
            ConnKey { a: x, b: y }
        } else {
            ConnKey { a: y, b: x }
        }
    }

    /// The key for a record's four-tuple.
    pub fn of_record(rec: &TraceRecord) -> ConnKey {
        ConnKey::new(
            source(rec),
            Endpoint {
                addr: rec.ip.dst,
                port: rec.tcp.dst_port,
            },
        )
    }
}

/// The endpoint that sent a record.
fn source(rec: &TraceRecord) -> Endpoint {
    Endpoint {
        addr: rec.ip.src,
        port: rec.tcp.src_port,
    }
}

/// One connection's records, oriented sender → receiver.
#[derive(Debug, Clone)]
pub struct Connection {
    /// The canonical four-tuple.
    pub key: ConnKey,
    /// The bulk-data sender endpoint.
    pub sender: Endpoint,
    /// The bulk-data receiver endpoint.
    pub receiver: Endpoint,
    /// Records in filter order, tagged with their direction.
    pub records: Vec<(Dir, TraceRecord)>,
}

impl Connection {
    /// Splits a trace into connections. The data sender of each connection
    /// is the endpoint that shipped more payload bytes (ties go to the
    /// SYN initiator, then to the canonical `a` endpoint).
    ///
    /// This clones every record; [`Connection::split_owned`] moves them.
    pub fn split(trace: &Trace) -> Vec<Connection> {
        Connection::split_owned(trace.clone())
    }

    /// [`Connection::split`] over an owned trace: each record is moved
    /// once into its connection, whose vector is sized up front.
    /// Connections come out in first-seen order.
    pub fn split_owned(trace: Trace) -> Vec<Connection> {
        // First pass: each record's connection slot. Consecutive records
        // mostly share a connection, so the last key skips the map.
        let mut seen: Vec<(ConnKey, usize)> = Vec::new();
        let mut slots: BTreeMap<ConnKey, usize> = BTreeMap::new();
        let mut last: Option<(ConnKey, usize)> = None;
        let record_slots: Vec<usize> = trace
            .iter()
            .map(|rec| {
                let key = ConnKey::of_record(rec);
                let slot = match last {
                    Some((last_key, slot)) if last_key == key => slot,
                    _ => *slots.entry(key).or_insert_with(|| {
                        seen.push((key, 0));
                        seen.len() - 1
                    }),
                };
                last = Some((key, slot));
                if let Some((_, count)) = seen.get_mut(slot) {
                    *count += 1;
                }
                slot
            })
            .collect();
        let mut connections: Vec<Connection> = seen
            .into_iter()
            .map(|(key, count)| Connection {
                key,
                sender: key.a,
                receiver: key.b,
                records: Vec::with_capacity(count),
            })
            .collect();
        // Second pass: move each record, tagged as if `a` sent the data.
        for (slot, rec) in record_slots.into_iter().zip(trace.records) {
            if let Some(conn) = connections.get_mut(slot) {
                let dir = if source(&rec) == conn.key.a {
                    Dir::SenderToReceiver
                } else {
                    Dir::ReceiverToSender
                };
                conn.records.push((dir, rec));
            }
        }
        for conn in &mut connections {
            conn.orient();
        }
        connections
    }

    /// Settles which endpoint is the data sender, for records tagged as if
    /// it were `a`, and flips the tags in place when it is `b`.
    fn orient(&mut self) {
        let mut bytes_from_a: u64 = 0;
        let mut bytes_from_b: u64 = 0;
        let mut syn_initiator: Option<Endpoint> = None;
        for (dir, rec) in &self.records {
            let from_a = *dir == Dir::SenderToReceiver;
            if rec.tcp.flags.syn() && !rec.tcp.flags.ack() && syn_initiator.is_none() {
                syn_initiator = Some(if from_a { self.key.a } else { self.key.b });
            }
            if from_a {
                bytes_from_a += u64::from(rec.payload_len);
            } else {
                bytes_from_b += u64::from(rec.payload_len);
            }
        }
        let sender = match bytes_from_a.cmp(&bytes_from_b) {
            core::cmp::Ordering::Greater => self.key.a,
            core::cmp::Ordering::Less => self.key.b,
            core::cmp::Ordering::Equal => syn_initiator.unwrap_or(self.key.a),
        };
        if sender != self.key.a {
            self.sender = self.key.b;
            self.receiver = self.key.a;
            for (dir, _) in &mut self.records {
                *dir = dir.flip();
            }
        }
    }

    /// Iterates over records flowing in `dir`, keeping filter order.
    pub fn in_dir(&self, dir: Dir) -> impl Iterator<Item = &TraceRecord> {
        self.records
            .iter()
            .filter(move |(d, _)| *d == dir)
            .map(|(_, r)| r)
    }

    /// Total payload bytes sent in `dir` (retransmissions included).
    pub fn payload_bytes(&self, dir: Dir) -> u64 {
        self.in_dir(dir).map(|r| u64::from(r.payload_len)).sum()
    }

    /// Number of packets sent in `dir`.
    pub fn packet_count(&self, dir: Dir) -> usize {
        self.in_dir(dir).count()
    }

    /// The MSS option offered by the endpoint sending in `dir`, from its
    /// SYN, if captured.
    pub fn offered_mss(&self, dir: Dir) -> Option<u16> {
        self.in_dir(dir)
            .find(|r| r.tcp.flags.syn())
            .and_then(|r| r.tcp.mss)
    }

    /// The negotiated MSS for data flowing sender → receiver: the minimum
    /// of the two offers when both are present (the common interpretation;
    /// §8.3 notes implementations differ on exactly this point).
    pub fn negotiated_mss(&self) -> Option<u16> {
        match (
            self.offered_mss(Dir::SenderToReceiver),
            self.offered_mss(Dir::ReceiverToSender),
        ) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (one, other) => one.or(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_util::rec;
    use tcpa_wire::TcpFlags;

    #[test]
    fn split_groups_by_four_tuple() {
        let trace: Trace = vec![
            rec(0, 1, 2, TcpFlags::SYN, 0, 0, 0),
            rec(1, 3, 4, TcpFlags::SYN, 0, 0, 0),
            rec(2, 2, 1, TcpFlags::SYN | TcpFlags::ACK, 0, 0, 1),
            rec(3, 1, 2, TcpFlags::ACK, 1, 100, 1),
            rec(4, 4, 3, TcpFlags::ACK, 1, 0, 1),
        ]
        .into_iter()
        .collect();
        let conns = Connection::split(&trace);
        assert_eq!(conns.len(), 2);
        assert_eq!(conns[0].records.len(), 3);
        assert_eq!(conns[1].records.len(), 2);
    }

    #[test]
    fn sender_is_bulk_data_source() {
        let trace: Trace = vec![
            rec(0, 2, 1, TcpFlags::SYN, 0, 0, 0), // host 2 initiates (e.g. FTP-style)
            rec(1, 1, 2, TcpFlags::SYN | TcpFlags::ACK, 0, 0, 1),
            rec(2, 1, 2, TcpFlags::ACK, 1, 512, 1), // but host 1 ships the data
            rec(3, 1, 2, TcpFlags::ACK, 513, 512, 1),
            rec(4, 2, 1, TcpFlags::ACK, 1, 0, 1025),
        ]
        .into_iter()
        .collect();
        let conns = Connection::split(&trace);
        assert_eq!(conns.len(), 1);
        let c = &conns[0];
        assert_eq!(c.sender.addr, Ipv4Addr::from_host_id(1));
        assert_eq!(c.payload_bytes(Dir::SenderToReceiver), 1024);
        assert_eq!(c.packet_count(Dir::ReceiverToSender), 2);
    }

    #[test]
    fn tie_broken_by_syn_initiator() {
        let trace: Trace = vec![
            rec(0, 2, 1, TcpFlags::SYN, 0, 0, 0),
            rec(1, 1, 2, TcpFlags::SYN | TcpFlags::ACK, 0, 0, 1),
        ]
        .into_iter()
        .collect();
        let conns = Connection::split(&trace);
        assert_eq!(conns[0].sender.addr, Ipv4Addr::from_host_id(2));
    }

    #[test]
    fn mss_negotiation_takes_minimum() {
        let mut syn = rec(0, 1, 2, TcpFlags::SYN, 0, 0, 0);
        syn.tcp.mss = Some(1460);
        let mut synack = rec(1, 2, 1, TcpFlags::SYN | TcpFlags::ACK, 0, 0, 1);
        synack.tcp.mss = Some(536);
        let data = rec(2, 1, 2, TcpFlags::ACK, 1, 512, 1);
        let trace: Trace = vec![syn, synack, data].into_iter().collect();
        let conns = Connection::split(&trace);
        assert_eq!(conns[0].negotiated_mss(), Some(536));
        assert_eq!(conns[0].offered_mss(Dir::SenderToReceiver), Some(1460));
    }

    #[test]
    fn missing_mss_option_reported_as_none() {
        let trace: Trace = vec![
            rec(0, 1, 2, TcpFlags::SYN, 0, 0, 0),
            rec(1, 2, 1, TcpFlags::SYN | TcpFlags::ACK, 0, 0, 1),
            rec(2, 1, 2, TcpFlags::ACK, 1, 512, 1),
        ]
        .into_iter()
        .collect();
        let conns = Connection::split(&trace);
        // Neither side sent an MSS option — exactly the §8.4 trigger.
        assert_eq!(conns[0].negotiated_mss(), None);
    }

    #[test]
    fn dir_flip_is_involution() {
        assert_eq!(Dir::SenderToReceiver.flip().flip(), Dir::SenderToReceiver);
    }
}
