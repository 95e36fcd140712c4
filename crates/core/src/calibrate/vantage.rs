//! Inferring the measurement vantage point (§3.2).
//!
//! tcpanaly needs to know whether a trace was captured near the data
//! sender or near the receiver — the self-consistency checks and the
//! response-delay semantics differ. The trace itself answers: at the
//! *sender's* filter, a data packet follows its liberating ack within the
//! host's processing time (sub-milliseconds), while acks trail the data
//! they acknowledge by a round-trip. At the *receiver's* filter the
//! asymmetry flips: acks chase arriving data within the acking delay,
//! and fresh data trails the acks that liberated it by a round-trip.

use super::drops::Vantage;
use tcpa_trace::{Connection, Dir, Duration, Summary};

/// The evidence behind a vantage inference.
#[derive(Debug, Clone)]
pub struct VantageInference {
    /// The inferred vantage.
    pub vantage: Vantage,
    /// Median gap from an ack to the next data packet (sender-side
    /// response time when small).
    pub ack_to_data: Option<Duration>,
    /// Median gap from a data packet to the next ack (receiver-side
    /// response time when small).
    pub data_to_ack: Option<Duration>,
}

/// Infers where the filter sat relative to one connection.
///
/// Returns [`Vantage::Unknown`] when the trace is too small or the
/// asymmetry too weak to call.
pub fn infer_vantage(conn: &Connection) -> VantageInference {
    let mut ack_to_data = Summary::new();
    let mut data_to_ack = Summary::new();
    let mut last_ack_at = None;
    let mut last_data_at = None;
    for (dir, rec) in &conn.records {
        match dir {
            Dir::SenderToReceiver if rec.is_data() => {
                if let Some(t) = last_ack_at.take() {
                    ack_to_data.add(rec.ts - t);
                }
                last_data_at = Some(rec.ts);
            }
            Dir::ReceiverToSender if rec.is_pure_ack() => {
                if let Some(t) = last_data_at.take() {
                    data_to_ack.add(rec.ts - t);
                }
                last_ack_at = Some(rec.ts);
            }
            _ => {}
        }
    }
    let (ma, md) = (ack_to_data.median(), data_to_ack.median());
    let vantage = match (ma, md) {
        (Some(a), Some(d)) if ack_to_data.count() >= 4 && data_to_ack.count() >= 4 => {
            // Require a clear factor between the two directions.
            if a.as_nanos() * 4 < d.as_nanos() {
                Vantage::Sender
            } else if d.as_nanos() * 4 < a.as_nanos() {
                Vantage::Receiver
            } else {
                Vantage::Unknown
            }
        }
        _ => Vantage::Unknown,
    };
    VantageInference {
        vantage,
        ack_to_data: ma,
        data_to_ack: md,
    }
}

/// The trace-level vantage (§3.2): the majority of its connections'
/// inferences, or unknown on a tie.
pub(crate) fn vote(connections: &[Connection]) -> Vantage {
    let (mut sender, mut receiver) = (0usize, 0usize);
    for conn in connections {
        match infer_vantage(conn).vantage {
            Vantage::Sender => sender += 1,
            Vantage::Receiver => receiver += 1,
            Vantage::Unknown => {}
        }
    }
    match sender.cmp(&receiver) {
        std::cmp::Ordering::Greater => Vantage::Sender,
        std::cmp::Ordering::Less => Vantage::Receiver,
        std::cmp::Ordering::Equal => Vantage::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::{Time, Trace, TraceRecord};
    use tcpa_wire::{IpProtocol, Ipv4Addr, Ipv4Repr, SeqNum, TcpFlags, TcpRepr};

    fn rec(ts_us: i64, src: u8, dst: u8, seq: u32, len: u32, ack: u32) -> TraceRecord {
        TraceRecord {
            ts: Time::from_micros(ts_us),
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
                flags: TcpFlags::ACK,
                window: 16_384,
                ..TcpRepr::new(5000 + u16::from(src), 5000 + u16::from(dst))
            },
            payload_len: len,
            checksum_ok: Some(true),
        }
    }

    /// Ack-clocked transfer seen from the sender: data leaves ~1 ms after
    /// each ack; acks arrive ~100 ms after the data they cover.
    fn sender_side() -> Connection {
        let mut v = Vec::new();
        let mut t = 0;
        for k in 0..10u32 {
            v.push(rec(t, 1, 2, 1 + 512 * k, 512, 1)); // data out
            t += 100_000; // RTT later the ack shows up
            v.push(rec(t, 2, 1, 1, 0, 1 + 512 * (k + 1)));
            t += 1_000; // sender responds in ~1 ms
        }
        Connection::split(&v.into_iter().collect::<Trace>()).remove(0)
    }

    /// The same transfer seen from the receiver: data arrives, the ack
    /// leaves ~1 ms later; fresh data trails each ack by ~100 ms.
    fn receiver_side() -> Connection {
        let mut v = Vec::new();
        let mut t = 0;
        for k in 0..10u32 {
            v.push(rec(t, 1, 2, 1 + 512 * k, 512, 1)); // data arrives
            t += 1_000; // receiver acks promptly
            v.push(rec(t, 2, 1, 1, 0, 1 + 512 * (k + 1)));
            t += 100_000; // next data a round-trip later
        }
        Connection::split(&v.into_iter().collect::<Trace>()).remove(0)
    }

    #[test]
    fn sender_vantage_inferred() {
        let inf = infer_vantage(&sender_side());
        assert_eq!(inf.vantage, Vantage::Sender, "{inf:?}");
    }

    #[test]
    fn receiver_vantage_inferred() {
        let inf = infer_vantage(&receiver_side());
        assert_eq!(inf.vantage, Vantage::Receiver, "{inf:?}");
    }

    #[test]
    fn tiny_trace_is_unknown() {
        let v = vec![rec(0, 1, 2, 1, 512, 1), rec(1000, 2, 1, 1, 0, 513)];
        let conn = Connection::split(&v.into_iter().collect::<Trace>()).remove(0);
        assert_eq!(infer_vantage(&conn).vantage, Vantage::Unknown);
    }
}
