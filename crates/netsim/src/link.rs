//! Unidirectional links: bandwidth, propagation delay, drop-tail queue,
//! and loss injection.

use crate::packet::Packet;
use crate::rng::SplitMix64;
use std::collections::VecDeque;
use tcpa_trace::{Duration, Time};

/// How a link loses packets in flight (beyond queue overflow).
#[derive(Debug, Clone)]
pub enum LossModel {
    /// No induced loss.
    None,
    /// Independent loss with the given probability per packet.
    Bernoulli(f64),
    /// Drop exactly the packets whose *per-link transmission index*
    /// (0-based count of packets that completed transmission on this link)
    /// appears in the list. Gives figure scenarios exact control.
    DropList(Vec<u64>),
    /// Drop every `n`-th packet (1-based: `n=10` drops indices 9, 19, …).
    Periodic(u64),
}

impl LossModel {
    fn should_drop(&self, tx_index: u64, rng: &mut SplitMix64) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.chance(*p),
            LossModel::DropList(list) => list.contains(&tx_index),
            LossModel::Periodic(n) => *n > 0 && (tx_index + 1).is_multiple_of(*n),
        }
    }
}

/// Static parameters of a link.
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub prop_delay: Duration,
    /// Drop-tail queue capacity in packets (excluding the one in
    /// transmission). Real early-90s router queues were 4–30 packets.
    pub queue_cap: usize,
    /// Induced loss.
    pub loss: LossModel,
    /// Induced payload corruption: matched packets are delivered with
    /// their `corrupt` flag set, so the receiving TCP discards them on
    /// checksum failure (§7). Uses the same selection semantics as
    /// [`LossModel`], on the same per-link transmission index.
    pub corruption: LossModel,
}

impl LinkParams {
    /// A 10 Mb/s Ethernet-like LAN hop with a tiny delay and a deep queue.
    pub fn ethernet() -> LinkParams {
        LinkParams {
            rate_bps: 10_000_000,
            prop_delay: Duration::from_micros(50),
            queue_cap: 100,
            loss: LossModel::None,
            corruption: LossModel::None,
        }
    }

    /// A wide-area path: `rate_bps` bottleneck, one-way `delay`, modest
    /// router queue.
    pub fn wan(rate_bps: u64, delay: Duration, queue_cap: usize) -> LinkParams {
        LinkParams {
            rate_bps,
            prop_delay: delay,
            queue_cap,
            loss: LossModel::None,
            corruption: LossModel::None,
        }
    }

    /// Sets the loss model (builder style).
    pub fn with_loss(mut self, loss: LossModel) -> LinkParams {
        self.loss = loss;
        self
    }

    /// Sets the corruption model (builder style).
    pub fn with_corruption(mut self, corruption: LossModel) -> LinkParams {
        self.corruption = corruption;
        self
    }
}

/// Outcome of offering a packet to a link queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Accepted; the caller must start transmission if the link was idle.
    Accepted {
        /// `true` if the transmitter was idle and transmission of this
        /// packet should begin now.
        starts_tx: bool,
    },
    /// Queue full; packet dropped at the tail.
    Overflow,
}

/// Runtime state of a link.
#[derive(Debug)]
pub struct Link {
    /// Static parameters.
    pub params: LinkParams,
    /// Destination host index.
    pub dst_host: usize,
    /// Source host index.
    pub src_host: usize,
    queue: VecDeque<Packet>,
    transmitting: Option<Packet>,
    tx_count: u64,
}

impl Link {
    /// Creates an idle link.
    pub fn new(src_host: usize, dst_host: usize, params: LinkParams) -> Link {
        Link {
            params,
            dst_host,
            src_host,
            queue: VecDeque::new(),
            transmitting: None,
            tx_count: 0,
        }
    }

    /// Offers a packet. On `Accepted { starts_tx: true }` transmission
    /// begins immediately; the caller must schedule the completion event
    /// at `now + current_tx_time()`.
    pub fn enqueue(&mut self, pkt: Packet) -> Enqueue {
        if self.transmitting.is_none() {
            debug_assert!(self.queue.is_empty());
            self.transmitting = Some(pkt);
            Enqueue::Accepted { starts_tx: true }
        } else if self.queue.len() < self.params.queue_cap {
            self.queue.push_back(pkt);
            Enqueue::Accepted { starts_tx: false }
        } else {
            Enqueue::Overflow
        }
    }

    /// Serialization time of the packet currently in the transmitter.
    pub fn current_tx_time(&self) -> Duration {
        let pkt = self
            .transmitting
            .as_ref()
            .expect("current_tx_time with idle transmitter");
        Duration::transmission(u64::from(pkt.wire_len()), self.params.rate_bps)
    }

    /// Completes the in-flight transmission. Returns the transmitted
    /// packet (its `corrupt` flag set if the corruption model matched),
    /// whether the *link* drops it (loss model), and whether another
    /// packet begins transmitting.
    pub fn complete_tx(&mut self, rng: &mut SplitMix64) -> (Packet, bool, bool) {
        let mut pkt = self
            .transmitting
            .take()
            .expect("complete_tx with idle transmitter");
        let dropped = self.params.loss.should_drop(self.tx_count, rng);
        if self.params.corruption.should_drop(self.tx_count, rng) {
            if let crate::packet::PacketKind::Tcp { corrupt, .. } = &mut pkt.kind {
                *corrupt = true;
            }
        }
        self.tx_count += 1;
        let more = if let Some(next) = self.queue.pop_front() {
            self.transmitting = Some(next);
            true
        } else {
            false
        };
        (pkt, dropped, more)
    }

    /// Count of packets that have completed transmission.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// Time reference helper: when a packet transmitted at `start` reaches
    /// the far end.
    pub fn arrival_time(&self, tx_done: Time) -> Time {
        tx_done + self.params.prop_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_wire::{Ipv4Addr, TcpRepr};

    fn pkt() -> Packet {
        Packet::tcp(
            Ipv4Addr::from_host_id(1),
            Ipv4Addr::from_host_id(2),
            0,
            TcpRepr::new(1, 2),
            1000,
        )
    }

    #[test]
    fn first_packet_starts_transmission() {
        let mut link = Link::new(0, 1, LinkParams::ethernet());
        assert_eq!(link.enqueue(pkt()), Enqueue::Accepted { starts_tx: true });
        assert_eq!(link.enqueue(pkt()), Enqueue::Accepted { starts_tx: false });
        assert_eq!(link.queue.len(), 1);
    }

    #[test]
    fn overflow_at_capacity() {
        let params = LinkParams {
            queue_cap: 2,
            ..LinkParams::ethernet()
        };
        let mut link = Link::new(0, 1, params);
        assert!(matches!(link.enqueue(pkt()), Enqueue::Accepted { .. })); // tx
        assert!(matches!(link.enqueue(pkt()), Enqueue::Accepted { .. })); // q1
        assert!(matches!(link.enqueue(pkt()), Enqueue::Accepted { .. })); // q2
        assert_eq!(link.enqueue(pkt()), Enqueue::Overflow);
    }

    #[test]
    fn complete_pops_next() {
        let mut link = Link::new(0, 1, LinkParams::ethernet());
        let mut rng = SplitMix64::new(1);
        link.enqueue(pkt());
        link.enqueue(pkt());
        let (_, dropped, more) = link.complete_tx(&mut rng);
        assert!(!dropped);
        assert!(more);
        let (_, _, more) = link.complete_tx(&mut rng);
        assert!(!more);
        assert!(link.transmitting.is_none() && link.queue.is_empty());
    }

    #[test]
    fn tx_time_matches_rate() {
        let mut link = Link::new(0, 1, LinkParams::ethernet());
        link.enqueue(pkt()); // wire_len = 14+20+20+1000 = 1054 bytes
        assert_eq!(
            link.current_tx_time(),
            Duration::transmission(1054, 10_000_000)
        );
    }

    #[test]
    fn drop_list_drops_exact_indices() {
        let params = LinkParams::ethernet().with_loss(LossModel::DropList(vec![1]));
        let mut link = Link::new(0, 1, params);
        let mut rng = SplitMix64::new(1);
        link.enqueue(pkt());
        link.enqueue(pkt());
        link.enqueue(pkt());
        assert!(!link.complete_tx(&mut rng).1); // index 0 kept
        assert!(link.complete_tx(&mut rng).1); // index 1 dropped
        assert!(!link.complete_tx(&mut rng).1); // index 2 kept
    }

    #[test]
    fn periodic_loss() {
        let params = LinkParams::ethernet().with_loss(LossModel::Periodic(3));
        let mut link = Link::new(0, 1, params);
        let mut rng = SplitMix64::new(1);
        let mut drops = Vec::new();
        for i in 0..9 {
            link.enqueue(pkt());
            if link.complete_tx(&mut rng).1 {
                drops.push(i);
            }
        }
        assert_eq!(drops, vec![2, 5, 8]);
    }
}
