//! The drop-tail FIFO bottleneck queue.
//!
//! Prudentia's BESS switch sizes its queue in *packets*, rounded to the
//! nearest power of two (§3.1 footnote 6). [`pow2_round`] reproduces that
//! quirk and [`DropTailQueue`] reproduces the drop-tail semantics, with
//! per-service arrival/drop accounting used for the loss-rate heatmap
//! (Fig 12).

use crate::aqm::{QdiscStats, QueueDiscipline};
use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Round `n` to the nearest power of two (ties round up), minimum 1.
///
/// This matches BESS, which "only allows queue sizes in powers of two,
/// hence the queue is in reality set to the power of two nearest to 4×BDP".
pub fn pow2_round(n: u64) -> u64 {
    if n <= 1 {
        return 1;
    }
    let lower = 1u64 << (63 - n.leading_zeros());
    if lower == n {
        return n;
    }
    let upper = lower << 1;
    // Nearest; ties (exact midpoint) round up, matching "nearest power of two".
    if n - lower < upper - n {
        lower
    } else {
        upper
    }
}

/// Bandwidth-delay product in packets for a given link rate, base RTT and MTU.
pub fn bdp_packets(rate_bps: f64, rtt_secs: f64, mtu_bytes: u32) -> u64 {
    let bdp_bytes = rate_bps * rtt_secs / 8.0;
    (bdp_bytes / mtu_bytes as f64).round().max(1.0) as u64
}

/// Outcome of offering a packet to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Packet was accepted.
    Queued,
    /// Queue was full; the packet was dropped at the tail.
    Dropped,
}

/// Per-service arrival/drop counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceQueueStats {
    /// Packets that arrived at the queue (queued + dropped).
    pub arrived_pkts: u64,
    /// Bytes that arrived at the queue.
    pub arrived_bytes: u64,
    /// Packets dropped at the tail.
    pub dropped_pkts: u64,
    /// Bytes dropped at the tail.
    pub dropped_bytes: u64,
}

impl ServiceQueueStats {
    /// Fraction of arrived packets that were dropped (the paper's loss rate,
    /// "the fraction of packets of that service that arrived at the
    /// bottleneck queue but were dropped").
    pub fn loss_rate(&self) -> f64 {
        if self.arrived_pkts == 0 {
            0.0
        } else {
            self.dropped_pkts as f64 / self.arrived_pkts as f64
        }
    }
}

/// A drop-tail FIFO queue sized in packets.
#[derive(Debug)]
pub struct DropTailQueue {
    queue: VecDeque<Packet>,
    bytes: u64,
    capacity_pkts: usize,
    stats: QdiscStats,
}

impl DropTailQueue {
    /// Create a queue holding at most `capacity_pkts` packets.
    pub fn new(capacity_pkts: usize) -> Self {
        assert!(capacity_pkts >= 1, "queue must hold at least one packet");
        DropTailQueue {
            queue: VecDeque::with_capacity(capacity_pkts.min(1 << 16)),
            bytes: 0,
            capacity_pkts,
            stats: QdiscStats::default(),
        }
    }

    /// Offer a packet; returns whether it was queued or tail-dropped.
    pub fn enqueue(&mut self, pkt: Packet) -> EnqueueResult {
        self.stats.on_arrival(&pkt);
        if self.queue.len() >= self.capacity_pkts {
            self.stats.on_drop(&pkt);
            return EnqueueResult::Dropped;
        }
        self.bytes += pkt.size as u64;
        self.stats.on_enqueue(&pkt);
        self.queue.push_back(pkt);
        self.stats.note_occupancy(self.queue.len());
        debug_assert!(
            self.queue.len() <= self.capacity_pkts,
            "drop-tail occupancy {} exceeds capacity {}",
            self.queue.len(),
            self.capacity_pkts
        );
        EnqueueResult::Queued
    }

    /// Pop the head-of-line packet.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.size as u64;
        self.stats.on_dequeue(&pkt);
        Some(pkt)
    }
}

/// Drop-tail is the default [`QueueDiscipline`]; the clock-taking trait
/// methods delegate to the inherent ones, which ignore the clock.
impl QueueDiscipline for DropTailQueue {
    fn kind(&self) -> &'static str {
        "droptail"
    }

    fn capacity(&self) -> usize {
        self.capacity_pkts
    }

    fn enqueue(&mut self, pkt: Packet, _now: SimTime) -> EnqueueResult {
        DropTailQueue::enqueue(self, pkt)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        DropTailQueue::dequeue(self)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }

    #[cfg(test)]
    fn queued(&self) -> Vec<&Packet> {
        self.queue.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{EndpointId, FlowId, ServiceId};

    fn pkt(svc: u32, seq: u64) -> Packet {
        Packet::data(FlowId(svc), ServiceId(svc), EndpointId(0), seq, 1500)
    }

    #[test]
    fn pow2_round_exact_powers() {
        for k in 0..20 {
            let n = 1u64 << k;
            assert_eq!(pow2_round(n), n);
        }
    }

    #[test]
    fn pow2_round_nearest() {
        assert_eq!(pow2_round(0), 1);
        assert_eq!(pow2_round(3), 4); // midpoint of 2..4 rounds up
        assert_eq!(pow2_round(5), 4);
        assert_eq!(pow2_round(6), 8); // midpoint rounds up
        assert_eq!(pow2_round(7), 8);
        assert_eq!(pow2_round(1000), 1024);
        assert_eq!(pow2_round(1100), 1024);
        assert_eq!(pow2_round(1600), 2048);
    }

    #[test]
    fn bdp_matches_paper_settings() {
        // 50 Mbps x 50 ms = 312500 bytes = ~208 MTU packets; 4x = 833 -> pow2 1024
        let bdp = bdp_packets(50e6, 0.050, 1500);
        assert_eq!(bdp, 208);
        assert_eq!(pow2_round(4 * bdp), 1024); // the paper's "1024 packet" buffer (Fig 8)
        assert_eq!(pow2_round(8 * bdp), 2048); // and the "2048 packet" buffer
                                               // 8 Mbps x 50 ms = 50000 bytes = ~33 pkts; 4x = 133 -> pow2 128
        let bdp8 = bdp_packets(8e6, 0.050, 1500);
        assert_eq!(bdp8, 33);
        assert_eq!(pow2_round(4 * bdp8), 128);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DropTailQueue::new(4);
        for seq in 0..4 {
            assert_eq!(q.enqueue(pkt(0, seq)), EnqueueResult::Queued);
        }
        for seq in 0..4 {
            assert_eq!(q.dequeue().unwrap().seq, seq);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn tail_drop_when_full() {
        let mut q = DropTailQueue::new(2);
        assert_eq!(q.enqueue(pkt(0, 0)), EnqueueResult::Queued);
        assert_eq!(q.enqueue(pkt(0, 1)), EnqueueResult::Queued);
        assert_eq!(q.enqueue(pkt(0, 2)), EnqueueResult::Dropped);
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_drops(), 1);
    }

    #[test]
    fn per_service_loss_accounting() {
        let mut q = DropTailQueue::new(1);
        q.enqueue(pkt(1, 0)); // queued
        q.enqueue(pkt(2, 0)); // dropped
        q.enqueue(pkt(2, 1)); // dropped
        let s1 = q.service_stats(ServiceId(1));
        let s2 = q.service_stats(ServiceId(2));
        assert_eq!(s1.arrived_pkts, 1);
        assert_eq!(s1.dropped_pkts, 0);
        assert_eq!(s1.loss_rate(), 0.0);
        assert_eq!(s2.arrived_pkts, 2);
        assert_eq!(s2.dropped_pkts, 2);
        assert_eq!(s2.loss_rate(), 1.0);
    }

    #[test]
    fn occupancy_by_service() {
        let mut q = DropTailQueue::new(10);
        q.enqueue(pkt(1, 0));
        q.enqueue(pkt(2, 0));
        q.enqueue(pkt(1, 1));
        assert_eq!(q.occupancy_of(ServiceId(1)), 2);
        assert_eq!(q.occupancy_of(ServiceId(2)), 1);
        assert_eq!(q.occupancy_of(ServiceId(3)), 0);
    }

    #[test]
    fn max_occupancy_tracks_high_water() {
        let mut q = DropTailQueue::new(10);
        for seq in 0..5 {
            q.enqueue(pkt(0, seq));
        }
        for _ in 0..3 {
            q.dequeue();
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_occupancy(), 5);
    }

    #[test]
    fn unknown_service_stats_default() {
        let q = DropTailQueue::new(4);
        let s = q.service_stats(ServiceId(99));
        assert_eq!(s.arrived_pkts, 0);
        assert_eq!(s.loss_rate(), 0.0);
    }
}
