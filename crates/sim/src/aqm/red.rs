//! RED — Random Early Detection (Floyd & Jacobson 1993).
//!
//! RED tracks an exponentially-weighted moving average of the queue
//! occupancy on every arrival. Below `min_th` packets always enter; above
//! `max_th` they always drop; in between they drop with a probability that
//! ramps linearly to `max_p` and is spread out by the inter-drop count so
//! drops are roughly evenly spaced — desynchronizing competing TCP flows.
//!
//! Simplifications versus the original paper, documented for the record:
//! the EWMA is not decayed during idle periods (the bottleneck here rarely
//! idles under the watchdog's saturating workloads), and thresholds are
//! expressed as fractions of the configured packet capacity so one spec
//! scales across the 4×BDP queue sizes the settings produce.
//!
//! Drop coin-flips come from a private deterministic RNG seeded from the
//! experiment seed, so a RED trial is exactly as reproducible as a
//! drop-tail one and never perturbs the engine's main RNG stream.

use super::{QdiscStats, QueueDiscipline};
use crate::packet::Packet;
use crate::queue::EnqueueResult;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// EWMA weight for the average queue estimate (the classic 0.002).
const W_Q: f64 = 0.002;

/// Seed-mixing constant so RED's stream differs from the engine's.
const RED_SEED_MIX: u64 = 0x52ED_5EED_0B5E_55ED;

/// A RED-managed FIFO with a hard packet capacity.
#[derive(Debug)]
pub struct RedQueue {
    queue: VecDeque<Packet>,
    bytes: u64,
    capacity_pkts: usize,
    min_th: f64,
    max_th: f64,
    max_p: f64,
    /// EWMA of the instantaneous occupancy, in packets.
    avg: f64,
    /// Packets since the last early drop (-1 right after entering the
    /// below-min region, per the original algorithm).
    count: i64,
    rng: StdRng,
    stats: QdiscStats,
}

impl RedQueue {
    /// A RED queue over `capacity_pkts` packets with thresholds given as
    /// fractions of capacity.
    pub fn new(
        capacity_pkts: usize,
        min_th_frac: f64,
        max_th_frac: f64,
        max_p: f64,
        seed: u64,
    ) -> Self {
        assert!(capacity_pkts >= 1, "queue must hold at least one packet");
        assert!(
            (0.0..=1.0).contains(&min_th_frac)
                && (0.0..=1.0).contains(&max_th_frac)
                && min_th_frac < max_th_frac,
            "RED thresholds must satisfy 0 <= min < max <= 1"
        );
        assert!((0.0..=1.0).contains(&max_p), "max_p must be a probability");
        RedQueue {
            queue: VecDeque::new(),
            bytes: 0,
            capacity_pkts,
            min_th: min_th_frac * capacity_pkts as f64,
            max_th: max_th_frac * capacity_pkts as f64,
            max_p,
            avg: 0.0,
            count: -1,
            rng: StdRng::seed_from_u64(seed ^ RED_SEED_MIX),
            stats: QdiscStats::default(),
        }
    }

    /// The current EWMA occupancy estimate, in packets.
    pub fn avg(&self) -> f64 {
        self.avg
    }

    /// Early-drop decision for one arrival, given the updated EWMA.
    fn should_drop_early(&mut self) -> bool {
        if self.avg < self.min_th {
            self.count = -1;
            return false;
        }
        if self.avg >= self.max_th {
            self.count = 0;
            return true;
        }
        self.count += 1;
        let pb = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th);
        // Spread drops evenly: pa grows with the packets since last drop.
        let pa = (pb / (1.0 - (self.count as f64) * pb).max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
        if self.rng.gen::<f64>() < pa {
            self.count = 0;
            true
        } else {
            false
        }
    }
}

impl QueueDiscipline for RedQueue {
    fn kind(&self) -> &'static str {
        "red"
    }

    fn capacity(&self) -> usize {
        self.capacity_pkts
    }

    fn enqueue(&mut self, pkt: Packet, _now: SimTime) -> EnqueueResult {
        self.stats.on_arrival(&pkt);
        self.avg = (1.0 - W_Q) * self.avg + W_Q * self.queue.len() as f64;
        if self.queue.len() >= self.capacity_pkts || self.should_drop_early() {
            self.stats.on_drop(&pkt);
            return EnqueueResult::Dropped;
        }
        self.bytes += pkt.size as u64;
        self.stats.on_enqueue(&pkt);
        self.queue.push_back(pkt);
        self.stats.note_occupancy(self.queue.len());
        EnqueueResult::Queued
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.size as u64;
        self.stats.on_dequeue(&pkt);
        Some(pkt)
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

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), ServiceId(0), EndpointId(0), seq, 1500)
    }

    #[test]
    fn empty_queue_admits_everything() {
        let mut q = RedQueue::new(100, 0.25, 0.75, 0.1, 1);
        let now = SimTime::ZERO;
        // Alternating enqueue/dequeue keeps the EWMA near zero.
        for seq in 0..500 {
            assert_eq!(q.enqueue(pkt(seq), now), EnqueueResult::Queued);
            q.dequeue(now);
        }
        assert_eq!(q.total_drops(), 0);
    }

    #[test]
    fn standing_backlog_triggers_early_drops() {
        let mut q = RedQueue::new(100, 0.1, 0.5, 0.2, 1);
        let now = SimTime::ZERO;
        // Hold occupancy at ~60 (above max_th=50) long enough for the EWMA
        // (w=0.002) to cross: after k arrivals avg ≈ 60(1-(1-w)^k).
        let mut dropped = 0;
        for seq in 0..5000 {
            if q.enqueue(pkt(seq), now) == EnqueueResult::Dropped {
                dropped += 1;
            }
            while q.len() > 60 {
                q.dequeue(now);
            }
        }
        assert!(dropped > 0, "EWMA above max_th must force drops");
        assert!(q.avg() > 10.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut q = RedQueue::new(64, 0.1, 0.4, 0.3, seed);
            let now = SimTime::ZERO;
            let mut outcomes = Vec::new();
            for seq in 0..2000 {
                outcomes.push(q.enqueue(pkt(seq), now) == EnqueueResult::Queued);
                if seq % 3 == 0 {
                    q.dequeue(now);
                }
            }
            outcomes
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds explore different flips");
    }

    #[test]
    fn hard_capacity_still_binds() {
        let mut q = RedQueue::new(4, 0.25, 0.75, 0.0, 1);
        let now = SimTime::ZERO;
        for seq in 0..10 {
            q.enqueue(pkt(seq), now);
        }
        assert_eq!(q.len(), 4);
        assert!(q.total_drops() >= 6);
    }
}
