//! DualPI2 — the coupled dual-queue AQM for L4S (RFC 9332).
//!
//! DualPI2 splits arrivals into two queues sharing one link:
//!
//! * the **L queue** for L4S traffic (packets carrying ECT(1)), held to a
//!   sub-millisecond sojourn by an instantaneous step-marking threshold,
//! * the **C queue** for everything else, managed by a PI controller
//!   steering its queueing delay toward a classic target.
//!
//! The two are *coupled*: the PI controller computes a base probability
//! `p'`, classic packets drop (or, if ECT(0), mark) with probability
//! `p'²`, and L4S packets mark with probability `k·p'` on top of the step
//! threshold. The square means a classic Reno/Cubic flow — whose rate
//! scales as `1/√p` — and a scalable Prague flow — whose rate scales as
//! `1/p` — get the same throughput at equilibrium, while the L queue's
//! shallow threshold keeps its latency at L4S levels. A time-shifted
//! scheduler gives the L queue priority without starving the C queue.
//!
//! Marks never touch the conservation ledger: a marked packet still
//! dequeues and delivers, only its ECN codepoint changes. All drops
//! happen at enqueue time, like RED. Coin flips come from a dedicated
//! deterministic RNG seeded from the experiment seed, so a DualPI2 trial
//! is exactly as reproducible as a drop-tail one.

use super::{QdiscStats, QueueDiscipline};
use crate::packet::{EcnCodepoint, Packet};
use crate::queue::EnqueueResult;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Seed-mixing constant so DualPI2's stream differs from the engine's and
/// RED's.
const DUALPI2_SEED_MIX: u64 = 0xD0A1_9132_C0DE_5EED;

/// The PI2 probability controller (RFC 9332 §2.4).
///
/// Updated every `t_update` from the classic queue's sojourn delay:
///
/// ```text
/// p' += alpha·(qdelay − target) + beta·(qdelay − prev_qdelay)
/// ```
///
/// with the RFC's default gains scaled to the update interval.
#[derive(Debug)]
struct Pi2 {
    /// Classic-queue delay target.
    target: SimDuration,
    /// Controller update interval.
    t_update: SimDuration,
    /// Integral gain per update (RFC 9332 default 0.16 Hz · t_update).
    alpha: f64,
    /// Proportional gain per update (RFC 9332 default 3.2 Hz · t_update).
    beta: f64,
    /// Base probability p' ∈ [0, 1].
    p: f64,
    prev_qdelay: SimDuration,
    next_update: SimTime,
}

impl Pi2 {
    fn new(target: SimDuration, t_update: SimDuration) -> Self {
        let dt = t_update.as_secs_f64();
        Pi2 {
            target,
            t_update,
            alpha: 0.16 * dt,
            beta: 3.2,
            p: 0.0,
            prev_qdelay: SimDuration::ZERO,
            next_update: SimTime::ZERO,
        }
    }

    /// Advance the controller to `now` given the current classic sojourn.
    fn update(&mut self, now: SimTime, qdelay: SimDuration) {
        while now >= self.next_update {
            let err = qdelay.as_secs_f64() - self.target.as_secs_f64();
            let delta = qdelay.as_secs_f64() - self.prev_qdelay.as_secs_f64();
            self.p = (self.p + self.alpha * err + self.beta * delta).clamp(0.0, 1.0);
            self.prev_qdelay = qdelay;
            self.next_update += self.t_update;
        }
    }
}

/// A DualPI2-managed bottleneck: L4S + classic queues behind one link.
#[derive(Debug)]
pub struct DualPi2Queue {
    /// Low-latency queue (ECT(1) arrivals).
    l_queue: VecDeque<Packet>,
    /// Classic queue (everything else).
    c_queue: VecDeque<Packet>,
    l_bytes: u64,
    c_bytes: u64,
    /// Hard capacity shared by both queues, in packets.
    capacity_pkts: usize,
    pi2: Pi2,
    /// Coupling factor k: L4S mark probability is `min(k·p', 1)`.
    k: f64,
    /// Instantaneous L-queue sojourn above which every L packet marks.
    l_step_thresh: SimDuration,
    /// Scheduler time advantage for the L queue's head packet.
    l_shift: SimDuration,
    rng: StdRng,
    stats: QdiscStats,
    /// CE marks applied so far (L-queue step/probabilistic + classic ECT(0)).
    marks: u64,
}

impl DualPi2Queue {
    /// A DualPI2 queue over `capacity_pkts` shared packets.
    ///
    /// `target`/`t_update` parameterize the PI controller, `k` the L4S
    /// coupling, `l_step_thresh` the L queue's instantaneous marking
    /// threshold. `seed` drives the probabilistic mark/drop coin flips.
    pub fn new(
        capacity_pkts: usize,
        target: SimDuration,
        t_update: SimDuration,
        k: f64,
        l_step_thresh: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(capacity_pkts >= 1, "queue must hold at least one packet");
        assert!(k >= 1.0, "coupling factor k must be >= 1");
        DualPi2Queue {
            l_queue: VecDeque::new(),
            c_queue: VecDeque::new(),
            l_bytes: 0,
            c_bytes: 0,
            capacity_pkts,
            pi2: Pi2::new(target, t_update),
            k,
            l_step_thresh,
            l_shift: target,
            rng: StdRng::seed_from_u64(seed ^ DUALPI2_SEED_MIX),
            stats: QdiscStats::default(),
            marks: 0,
        }
    }

    /// Current base probability p' of the PI controller.
    pub fn base_probability(&self) -> f64 {
        self.pi2.p
    }

    /// Classic-queue drop/mark probability, `p'²`.
    pub fn classic_probability(&self) -> f64 {
        self.pi2.p * self.pi2.p
    }

    /// L4S marking probability from the coupling alone, `min(k·p', 1)`.
    pub fn l4s_probability(&self) -> f64 {
        (self.k * self.pi2.p).min(1.0)
    }

    /// Total CE marks applied so far.
    pub fn total_marks(&self) -> u64 {
        self.marks
    }

    /// Sojourn time of the classic queue's head packet (the PI input).
    fn c_sojourn(&self, now: SimTime) -> SimDuration {
        self.c_queue
            .front()
            .map(|p| now.saturating_since(p.enqueued_at))
            .unwrap_or(SimDuration::ZERO)
    }

    fn total_len(&self) -> usize {
        self.l_queue.len() + self.c_queue.len()
    }
}

impl QueueDiscipline for DualPi2Queue {
    fn kind(&self) -> &'static str {
        "dualpi2"
    }

    fn capacity(&self) -> usize {
        self.capacity_pkts
    }

    fn enqueue(&mut self, mut pkt: Packet, now: SimTime) -> EnqueueResult {
        self.stats.on_arrival(&pkt);
        self.pi2.update(now, self.c_sojourn(now));
        // Shared hard capacity: tail drop regardless of queue.
        if self.total_len() >= self.capacity_pkts {
            self.stats.on_drop(&pkt);
            return EnqueueResult::Dropped;
        }
        if pkt.ecn.is_l4s() {
            // L queue: probabilistic coupled marking happens at dequeue
            // (with the step threshold); nothing to decide here.
            self.l_bytes += pkt.size as u64;
            self.stats.on_enqueue(&pkt);
            self.l_queue.push_back(pkt);
        } else {
            // Classic queue: drop (or mark, if ECT(0)) with p'².
            let p_c = self.classic_probability();
            if p_c > 0.0 && self.rng.gen::<f64>() < p_c {
                if pkt.ecn.is_ect() {
                    pkt.ecn = EcnCodepoint::Ce;
                    self.marks += 1;
                } else {
                    self.stats.on_drop(&pkt);
                    return EnqueueResult::Dropped;
                }
            }
            self.c_bytes += pkt.size as u64;
            self.stats.on_enqueue(&pkt);
            self.c_queue.push_back(pkt);
        }
        self.stats.note_occupancy(self.total_len());
        EnqueueResult::Queued
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.pi2.update(now, self.c_sojourn(now));
        // Time-shifted scheduler: the L head competes with the C head on
        // sojourn time plus a fixed advantage, so L wins whenever it has
        // anything recent but a long-suffering classic packet eventually
        // preempts (no starvation).
        let serve_l = match (self.l_queue.front(), self.c_queue.front()) {
            (Some(l), Some(c)) => {
                now.saturating_since(l.enqueued_at) + self.l_shift
                    >= now.saturating_since(c.enqueued_at)
            }
            (Some(_), None) => true,
            (None, _) => false,
        };
        if serve_l {
            let mut pkt = self.l_queue.pop_front()?;
            self.l_bytes -= pkt.size as u64;
            let sojourn = now.saturating_since(pkt.enqueued_at);
            // Step threshold OR coupled probabilistic marking.
            let p_l = self.l4s_probability();
            if (sojourn >= self.l_step_thresh || (p_l > 0.0 && self.rng.gen::<f64>() < p_l))
                && pkt.ecn != EcnCodepoint::Ce
            {
                pkt.ecn = EcnCodepoint::Ce;
                self.marks += 1;
            }
            self.stats.on_dequeue(&pkt);
            Some(pkt)
        } else {
            let pkt = self.c_queue.pop_front()?;
            self.c_bytes -= pkt.size as u64;
            self.stats.on_dequeue(&pkt);
            Some(pkt)
        }
    }

    fn len(&self) -> usize {
        self.total_len()
    }

    fn bytes(&self) -> u64 {
        self.l_bytes + self.c_bytes
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }

    #[cfg(test)]
    fn queued(&self) -> Vec<&Packet> {
        self.l_queue.iter().chain(&self.c_queue).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{EndpointId, FlowId, ServiceId, MTU_BYTES};

    fn classic_pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), ServiceId(0), EndpointId(0), seq, MTU_BYTES)
    }

    fn l4s_pkt(seq: u64) -> Packet {
        let mut p = Packet::data(FlowId(1), ServiceId(1), EndpointId(0), seq, MTU_BYTES);
        p.ecn = EcnCodepoint::Ect1;
        p
    }

    fn queue() -> DualPi2Queue {
        DualPi2Queue::new(
            128,
            SimDuration::from_millis(15),
            SimDuration::from_millis(16),
            2.0,
            SimDuration::from_millis(1),
            7,
        )
    }

    #[test]
    fn idle_queue_marks_and_drops_nothing() {
        let mut q = queue();
        let mut now = SimTime::ZERO;
        for seq in 0..200 {
            let mut p = if seq % 2 == 0 {
                classic_pkt(seq)
            } else {
                l4s_pkt(seq)
            };
            p.enqueued_at = now;
            assert_eq!(q.enqueue(p, now), EnqueueResult::Queued);
            let out = q.dequeue(now).expect("immediate dequeue");
            assert_ne!(out.ecn, EcnCodepoint::Ce, "no sojourn, no mark");
            now += SimDuration::from_micros(100);
        }
        assert_eq!(q.total_drops(), 0);
        assert_eq!(q.total_marks(), 0);
        assert_eq!(q.base_probability(), 0.0);
    }

    #[test]
    fn l4s_packets_route_to_the_low_latency_queue() {
        let mut q = queue();
        let now = SimTime::ZERO;
        q.enqueue(classic_pkt(0), now);
        q.enqueue(l4s_pkt(1), now);
        q.enqueue(classic_pkt(2), now);
        // Same enqueue instant: the L head's time-shift advantage wins.
        assert_eq!(q.dequeue(now).unwrap().seq, 1);
        assert_eq!(q.dequeue(now).unwrap().seq, 0);
        assert_eq!(q.dequeue(now).unwrap().seq, 2);
    }

    #[test]
    fn deep_l_sojourn_step_marks() {
        let mut q = queue();
        let mut p = l4s_pkt(0);
        p.enqueued_at = SimTime::ZERO;
        q.enqueue(p, SimTime::ZERO);
        // Dequeue 5 ms later: sojourn far above the 1 ms step threshold.
        let out = q.dequeue(SimTime::from_millis(5)).unwrap();
        assert_eq!(out.ecn, EcnCodepoint::Ce);
        assert_eq!(q.total_marks(), 1);
    }

    #[test]
    fn standing_classic_queue_raises_p_and_drops() {
        let mut q = queue();
        let mut now = SimTime::ZERO;
        let mut dropped = 0u64;
        // Hold a standing classic backlog with 40+ ms of sojourn for a
        // simulated second: the PI controller must push p' up and start
        // dropping NotEct packets.
        for seq in 0..2000u64 {
            let mut p = classic_pkt(seq);
            p.enqueued_at = now;
            if q.enqueue(p, now) == EnqueueResult::Dropped {
                dropped += 1;
            }
            if q.len() > 40 {
                q.dequeue(now);
            }
            now += SimDuration::from_millis(1);
        }
        assert!(q.base_probability() > 0.0, "PI must engage");
        assert!(dropped > 0, "classic overload must shed load by dropping");
    }

    #[test]
    fn marking_probability_is_monotone_in_base_probability() {
        // min(k·p', 1) and p'² are both monotone; pin it numerically over
        // a sweep so a future refactor can't silently invert the coupling.
        let mut q = queue();
        let mut last_l = -1.0;
        let mut last_c = -1.0;
        for i in 0..=100 {
            q.pi2.p = i as f64 / 100.0;
            let l = q.l4s_probability();
            let c = q.classic_probability();
            assert!(l >= last_l, "l4s probability decreased at p'={}", q.pi2.p);
            assert!(
                c >= last_c,
                "classic probability decreased at p'={}",
                q.pi2.p
            );
            assert!(
                l >= c,
                "coupling must mark L4S at least as often as classic"
            );
            last_l = l;
            last_c = c;
        }
        assert_eq!(q.l4s_probability(), 1.0);
        assert_eq!(q.classic_probability(), 1.0);
    }

    #[test]
    fn marks_do_not_count_as_drops() {
        let mut q = queue();
        // Force p' to maximum: every classic NotEct arrival drops, every
        // ECT packet marks instead.
        q.pi2.p = 1.0;
        q.pi2.next_update = SimTime::from_secs(1_000_000); // freeze controller
        let now = SimTime::ZERO;
        let mut ect0 = classic_pkt(0);
        ect0.ecn = EcnCodepoint::Ect0;
        assert_eq!(q.enqueue(ect0, now), EnqueueResult::Queued);
        assert_eq!(q.enqueue(classic_pkt(1), now), EnqueueResult::Dropped);
        let out = q.dequeue(now).unwrap();
        assert_eq!(
            out.ecn,
            EcnCodepoint::Ce,
            "ECT(0) marks instead of dropping"
        );
        assert_eq!(q.total_drops(), 1);
        assert_eq!(q.total_marks(), 1);
    }

    #[test]
    fn conserves_packets_under_mixed_load() {
        let mut q = queue();
        let mut now = SimTime::ZERO;
        let mut enqueued = 0u64;
        let mut dequeued = 0u64;
        for seq in 0..5000u64 {
            let mut p = if seq % 3 == 0 {
                l4s_pkt(seq)
            } else {
                classic_pkt(seq)
            };
            p.enqueued_at = now;
            if q.enqueue(p, now) == EnqueueResult::Queued {
                enqueued += 1;
            }
            if seq % 2 == 0 && q.dequeue(now).is_some() {
                dequeued += 1;
            }
            now += SimDuration::from_micros(500);
        }
        while q.dequeue(now).is_some() {
            dequeued += 1;
        }
        assert_eq!(enqueued, dequeued, "every queued packet must come back out");
        let total_arrived: u64 = q
            .services()
            .iter()
            .map(|s| q.service_stats(*s).arrived_pkts)
            .sum();
        assert_eq!(total_arrived, 5000);
        assert_eq!(enqueued + q.total_drops(), total_arrived);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut q = DualPi2Queue::new(
                64,
                SimDuration::from_millis(15),
                SimDuration::from_millis(16),
                2.0,
                SimDuration::from_millis(1),
                seed,
            );
            let mut now = SimTime::ZERO;
            let mut outcomes = Vec::new();
            for seq in 0..3000u64 {
                let mut p = if seq % 4 == 0 {
                    l4s_pkt(seq)
                } else {
                    classic_pkt(seq)
                };
                p.enqueued_at = now;
                outcomes.push(q.enqueue(p, now) == EnqueueResult::Queued);
                if seq % 2 == 0 {
                    if let Some(out) = q.dequeue(now) {
                        outcomes.push(out.is_ce());
                    }
                }
                now += SimDuration::from_millis(1);
            }
            outcomes
        };
        assert_eq!(run(5), run(5));
    }
}
