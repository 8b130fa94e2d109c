//! Pluggable queue disciplines for the bottleneck (the scenario
//! subsystem's AQM axis).
//!
//! Prudentia's testbed measures every pair behind one fixed discipline: a
//! drop-tail FIFO sized to 4×BDP (§3.1). The paper itself flags queue
//! sizing and discipline as a key driver of its verdicts (Obs 11), and
//! related work shows fairness verdicts flip under CoDel-style AQM or
//! per-flow scheduling. This module extracts the queue behind a
//! [`QueueDiscipline`] trait so a scenario can swap the discipline
//! without touching the engine, and provides three classic AQMs:
//!
//! * [`CoDelQueue`] — sojourn-time based head dropping (RFC 8289),
//! * [`FqCoDelQueue`] — per-flow queues + deficit round-robin with CoDel
//!   on each flow (RFC 8290),
//! * [`RedQueue`] — random early detection over an EWMA of occupancy,
//! * [`DualPi2Queue`] — the coupled L4S dual queue (RFC 9332), marking
//!   ECT(1) traffic at a shallow threshold instead of dropping it.
//!
//! Disciplines are built from a serializable [`QdiscSpec`], which is part
//! of the scenario key: two trials differing only in qdisc parameters
//! hash to different trial-cache entries.
//!
//! All disciplines are fully deterministic. RED's drop coin-flips come
//! from a dedicated RNG seeded from the experiment seed, so trials stay
//! byte-reproducible across runs and worker counts.

mod codel;
mod dualpi2;
mod fq_codel;
mod red;

pub use codel::{CoDelQueue, CoDelState};
pub use dualpi2::DualPi2Queue;
pub use fq_codel::FqCoDelQueue;
pub use red::RedQueue;

use crate::packet::{Packet, ServiceId};
use crate::queue::{DropTailQueue, EnqueueResult, ServiceQueueStats};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A bottleneck queueing discipline.
///
/// The engine offers packets at enqueue time and pulls the next packet to
/// serialize at dequeue time; both hooks receive the simulation clock so
/// sojourn-based disciplines (CoDel) can act on queueing delay. Per-service
/// arrival/drop accounting feeds the loss-rate heatmap (Fig 12) exactly as
/// the drop-tail queue always did; disciplines that drop at dequeue (CoDel)
/// charge the drop to the packet's service the same way.
pub trait QueueDiscipline: std::fmt::Debug + Send {
    /// Short stable identifier ("droptail", "codel", ...).
    fn kind(&self) -> &'static str;

    /// Configured hard capacity in packets.
    fn capacity(&self) -> usize;

    /// Offer a packet. `now` is the arrival instant; the packet's
    /// `enqueued_at` field has already been stamped by the engine.
    fn enqueue(&mut self, pkt: Packet, now: SimTime) -> EnqueueResult;

    /// Pull the next packet to serialize, or `None` if idle. Disciplines
    /// may drop packets internally here (CoDel head drops).
    fn dequeue(&mut self, now: SimTime) -> Option<Packet>;

    /// Current occupancy in packets.
    fn len(&self) -> usize;

    /// Whether the queue holds no packets.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current occupancy in bytes.
    fn bytes(&self) -> u64;

    /// The discipline's per-service accounting, which every method below
    /// reads.
    fn stats(&self) -> &QdiscStats;

    /// Every queued packet, in no particular order: the reference the
    /// tests walk to check the O(1) counters in [`QdiscStats`].
    #[cfg(test)]
    fn queued(&self) -> Vec<&Packet>;

    /// Highest occupancy seen so far.
    fn max_occupancy(&self) -> usize {
        self.stats().max_occupancy()
    }

    /// Total packets dropped so far (tail, early, and head drops).
    fn total_drops(&self) -> u64 {
        self.stats().total_drops()
    }

    /// Per-service arrival/drop counters.
    fn service_stats(&self, service: ServiceId) -> ServiceQueueStats {
        self.stats().service_stats(service)
    }

    /// All services seen at this queue, in ascending id order.
    fn services(&self) -> Vec<ServiceId> {
        self.stats().services()
    }

    /// Count of queued packets belonging to `service` (Fig 8 samples).
    fn occupancy_of(&self, service: ServiceId) -> usize {
        self.stats().occupancy_of(service)
    }
}

/// Shared per-service accounting used by every discipline.
///
/// Counters live in a `Vec` indexed by `ServiceId.0`: service ids are
/// small and dense by construction (the same assumption [`crate::Trace`]
/// makes), so every per-packet update is an index, and iterating the
/// `Vec` visits services in ascending id order. Besides arrivals and
/// drops it counts each service's packets currently queued, which the
/// discipline maintains at enqueue, dequeue and head drop, so
/// [`QueueDiscipline::occupancy_of`] is a lookup instead of a walk of the
/// queue.
#[derive(Debug, Clone, Default)]
pub struct QdiscStats {
    per_service: Vec<ServiceBook>,
    total_drops: u64,
    max_occupancy: usize,
}

/// One service's entry in [`QdiscStats`].
#[derive(Debug, Clone, Copy, Default)]
struct ServiceBook {
    counters: ServiceQueueStats,
    queued: usize,
}

impl QdiscStats {
    fn book(&mut self, service: ServiceId) -> &mut ServiceBook {
        let idx = service.0 as usize;
        if idx >= self.per_service.len() {
            self.per_service.resize(idx + 1, ServiceBook::default());
        }
        &mut self.per_service[idx]
    }

    /// Record a packet arriving at the queue (before any drop decision).
    pub fn on_arrival(&mut self, pkt: &Packet) {
        let e = &mut self.book(pkt.service).counters;
        e.arrived_pkts += 1;
        e.arrived_bytes += pkt.size as u64;
    }

    /// Record a packet dropped before it was queued (at the tail or
    /// early).
    pub fn on_drop(&mut self, pkt: &Packet) {
        let e = &mut self.book(pkt.service).counters;
        e.dropped_pkts += 1;
        e.dropped_bytes += pkt.size as u64;
        self.total_drops += 1;
    }

    /// Record a packet joining the queue.
    pub fn on_enqueue(&mut self, pkt: &Packet) {
        self.book(pkt.service).queued += 1;
    }

    /// Track the high-water occupancy mark.
    pub fn note_occupancy(&mut self, len: usize) {
        self.max_occupancy = self.max_occupancy.max(len);
    }

    /// Record a packet leaving the queue for the link.
    pub fn on_dequeue(&mut self, pkt: &Packet) {
        self.book(pkt.service).queued -= 1;
    }

    /// Record a queued packet dropped from the head (CoDel, or an
    /// FQ-CoDel overflow).
    pub fn on_head_drop(&mut self, pkt: &Packet) {
        self.on_dequeue(pkt);
        self.on_drop(pkt);
    }

    /// Total drops so far.
    pub fn total_drops(&self) -> u64 {
        self.total_drops
    }

    /// Highest occupancy seen.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Counters for one service (zero if never seen).
    pub fn service_stats(&self, service: ServiceId) -> ServiceQueueStats {
        self.per_service
            .get(service.0 as usize)
            .map(|b| b.counters)
            .unwrap_or_default()
    }

    /// Services seen (with at least one arrival or drop), ascending by id.
    pub fn services(&self) -> Vec<ServiceId> {
        self.per_service
            .iter()
            .enumerate()
            .filter(|(_, b)| b.counters.arrived_pkts > 0 || b.counters.dropped_pkts > 0)
            .map(|(i, _)| ServiceId(i as u32))
            .collect()
    }

    /// Packets of `service` in the queue right now.
    pub fn occupancy_of(&self, service: ServiceId) -> usize {
        self.per_service
            .get(service.0 as usize)
            .map_or(0, |b| b.queued)
    }
}

/// Serializable configuration of a queue discipline.
///
/// Participates in [`ScenarioSpec`](crate::scenario::ScenarioSpec) and —
/// through the experiment spec's canonical JSON — in the trial-cache key,
/// so changing any parameter re-runs the affected trials.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum QdiscSpec {
    /// The paper's drop-tail FIFO (the default; §3.1).
    #[default]
    DropTail,
    /// CoDel (RFC 8289) with the given target sojourn and interval.
    CoDel {
        /// Target sojourn time (default 5 ms).
        target: SimDuration,
        /// Sliding estimation window (default 100 ms).
        interval: SimDuration,
    },
    /// FQ-CoDel (RFC 8290): per-flow queues + DRR + CoDel per flow.
    FqCodel {
        /// CoDel target per flow queue.
        target: SimDuration,
        /// CoDel interval per flow queue.
        interval: SimDuration,
        /// DRR quantum in bytes (default one MTU).
        quantum_bytes: u32,
        /// Number of flow buckets (flows hash into these).
        flows: u32,
    },
    /// Random Early Detection over an EWMA of instantaneous occupancy.
    Red {
        /// Lower EWMA threshold, as a fraction of capacity.
        min_th_frac: f64,
        /// Upper EWMA threshold, as a fraction of capacity.
        max_th_frac: f64,
        /// Drop probability at `max_th` (classic RED: 0.1).
        max_p: f64,
    },
    /// DualPI2 (RFC 9332): coupled L4S + classic queues. ECT(1) packets
    /// take a shallow marking queue; everything else takes a PI-managed
    /// classic queue.
    DualPi2 {
        /// Classic-queue delay target for the PI controller.
        target: SimDuration,
        /// PI controller update interval.
        t_update: SimDuration,
        /// Coupling factor: L4S mark probability is `min(k·p', 1)`.
        k: f64,
        /// Instantaneous L-queue sojourn above which every packet marks.
        l_step_thresh: SimDuration,
    },
}

impl QdiscSpec {
    /// CoDel with the RFC 8289 defaults (5 ms target, 100 ms interval).
    pub fn codel() -> Self {
        QdiscSpec::CoDel {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
        }
    }

    /// FQ-CoDel with the RFC 8290 defaults (1024 buckets, MTU quantum).
    pub fn fq_codel() -> Self {
        QdiscSpec::FqCodel {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
            quantum_bytes: crate::packet::MTU_BYTES,
            flows: 1024,
        }
    }

    /// Classic RED: thresholds at 25% / 75% of capacity, max_p = 0.1.
    pub fn red() -> Self {
        QdiscSpec::Red {
            min_th_frac: 0.25,
            max_th_frac: 0.75,
            max_p: 0.1,
        }
    }

    /// DualPI2 with the RFC 9332 reference defaults: 15 ms classic
    /// target, 16 ms update interval, coupling k = 2, 1 ms L-queue step
    /// threshold.
    pub fn dualpi2() -> Self {
        QdiscSpec::DualPi2 {
            target: SimDuration::from_millis(15),
            t_update: SimDuration::from_millis(16),
            k: 2.0,
            l_step_thresh: SimDuration::from_millis(1),
        }
    }

    /// Short stable identifier, matching [`QueueDiscipline::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            QdiscSpec::DropTail => "droptail",
            QdiscSpec::CoDel { .. } => "codel",
            QdiscSpec::FqCodel { .. } => "fq_codel",
            QdiscSpec::Red { .. } => "red",
            QdiscSpec::DualPi2 { .. } => "dualpi2",
        }
    }

    /// Instantiate the discipline for a queue of `capacity_pkts` packets.
    /// `seed` drives any stochastic behaviour (RED's drop coin-flips);
    /// deterministic disciplines ignore it.
    pub fn build(&self, capacity_pkts: usize, seed: u64) -> Box<dyn QueueDiscipline> {
        match *self {
            QdiscSpec::DropTail => Box::new(DropTailQueue::new(capacity_pkts)),
            QdiscSpec::CoDel { target, interval } => {
                Box::new(CoDelQueue::new(capacity_pkts, target, interval))
            }
            QdiscSpec::FqCodel {
                target,
                interval,
                quantum_bytes,
                flows,
            } => Box::new(FqCoDelQueue::new(
                capacity_pkts,
                flows,
                quantum_bytes,
                target,
                interval,
            )),
            QdiscSpec::Red {
                min_th_frac,
                max_th_frac,
                max_p,
            } => Box::new(RedQueue::new(
                capacity_pkts,
                min_th_frac,
                max_th_frac,
                max_p,
                seed,
            )),
            QdiscSpec::DualPi2 {
                target,
                t_update,
                k,
                l_step_thresh,
            } => Box::new(DualPi2Queue::new(
                capacity_pkts,
                target,
                t_update,
                k,
                l_step_thresh,
                seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{EndpointId, FlowId};

    fn pkt(svc: u32, seq: u64) -> Packet {
        Packet::data(FlowId(svc), ServiceId(svc), EndpointId(0), seq, 1500)
    }

    #[test]
    fn spec_builds_matching_kind() {
        for spec in [
            QdiscSpec::DropTail,
            QdiscSpec::codel(),
            QdiscSpec::fq_codel(),
            QdiscSpec::red(),
            QdiscSpec::dualpi2(),
        ] {
            let q = spec.build(64, 1);
            assert_eq!(q.kind(), spec.kind());
            assert_eq!(q.capacity(), 64);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn spec_serializes_roundtrip() {
        for spec in [
            QdiscSpec::DropTail,
            QdiscSpec::codel(),
            QdiscSpec::fq_codel(),
            QdiscSpec::red(),
            QdiscSpec::dualpi2(),
        ] {
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: QdiscSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn every_discipline_round_trips_packets_fifo_when_idle() {
        // Under light load (instant dequeue) every discipline behaves as a
        // FIFO with no drops.
        for spec in [
            QdiscSpec::DropTail,
            QdiscSpec::codel(),
            QdiscSpec::fq_codel(),
            QdiscSpec::red(),
            QdiscSpec::dualpi2(),
        ] {
            let mut q = spec.build(64, 3);
            let mut now = SimTime::ZERO;
            for seq in 0..20 {
                let mut p = pkt(0, seq);
                p.enqueued_at = now;
                assert_eq!(q.enqueue(p, now), EnqueueResult::Queued, "{}", spec.kind());
                let got = q.dequeue(now).expect("immediate dequeue");
                assert_eq!(got.seq, seq, "{}", spec.kind());
                now += SimDuration::from_micros(100);
            }
            assert_eq!(q.total_drops(), 0, "{}", spec.kind());
            assert_eq!(q.service_stats(ServiceId(0)).arrived_pkts, 20);
        }
    }

    #[test]
    fn stats_book_tracks_arrivals_drops_and_high_water() {
        let mut s = QdiscStats::default();
        let p = pkt(3, 0);
        s.on_arrival(&p);
        s.on_arrival(&p);
        s.on_arrival(&p);
        s.on_drop(&p);
        s.on_enqueue(&p);
        s.on_enqueue(&p);
        s.note_occupancy(5);
        s.note_occupancy(2);
        assert_eq!(s.occupancy_of(ServiceId(3)), 2);
        s.on_dequeue(&p);
        s.on_head_drop(&p);
        assert_eq!(s.occupancy_of(ServiceId(3)), 0);
        assert_eq!(s.service_stats(ServiceId(3)).arrived_pkts, 3);
        assert_eq!(s.service_stats(ServiceId(3)).dropped_pkts, 2);
        assert_eq!(s.total_drops(), 2);
        assert_eq!(s.max_occupancy(), 5);
        assert_eq!(s.services(), vec![ServiceId(3)]);
        assert_eq!(s.service_stats(ServiceId(9)).arrived_pkts, 0);
        assert_eq!(s.occupancy_of(ServiceId(9)), 0);
    }
}
