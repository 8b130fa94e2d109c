//! Runtime invariant checking for the simulation engine.
//!
//! The watchdog's verdicts are only as trustworthy as the queue dynamics
//! underneath them, so the engine can police itself while it runs: an
//! [`InvariantGuard`] is woven into the event loop and checks, after every
//! event,
//!
//! * **monotonic clock** — no event fires before the current time;
//! * **occupancy bound** — the discipline never holds more than its
//!   configured capacity;
//! * **packet conservation** — every packet offered to the bottleneck is
//!   accounted for: `arrivals == dequeued + dropped + still queued`,
//!   including disciplines that drop internally at dequeue (CoDel head
//!   drops);
//! * **per-service conservation** — the per-service arrival/drop ledgers
//!   (which feed the loss-rate heatmap) sum to the same totals, and the
//!   per-service occupancy counters sum to the queue's length;
//! * **no dropped dispatch** — every delivered packet and fired timer
//!   finds the endpoint it is addressed to (release builds without the
//!   guard count them in `Engine::dropped_dispatches` instead).
//!
//! A violation panics with the trial's [`ScenarioSpec`] JSON and seed, so
//! any failure reproduces with a one-command rerun of that scenario+seed.
//!
//! # Gating
//!
//! Checks are debug-assert-style: on by default in debug builds (so the
//! whole test suite runs guarded) and off in release builds, where the
//! bench CI gate would notice the extra work. Three overrides exist:
//!
//! * the `invariants` cargo feature force-enables them at compile time;
//! * the `PRUDENTIA_INVARIANTS` environment variable force-enables (`1`,
//!   `true`, `on`) or force-disables (`0`, `false`, `off`) them at
//!   process start;
//! * [`Engine::enable_invariants`](crate::Engine::enable_invariants)
//!   force-enables them for one engine regardless of build flavour —
//!   this is what `prudentia --validate` uses in release builds.

use crate::aqm::QueueDiscipline;
use crate::packet::EndpointId;
use crate::scenario::ScenarioSpec;
use crate::time::SimTime;
use std::sync::OnceLock;

/// Whether invariant checking is on for newly built engines.
///
/// Resolution order: `PRUDENTIA_INVARIANTS` env override, then the
/// `invariants` cargo feature, then `debug_assertions`.
pub fn runtime_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("PRUDENTIA_INVARIANTS") {
        Ok(v) => !matches!(v.as_str(), "0" | "false" | "off" | ""),
        Err(_) => cfg!(feature = "invariants") || cfg!(debug_assertions),
    })
}

/// Counters and repro context for the engine's self-checks.
///
/// The guard only ever *reads* simulation state (and keeps its own two
/// counters), so enabling it cannot change a trial's outcome — only make
/// it slower.
#[derive(Debug)]
pub struct InvariantGuard {
    scenario_json: String,
    seed: u64,
    arrivals: u64,
    dequeues: u64,
    /// Queue audits performed, for decimating the O(#services) ledger walk.
    audits: u64,
}

impl InvariantGuard {
    /// A guard for a trial running `scenario` under `seed`.
    pub fn new(scenario: &ScenarioSpec, seed: u64) -> Self {
        Self::from_json(scenario.to_json_compact(), seed)
    }

    /// A guard whose repro context is an already-serialized scenario.
    pub fn from_json(scenario_json: String, seed: u64) -> Self {
        InvariantGuard {
            scenario_json,
            seed,
            arrivals: 0,
            dequeues: 0,
            audits: 0,
        }
    }

    /// Packets offered to the bottleneck so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Packets the discipline has handed back for serialization so far.
    pub fn dequeues(&self) -> u64 {
        self.dequeues
    }

    /// Record a packet offered to the bottleneck queue.
    #[inline]
    pub fn on_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// Record a packet the discipline returned from `dequeue`.
    #[inline]
    pub fn on_dequeue(&mut self) {
        self.dequeues += 1;
    }

    /// The event calendar must never run backwards.
    #[inline]
    pub fn check_clock(&self, event_at: SimTime, now: SimTime) {
        if event_at < now {
            self.violated(&format!(
                "monotonic clock: event at {:?} fired while the clock was already at {:?}",
                event_at, now
            ));
        }
    }

    /// Called when a packet or timer is addressed to `id` but the engine
    /// has no endpoint to hand it to. Endpoints are never removed and
    /// dispatch is not re-entrant, so this is always a violation.
    pub(crate) fn dispatch_dropped(&self, id: EndpointId, endpoints: usize) -> ! {
        self.violated(&format!(
            "dropped dispatch: an event was addressed to {id:?} but the engine has {endpoints} endpoints"
        ));
    }

    /// Bottleneck audit, called once per event: occupancy bound and packet
    /// conservation every time (O(1)), plus the per-service ledger walk
    /// (O(#services), allocates) on every 1024th call and so at the start
    /// and end of any run of ≥1024 events.
    pub fn check_queue(&mut self, queue: &dyn QueueDiscipline) {
        let audit_services = self.audits % 1024 == 0;
        self.audits += 1;
        let len = queue.len() as u64;
        let cap = queue.capacity() as u64;
        if len > cap {
            self.violated(&format!(
                "occupancy bound: {} holds {} packets but its capacity is {}",
                queue.kind(),
                len,
                cap
            ));
        }
        let drops = queue.total_drops();
        if self.arrivals != self.dequeues + drops + len {
            self.violated(&format!(
                "packet conservation at {}: {} arrivals != {} dequeued + {} dropped + {} queued",
                queue.kind(),
                self.arrivals,
                self.dequeues,
                drops,
                len
            ));
        }
        if !audit_services {
            return;
        }
        let mut arrived = 0u64;
        let mut dropped = 0u64;
        let mut queued = 0u64;
        for svc in queue.services() {
            let s = queue.service_stats(svc);
            arrived += s.arrived_pkts;
            dropped += s.dropped_pkts;
            queued += queue.occupancy_of(svc) as u64;
            if s.dropped_pkts > s.arrived_pkts {
                self.violated(&format!(
                    "per-service ledger for {:?} at {}: {} drops exceed {} arrivals",
                    svc,
                    queue.kind(),
                    s.dropped_pkts,
                    s.arrived_pkts
                ));
            }
        }
        if arrived != self.arrivals {
            self.violated(&format!(
                "per-service conservation at {}: service ledgers sum to {} arrivals, engine saw {}",
                queue.kind(),
                arrived,
                self.arrivals
            ));
        }
        if dropped != drops {
            self.violated(&format!(
                "per-service conservation at {}: service ledgers sum to {} drops, discipline reports {}",
                queue.kind(),
                dropped,
                drops
            ));
        }
        if queued != len {
            self.violated(&format!(
                "per-service occupancy at {}: service counters sum to {} queued, discipline holds {}",
                queue.kind(),
                queued,
                len
            ));
        }
    }

    /// Panic with enough context to reproduce the failing trial.
    fn violated(&self, what: &str) -> ! {
        panic!(
            "engine invariant violated: {what}\n  repro: seed={} scenario={}",
            self.seed, self.scenario_json
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{EndpointId, FlowId, Packet, ServiceId};
    use crate::queue::DropTailQueue;
    use crate::time::SimDuration;

    fn guard() -> InvariantGuard {
        InvariantGuard::new(&ScenarioSpec::default(), 7)
    }

    #[test]
    fn balanced_ledger_passes() {
        let mut g = guard();
        let mut q = DropTailQueue::new(2);
        for seq in 0..4 {
            g.on_arrival();
            let pkt = Packet::data(FlowId(0), ServiceId(0), EndpointId(0), seq, 1500);
            let _ = crate::aqm::QueueDiscipline::enqueue(&mut q, pkt, SimTime::ZERO);
        }
        // 2 queued, 2 tail-dropped: conservation holds with zero dequeues.
        g.check_queue(&q);
        while crate::aqm::QueueDiscipline::dequeue(&mut q, SimTime::ZERO).is_some() {
            g.on_dequeue();
        }
        g.check_queue(&q);
        assert_eq!(g.arrivals(), 4);
        assert_eq!(g.dequeues(), 2);
    }

    #[test]
    #[should_panic(expected = "packet conservation")]
    fn missing_arrival_is_caught() {
        let mut g = guard();
        let mut q = DropTailQueue::new(4);
        // Enqueue behind the guard's back: ledger no longer balances.
        let pkt = Packet::data(FlowId(0), ServiceId(0), EndpointId(0), 0, 1500);
        let _ = crate::aqm::QueueDiscipline::enqueue(&mut q, pkt, SimTime::ZERO);
        g.check_queue(&q);
    }

    /// A drop-tail queue whose own per-service book records arrivals and
    /// drops but forgets to count packets in: the bug the occupancy audit
    /// exists to catch.
    #[derive(Debug)]
    struct Forgetful {
        inner: DropTailQueue,
        stats: crate::aqm::QdiscStats,
    }

    impl crate::aqm::QueueDiscipline for Forgetful {
        fn kind(&self) -> &'static str {
            "forgetful"
        }
        fn capacity(&self) -> usize {
            self.inner.capacity()
        }
        fn enqueue(&mut self, pkt: Packet, _now: SimTime) -> crate::queue::EnqueueResult {
            self.stats.on_arrival(&pkt);
            let res = self.inner.enqueue(pkt.clone());
            if res == crate::queue::EnqueueResult::Dropped {
                self.stats.on_drop(&pkt);
            }
            res
        }
        fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
            self.inner.dequeue()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn bytes(&self) -> u64 {
            self.inner.bytes()
        }
        fn stats(&self) -> &crate::aqm::QdiscStats {
            &self.stats
        }
        fn queued(&self) -> Vec<&Packet> {
            self.inner.queued()
        }
    }

    #[test]
    #[should_panic(expected = "per-service occupancy at forgetful")]
    fn occupancy_counters_must_sum_to_len() {
        let mut g = guard();
        let mut q = Forgetful {
            inner: DropTailQueue::new(4),
            stats: Default::default(),
        };
        g.on_arrival();
        let pkt = Packet::data(FlowId(0), ServiceId(0), EndpointId(0), 0, 1500);
        let _ = crate::aqm::QueueDiscipline::enqueue(&mut q, pkt, SimTime::ZERO);
        g.check_queue(&q);
    }

    #[test]
    #[should_panic(expected = "monotonic clock")]
    fn backwards_clock_is_caught() {
        let g = guard();
        g.check_clock(SimTime::ZERO, SimTime::ZERO + SimDuration::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "seed=7")]
    fn violations_carry_the_repro_seed() {
        let g = guard();
        g.check_clock(SimTime::ZERO, SimTime::ZERO + SimDuration::from_nanos(1));
    }
}
