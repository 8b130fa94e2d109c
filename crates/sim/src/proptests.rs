//! Property-based tests of the simulator core.

#![cfg(test)]

use crate::aqm::{QdiscSpec, QueueDiscipline};
use crate::engine::{Ctx, Endpoint, Engine};
use crate::event::Event;
use crate::link::{BottleneckConfig, PathSpec};
use crate::packet::{EcnCodepoint, EndpointId, FlowId, Packet, PacketArena, ServiceId};
use crate::queue::{pow2_round, DropTailQueue, EnqueueResult, ServiceQueueStats};
use crate::scenario::{ImpairmentSpec, RateStep, ScenarioSpec};
use crate::time::{round_nonneg, SimDuration, SimTime};
use crate::wheel::{TimingWheel, HORIZON_TICKS, SLOT_BITS, TICK_SHIFT};
use proptest::prelude::*;

/// The four disciplines, for invariant tests that must hold for all.
fn all_qdiscs() -> [QdiscSpec; 4] {
    [
        QdiscSpec::DropTail,
        QdiscSpec::codel(),
        QdiscSpec::fq_codel(),
        QdiscSpec::red(),
    ]
}

/// Drive a discipline with an arbitrary interleaving of enqueues and
/// dequeues; returns (arrived, delivered, resident) for conservation checks.
fn churn(
    q: &mut dyn QueueDiscipline,
    arrivals: &[(u32, u32, u8)], // (flow, size-class, dequeues after)
) -> (u64, u64, u64) {
    let mut now = SimTime::ZERO;
    let mut arrived = 0u64;
    let mut delivered = 0u64;
    for (seq, &(flow, size_class, deqs)) in arrivals.iter().enumerate() {
        let size = 100 + (size_class % 15) * 100; // 100..1500 bytes
        let mut p = Packet::data(
            FlowId(flow),
            ServiceId(flow % 4),
            EndpointId(0),
            seq as u64,
            size,
        );
        p.enqueued_at = now;
        arrived += 1;
        q.enqueue(p, now);
        for _ in 0..deqs {
            now += SimDuration::from_millis(3);
            if q.dequeue(now).is_some() {
                delivered += 1;
            }
        }
    }
    (arrived, delivered, q.len() as u64)
}

/// Every discipline, DualPI2 included.
fn every_qdisc() -> [QdiscSpec; 5] {
    [
        QdiscSpec::DropTail,
        QdiscSpec::codel(),
        QdiscSpec::fq_codel(),
        QdiscSpec::red(),
        QdiscSpec::dualpi2(),
    ]
}

/// Reference model of a discipline's per-service accounting, kept by
/// walking the packets it holds: a packet that was held (or just
/// offered) before an operation and is neither held after it nor handed
/// out by it was dropped.
#[derive(Default)]
struct QueueModel {
    stats: std::collections::BTreeMap<ServiceId, ServiceQueueStats>,
}

/// The packets a discipline holds, by their unique `seq`.
fn held(q: &dyn QueueDiscipline) -> std::collections::BTreeMap<u64, (ServiceId, u32)> {
    q.queued()
        .into_iter()
        .map(|p| (p.seq, (p.service, p.size)))
        .collect()
}

impl QueueModel {
    fn arrive(&mut self, p: &Packet) {
        let e = self.stats.entry(p.service).or_default();
        e.arrived_pkts += 1;
        e.arrived_bytes += p.size as u64;
    }

    /// Charge every packet in `before` that is gone from `q` and was not
    /// `handed_out` as a drop of its service.
    fn settle(
        &mut self,
        before: std::collections::BTreeMap<u64, (ServiceId, u32)>,
        q: &dyn QueueDiscipline,
        handed_out: Option<u64>,
    ) {
        let after = held(q);
        for (seq, (service, size)) in before {
            if !after.contains_key(&seq) && handed_out != Some(seq) {
                let e = self.stats.entry(service).or_default();
                e.dropped_pkts += 1;
                e.dropped_bytes += size as u64;
            }
        }
    }

    /// Compare `q`'s O(1) counters with the walk and with this model.
    fn check(&self, q: &dyn QueueDiscipline) -> Result<(), String> {
        let kind = q.kind();
        let services = q.services();
        if !services.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("{kind}: services() not ascending: {services:?}"));
        }
        let seen: Vec<ServiceId> = self.stats.keys().copied().collect();
        if services != seen {
            return Err(format!("{kind}: services() {services:?}, model {seen:?}"));
        }
        let queued = q.queued();
        let mut sum = 0;
        for svc in [0, 1, 2, 7, 8].map(ServiceId) {
            let walked = queued.iter().filter(|p| p.service == svc).count();
            let counted = q.occupancy_of(svc);
            if walked != counted {
                return Err(format!(
                    "{kind}: {svc:?} walk {walked} != counter {counted}"
                ));
            }
            sum += counted;
            let got = q.service_stats(svc);
            let want = self.stats.get(&svc).copied().unwrap_or_default();
            let fields = |s: ServiceQueueStats| {
                (
                    s.arrived_pkts,
                    s.arrived_bytes,
                    s.dropped_pkts,
                    s.dropped_bytes,
                )
            };
            if fields(got) != fields(want) {
                return Err(format!("{kind}: {svc:?} stats {got:?} != model {want:?}"));
            }
        }
        if sum != q.len() || queued.len() != q.len() {
            return Err(format!(
                "{kind}: counters sum to {sum}, walk finds {}, len is {}",
                queued.len(),
                q.len()
            ));
        }
        Ok(())
    }
}

#[test]
fn round_nonneg_matches_round_at_the_edges() {
    let two = |e: i32| 2f64.powi(e);
    let mut xs = vec![
        0.0,
        0.49999999999999994, // largest double below 0.5
        0.5,
        1.0 - f64::EPSILON / 2.0,
        two(52) - 1.0,
        two(52) - 0.5,
        two(52),
        two(52) + 1.0,
        two(53) - 1.0,
        two(53),
        two(53) + 2.0, // 2^53 + 1 is not a double
        two(63),
        two(64) - 2048.0,
        two(64),
        two(64) * 1.5,
        1e300,
        f64::MAX,
        f64::INFINITY,
    ];
    xs.extend((0..64).map(|k| k as f64 + 0.5));
    xs.extend((0..64).map(|k| 1e6 * k as f64 + 0.5));
    for x in xs {
        assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:e}");
    }
}

/// Strategy for a random impairment schedule: loss, jitter, reordering
/// and up to three rate steps, each in a realistic range.
fn impairment_strategy() -> impl Strategy<Value = ImpairmentSpec> {
    (
        0.0f64..0.05,     // loss_prob
        0u64..5_000_000,  // jitter, ns
        0.0f64..0.01,     // reorder_prob
        0u64..10_000_000, // reorder_extra, ns
        proptest::collection::vec((100u64..3000, 1u64..16), 0..3),
    )
        .prop_map(
            |(loss_prob, jitter, reorder_prob, reorder_extra, steps)| ImpairmentSpec {
                loss_prob,
                jitter: SimDuration::from_nanos(jitter),
                reorder_prob,
                reorder_extra: SimDuration::from_nanos(reorder_extra),
                rate_steps: steps
                    .into_iter()
                    .map(|(at_ms, mbps)| RateStep {
                        at: SimDuration::from_millis(at_ms),
                        rate_bps: mbps as f64 * 1e6,
                    })
                    .collect(),
                ..ImpairmentSpec::default()
            },
        )
}

/// Sends a burst of MTU packets every `every`, unconditionally, for the
/// whole run — an open-loop load generator that keeps the queue under
/// pressure regardless of drops.
struct OpenLoopSender {
    flow: FlowId,
    service: ServiceId,
    dst: EndpointId,
    burst: u64,
    every: SimDuration,
    seq: u64,
}

impl Endpoint for OpenLoopSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        for _ in 0..self.burst {
            let pkt = Packet::data(self.flow, self.service, self.dst, self.seq, 1500);
            self.seq += 1;
            ctx.send_data(pkt);
        }
        ctx.set_timer(self.every, 0);
    }
}

/// Swallows everything (open-loop senders need no ACKs).
struct Sink;

impl Endpoint for Sink {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_conserves_packets_under_random_impairments(
        seed in 0u64..10_000,
        impairment in impairment_strategy(),
        burst in 1u64..4,
        every_us in 500u64..5_000,
    ) {
        // The full engine path — scenario-built qdisc, impaired link,
        // jittered paths — must satisfy the conservation invariant
        // (arrivals == dequeues + drops + resident) for every discipline.
        // The InvariantGuard audits after every event (invariants are
        // force-enabled) and the final ledger and arena accounting are
        // re-checked here.
        for qdisc in all_qdiscs() {
            let scenario = ScenarioSpec { qdisc, impairment: impairment.clone() };
            let mut eng = Engine::with_scenario(
                BottleneckConfig { rate_bps: 8e6, queue_capacity_pkts: 32 },
                &scenario,
                seed,
            );
            eng.enable_invariants();
            let flow = eng.register_flow_jittered(
                PathSpec::symmetric(SimDuration::from_millis(20)),
            );
            eng.add_endpoint(Box::new(OpenLoopSender {
                flow,
                service: ServiceId(0),
                dst: EndpointId(1),
                burst,
                every: SimDuration::from_micros(every_us),
                seq: 0,
            }));
            eng.add_endpoint(Box::new(Sink));
            eng.run_until(SimTime::from_secs(2));
            let (arrivals, dequeues, drops, queued) =
                eng.conservation_ledger().expect("invariants enabled");
            prop_assert!(arrivals > 0, "no traffic reached the bottleneck");
            prop_assert_eq!(
                arrivals,
                dequeues + drops + queued,
                "conservation violated on {}",
                eng.qdisc_kind()
            );
            let (allocs, frees, live) = eng.arena_stats();
            prop_assert_eq!(
                allocs,
                frees + live as u64,
                "arena leaked handles on {}",
                eng.qdisc_kind()
            );
        }
    }
}

/// Nanoseconds per wheel tick, slots per level and the wheel horizon in
/// nanoseconds: the delay ranges below aim at these boundaries, so they
/// follow the wheel's constants instead of repeating them.
const TICK_NS: u64 = 1 << TICK_SHIFT;
const SLOTS: u64 = 1 << SLOT_BITS;
const HORIZON_NS: u64 = HORIZON_TICKS << TICK_SHIFT;

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut q = TimingWheel::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(
                SimTime::from_nanos(t),
                Event::Timer { endpoint: EndpointId(0), token: i as u64 },
            );
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last, "time went backwards");
            last = at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn equal_timestamps_preserve_insertion_order(
        n in 2usize..150,
        t in 0u64..1_000_000,
    ) {
        let mut q = TimingWheel::new();
        for token in 0..n as u64 {
            q.schedule(
                SimTime::from_nanos(t),
                Event::Timer { endpoint: EndpointId(0), token },
            );
        }
        let mut expect = 0u64;
        while let Some((_, Event::Timer { token, .. })) = q.pop() {
            prop_assert_eq!(token, expect, "FIFO broken");
            expect += 1;
        }
        prop_assert_eq!(expect, n as u64);
    }

    #[test]
    fn timing_wheel_matches_sorted_vec_model(
        ops in proptest::collection::vec(
            (
                0u8..5, // 0 = pop, 1..4 = schedule
                prop_oneof![
                    Just(0u64),                                // same instant (FIFO)
                    0u64..TICK_NS,                             // inside one tick
                    TICK_NS * (SLOTS - 2)..TICK_NS * (SLOTS + 2), // level-0 → 1 boundary
                    TICK_NS * (SLOTS * SLOTS - 2)..TICK_NS * (SLOTS * SLOTS + 2), // 1 → 2
                    0u64..HORIZON_NS / SLOTS,                  // every wheel level
                    HORIZON_NS - 2 * TICK_NS..HORIZON_NS * 3,  // across the horizon: overflow heap
                ],
            ),
            1..400,
        ),
    ) {
        // Drive the wheel and a sorted-vec reference model through the
        // same schedule/pop interleaving; both must agree on every popped
        // (time, token) pair. Delays are biased toward tick and cascade
        // boundaries, where wheel bugs live.
        let mut wheel = TimingWheel::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (at_ns, token)
        let mut now = 0u64;
        let mut token = 0u64;
        let drive =
            |wheel: &mut TimingWheel, model: &mut Vec<(u64, u64)>, now: &mut u64| {
                let got_w = wheel.pop();
                // Model: earliest (at, insertion order). Tokens are issued in
                // insertion order, so (at, token) is the full sort key.
                let want = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(at, tok))| (at, tok))
                    .map(|(i, _)| i);
                match (got_w, want) {
                    (Some((at, Event::Timer { token: tok, .. })), Some(i)) => {
                        let (mat, mtok) = model.remove(i);
                        prop_assert_eq!(at.as_nanos(), mat, "wheel vs model time");
                        prop_assert_eq!(tok, mtok, "wheel vs model order");
                        *now = mat;
                    }
                    (None, None) => {}
                    (got, want) => {
                        panic!("pop mismatch: got {got:?}, model {want:?}");
                    }
                }
            };
        for &(op, delay) in &ops {
            if op == 0 {
                drive(&mut wheel, &mut model, &mut now);
            } else {
                let at = now.saturating_add(delay);
                let ev = Event::Timer { endpoint: EndpointId(0), token };
                wheel.schedule(SimTime::from_nanos(at), ev);
                model.push((at, token));
                token += 1;
            }
            prop_assert_eq!(wheel.len(), model.len());
        }
        while !model.is_empty() {
            drive(&mut wheel, &mut model, &mut now);
        }
        prop_assert!(wheel.is_empty());
        prop_assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn arena_conserves_and_reuses_deterministically(
        ops in proptest::collection::vec((any::<bool>(), any::<u8>()), 1..300),
    ) {
        // One pass records the handle stream; identical op sequences on
        // fresh arenas — including on 2 and 8 parallel threads — must
        // reproduce it exactly (free-list reuse is LIFO-deterministic,
        // with no global state). Conservation holds after every step, and
        // freed handles immediately read back as stale.
        fn run(ops: &[(bool, u8)]) -> Vec<(u32, u32)> {
            let mut arena = PacketArena::new();
            let mut live_handles = Vec::new();
            let mut stream = Vec::new();
            for &(is_alloc, pick) in ops {
                if is_alloc || live_handles.is_empty() {
                    let h = arena.alloc(Packet::data(
                        FlowId(0), ServiceId(0), EndpointId(0), 0, 1500,
                    ));
                    stream.push((h.index(), h.generation()));
                    live_handles.push(h);
                } else {
                    let h = live_handles.swap_remove(pick as usize % live_handles.len());
                    let _ = arena.take(h);
                    assert!(arena.get(h).is_none(), "freed handle must be stale");
                }
                assert_eq!(arena.allocs(), arena.frees() + arena.live() as u64);
                assert_eq!(arena.live(), live_handles.len());
            }
            stream
        }
        let want = run(&ops);
        for parallelism in [2usize, 8] {
            let streams: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..parallelism)
                    .map(|_| s.spawn(|| run(&ops)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for stream in streams {
                prop_assert_eq!(&stream, &want, "handle stream diverged across threads");
            }
        }
    }

    #[test]
    fn queue_conserves_packets(
        capacity in 1usize..512,
        arrivals in proptest::collection::vec(0u32..8, 1..300),
    ) {
        // Interleave enqueues (count per step) with one dequeue per step;
        // queued + dropped + dequeued must equal arrivals.
        let mut q = DropTailQueue::new(capacity);
        let mut enq = 0u64;
        let mut deq = 0u64;
        let mut dropped = 0u64;
        let mut seq = 0u64;
        for &k in &arrivals {
            for _ in 0..k {
                let p = Packet::data(FlowId(0), ServiceId(0), EndpointId(0), seq, 1500);
                seq += 1;
                enq += 1;
                if q.enqueue(p) == EnqueueResult::Dropped {
                    dropped += 1;
                }
            }
            if q.dequeue().is_some() {
                deq += 1;
            }
        }
        prop_assert_eq!(enq, deq + dropped + q.len() as u64);
        prop_assert_eq!(dropped, q.total_drops());
        prop_assert!(q.len() <= capacity);
        prop_assert!(q.max_occupancy() <= capacity);
    }

    #[test]
    fn pow2_round_is_a_power_of_two_within_factor_two(n in 1u64..(1u64 << 40)) {
        let r = pow2_round(n);
        prop_assert!(r.is_power_of_two());
        prop_assert!(r >= n / 2, "{r} < {n}/2");
        prop_assert!(r <= n * 2, "{r} > {n}*2");
    }

    #[test]
    fn durations_add_commutatively(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((SimTime::ZERO + da) + db, (SimTime::ZERO + db) + da);
    }

    #[test]
    fn every_discipline_conserves_packets(
        capacity in 1usize..256,
        seed in 0u64..1000,
        arrivals in proptest::collection::vec((0u32..6, 0u32..15, 0u8..3), 1..200),
    ) {
        // Conservation: everything offered is delivered, dropped, or still
        // resident — for drop-tail, CoDel, FQ-CoDel and RED alike, even
        // though CoDel-style disciplines drop at dequeue time.
        for spec in all_qdiscs() {
            let mut q = spec.build(capacity, seed);
            let (arrived, delivered, resident) = churn(q.as_mut(), &arrivals);
            let per_service: u64 = q
                .services()
                .iter()
                .map(|&s| q.service_stats(s).arrived_pkts)
                .sum();
            prop_assert_eq!(per_service, arrived, "{} arrivals", spec.kind());
            prop_assert_eq!(
                arrived,
                delivered + q.total_drops() + resident,
                "{} conservation",
                spec.kind()
            );
        }
    }

    #[test]
    fn every_discipline_respects_capacity(
        capacity in 1usize..128,
        seed in 0u64..1000,
        arrivals in proptest::collection::vec((0u32..6, 0u32..15, 0u8..2), 1..200),
    ) {
        for spec in all_qdiscs() {
            let mut q = spec.build(capacity, seed);
            let mut now = SimTime::ZERO;
            for (seq, &(flow, size_class, deqs)) in arrivals.iter().enumerate() {
                let mut p = Packet::data(
                    FlowId(flow),
                    ServiceId(flow % 4),
                    EndpointId(0),
                    seq as u64,
                    100 + (size_class % 15) * 100,
                );
                p.enqueued_at = now;
                q.enqueue(p, now);
                prop_assert!(
                    q.len() <= capacity,
                    "{}: occupancy {} exceeds capacity {}",
                    spec.kind(), q.len(), capacity
                );
                for _ in 0..deqs {
                    now += SimDuration::from_millis(1);
                    q.dequeue(now);
                }
            }
            prop_assert!(q.max_occupancy() <= capacity, "{}", spec.kind());
        }
    }

    #[test]
    fn fq_codel_isolates_sparse_flow_from_flood(
        flood_pkts in 16u64..200,
        sparse_every in 4u64..16,
    ) {
        // A flooding flow overflows the queue; a sparse flow sending one
        // small packet every `sparse_every` flood packets must never lose
        // a packet to overflow — FQ-CoDel sheds from the fattest queue.
        let mut q = QdiscSpec::fq_codel().build(16, 1);
        let now = SimTime::ZERO;
        let mut sparse_sent = 0u64;
        for seq in 0..flood_pkts {
            let mut p = Packet::data(FlowId(0), ServiceId(0), EndpointId(0), seq, 1500);
            p.enqueued_at = now;
            q.enqueue(p, now);
            if seq % sparse_every == 0 {
                let mut s = Packet::data(FlowId(1), ServiceId(1), EndpointId(0), sparse_sent, 200);
                s.enqueued_at = now;
                q.enqueue(s, now);
                sparse_sent += 1;
                // Drain the sparse queue promptly (it has new-flow priority),
                // so it stays sparse rather than accumulating into a backlog.
                q.dequeue(now);
            }
        }
        let sparse = q.service_stats(ServiceId(1));
        prop_assert_eq!(sparse.arrived_pkts, sparse_sent);
        prop_assert_eq!(
            sparse.dropped_pkts, 0,
            "sparse flow lost packets to a flood (isolation violated)"
        );
        let flood = q.service_stats(ServiceId(0));
        prop_assert!(flood.dropped_pkts > 0 || flood_pkts <= 16);
    }

    #[test]
    fn serialization_time_scales_linearly(bytes in 1u32..100_000, rate in 1e5f64..1e9) {
        let one = crate::time::serialization_time(bytes, rate);
        let double_rate = crate::time::serialization_time(bytes, rate * 2.0);
        // Doubling the rate halves the time (within rounding).
        let ratio = one.as_nanos() as f64 / double_rate.as_nanos().max(1) as f64;
        prop_assert!((ratio - 2.0).abs() < 0.1 || one.as_nanos() < 100);
    }

    #[test]
    fn occupancy_counters_equal_a_walk_of_the_queue(
        capacity in 1usize..48,
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u32..3, 0u32..6, 0u8..4, 0u8..3, 0u32..15), 1..160),
    ) {
        // Services 0, 1 and 7 (non-contiguous ids), all four ECN
        // codepoints and random enqueue/dequeue interleavings, so tail,
        // early, head and overflow drops all occur.
        for spec in every_qdisc() {
            let mut q = spec.build(capacity, seed);
            let mut model = QueueModel::default();
            let mut now = SimTime::ZERO;
            for (seq, &(svc, flow, ecn, deqs, size_class)) in ops.iter().enumerate() {
                let mut p = Packet::data(
                    FlowId(flow),
                    ServiceId([0, 1, 7][svc as usize]),
                    EndpointId(0),
                    seq as u64,
                    100 + size_class * 100,
                );
                p.ecn = [
                    EcnCodepoint::NotEct,
                    EcnCodepoint::Ect0,
                    EcnCodepoint::Ect1,
                    EcnCodepoint::Ce,
                ][ecn as usize];
                p.enqueued_at = now;
                model.arrive(&p);
                let mut before = held(q.as_ref());
                before.insert(p.seq, (p.service, p.size));
                q.enqueue(p, now);
                model.settle(before, q.as_ref(), None);
                let r = model.check(q.as_ref());
                prop_assert!(r.is_ok(), "{}", r.unwrap_err());
                for _ in 0..deqs {
                    now += SimDuration::from_millis(4);
                    let before = held(q.as_ref());
                    let out = q.dequeue(now).map(|p| p.seq);
                    model.settle(before, q.as_ref(), out);
                    let r = model.check(q.as_ref());
                    prop_assert!(r.is_ok(), "{}", r.unwrap_err());
                }
            }
        }
    }

    #[test]
    fn round_nonneg_equals_round_on_random_magnitudes(bits in any::<u64>(), small in 0f64..1e13) {
        // Random bit patterns cover every exponent; `small` covers the
        // nanosecond range the simulator actually converts.
        let wide = f64::from_bits(bits & !(1 << 63));
        for x in [wide, small, small.fract(), small + 0.5] {
            if x.is_finite() {
                prop_assert_eq!(round_nonneg(x), x.round() as u64, "x = {:e}", x);
            }
        }
    }
}
