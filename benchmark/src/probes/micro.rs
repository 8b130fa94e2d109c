//! In-process micro probes: calls into the public functions of `sim`,
//! `cc`, `transport`, `stats` and `obs`, timed from outside.
//!
//! Public items these probes link (a refactor that moves one of them
//! breaks the ledger, not the product): `TimingWheel::{new, schedule,
//! pop}`, `PacketArena::{with_capacity, alloc, take}`, `Engine::{new,
//! add_endpoint, register_flow, run_until, events_processed}` with the
//! `Endpoint` / `Ctx` callbacks, `QdiscSpec::build` and
//! `QueueDiscipline::{enqueue, dequeue, total_drops}`,
//! `CcaRegistry::builtin().build` and the `CongestionControl` hooks,
//! `build_simple_flow`, `median_ci`, `verdict_locked`,
//! `MetricsRegistry::{counter, histogram}` and `SpanGuard::enter`.

use super::Sink;
use crate::rng::SplitMix;
use crate::stats;
use prudentia_cc::{
    AckSample, CcaKind, CcaRegistry, CongestionControl, EcnSample, LossSample, SentSample, MSS,
};
use prudentia_obs::{MetricsRegistry, SpanGuard};
use prudentia_sim::{
    serialization_time, BottleneckConfig, Ctx, EcnCodepoint, Endpoint, EndpointId, Engine, Event,
    FlowId, Packet, PacketArena, PathSpec, QdiscSpec, ServiceId, SimDuration, SimTime, TimingWheel,
    MTU_BYTES,
};
use prudentia_transport::{build_simple_flow, UnlimitedSource};
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the median batch is reported.
const REPS: usize = 5;

/// Median over [`REPS`] batches of `elapsed ÷ ops`, in nanoseconds.
/// `batch` returns how many operations it performed.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let per_op: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            let ops = batch();
            started.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    stats::median(&per_op)
}

/// The timing wheel under the hold model: pop the earliest event and
/// schedule a new one a random delay later, at constant occupancy.
fn wheel_hold_ns(occupancy: usize, delay_ns: (u64, u64)) -> f64 {
    const HOLDS: u64 = 400_000;
    ns_per_op(|| {
        let mut rng = SplitMix(occupancy as u64);
        let mut wheel = TimingWheel::new();
        let event = |token| Event::Timer {
            endpoint: EndpointId(0),
            token,
        };
        for i in 0..occupancy as u64 {
            let at = SimTime::from_nanos(rng.range(delay_ns.0, delay_ns.1));
            wheel.schedule(at, event(i));
        }
        for i in 0..HOLDS {
            let (now, ev) = wheel.pop().expect("occupancy is constant");
            black_box(ev);
            let at = SimTime::from_nanos(now.as_nanos() + rng.range(delay_ns.0, delay_ns.1));
            wheel.schedule(at, event(i));
        }
        black_box(wheel.len());
        HOLDS
    })
}

/// One `take` + `alloc` round trip through the packet arena with 256
/// packets live — what every bottleneck crossing pays.
fn arena_alloc_take_ns() -> f64 {
    const ROUNDS: u64 = 1_000_000;
    ns_per_op(|| {
        let mut arena = PacketArena::with_capacity(256);
        let mut live: Vec<_> = (0..256u64)
            .map(|seq| {
                arena.alloc(Packet::data(
                    FlowId(0),
                    ServiceId(0),
                    EndpointId(0),
                    seq,
                    MTU_BYTES,
                ))
            })
            .collect();
        for i in 0..ROUNDS as usize {
            let slot = i % live.len();
            let pkt = arena.take(live[slot]);
            live[slot] = arena.alloc(black_box(pkt));
        }
        black_box(arena.live());
        ROUNDS
    })
}

/// Sends one MTU packet through the bottleneck per timer tick.
struct Pinger {
    flow: FlowId,
    dst: EndpointId,
    interval: SimDuration,
    seq: u64,
}

impl Endpoint for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.seq += 1;
        ctx.send_data(Packet::data(
            self.flow,
            ServiceId(0),
            self.dst,
            self.seq,
            MTU_BYTES,
        ));
        ctx.set_timer(self.interval, 0);
    }
}

/// Swallows whatever is delivered to it.
struct Blackhole;

impl Endpoint for Blackhole {
    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
        black_box(pkt.seq);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

/// Bare forwarding: trivial endpoints, no transport, 95 % load on the
/// 50 Mbps drop-tail bottleneck. Host nanoseconds per engine event.
fn engine_bare_ns_event() -> f64 {
    let rtt = SimDuration::from_millis(50);
    let config = BottleneckConfig::with_bdp_queue(50e6, rtt, 4, MTU_BYTES);
    ns_per_op(|| {
        let mut engine = Engine::new(config, 1);
        let dst = engine.add_endpoint(Box::new(Blackhole));
        let flow = engine.register_flow(PathSpec::symmetric(rtt));
        engine.add_endpoint(Box::new(Pinger {
            flow,
            dst,
            interval: serialization_time(MTU_BYTES, config.rate_bps).mul_f64(1.0 / 0.95),
            seq: 0,
        }));
        engine.run_until(SimTime::from_secs(20));
        engine.events_processed()
    })
}

/// Enqueue + dequeue cost of one queue discipline, and the share of
/// packets it dropped. Three services (the third ECT(1)) offer 95 % of
/// a 50 Mbps link on average in 500 ms cycles — 160 ms at 2.6× the
/// line rate, then 340 ms at 0.17× — so the queue fills, the AQMs act,
/// and drop-tail overflows slightly. The arrival sequence is fixed, so
/// the drop count is exact.
fn qdisc_probe(spec: &QdiscSpec) -> (f64, f64) {
    const ARRIVALS: u64 = 150_000;
    const CYCLE_NS: u64 = 500_000_000;
    const BURST_NS: u64 = 160_000_000;
    let tx_ns = serialization_time(MTU_BYTES, 50e6).as_nanos();
    let (burst_gap, calm_gap) = (tx_ns * 10 / 26, tx_ns * 100 / 17);
    let mut drop_share = 0.0;
    let ns = ns_per_op(|| {
        let mut q = spec.build(1024, 7);
        let (mut now, mut link_free_at) = (0u64, 0u64);
        for seq in 0..ARRIVALS {
            now += if now % CYCLE_NS < BURST_NS {
                burst_gap
            } else {
                calm_gap
            };
            while link_free_at <= now {
                match q.dequeue(SimTime::from_nanos(link_free_at)) {
                    Some(pkt) => {
                        black_box(pkt.seq);
                        link_free_at += tx_ns;
                    }
                    None => {
                        link_free_at = now;
                        break;
                    }
                }
            }
            let svc = (seq % 3) as u32;
            let mut pkt = Packet::data(FlowId(svc), ServiceId(svc), EndpointId(0), seq, MTU_BYTES);
            pkt.enqueued_at = SimTime::from_nanos(now);
            if svc == 2 {
                pkt.ecn = EcnCodepoint::Ect1;
            }
            black_box(q.enqueue(pkt, SimTime::from_nanos(now)));
        }
        drop_share = q.total_drops() as f64 / ARRIVALS as f64;
        ARRIVALS
    });
    (ns, drop_share)
}

/// Per-ACK cost of one registry CCA under the benchmark's own synthetic
/// ACK clock: 50 ms RTT, 100 ACKs per round, each followed by the send
/// it clocks out; one loss per 500 ACKs; CE on 2 % of ACKs for the
/// algorithms that negotiate ECN.
fn cca_ack_ns(name: &str) -> f64 {
    const ACKS: u64 = 200_000;
    const ACKS_PER_RTT: u64 = 100;
    let rtt = SimDuration::from_millis(50);
    let step = SimDuration::from_nanos(rtt.as_nanos() / ACKS_PER_RTT);
    let rate = MSS as f64 * 8.0 / step.as_secs_f64();
    ns_per_op(|| {
        let mut cc: Box<dyn CongestionControl> = CcaRegistry::builtin()
            .build(name, SimTime::ZERO)
            .unwrap_or_else(|| panic!("registry has no {name}"));
        let wants_ecn = cc.ecn_mode() != prudentia_cc::EcnMode::Disabled;
        let mut now = SimTime::ZERO + rtt;
        let mut inflight = 0u64;
        for i in 1..=ACKS {
            now += step;
            inflight = inflight.saturating_sub(MSS);
            cc.on_ack(&AckSample {
                now,
                bytes_acked: MSS,
                rtt,
                min_rtt: rtt,
                inflight_bytes: inflight,
                delivery_rate_bps: rate,
                delivered_total: i * MSS,
                app_limited: false,
                is_round_start: i % ACKS_PER_RTT == 0,
            });
            if wants_ecn && i % 50 == 0 {
                cc.on_ecn(&EcnSample {
                    now,
                    marked_bytes: MSS,
                    inflight_bytes: inflight,
                });
            }
            if i % 500 == 0 {
                cc.on_loss(&LossSample {
                    now,
                    bytes_lost: MSS,
                    inflight_bytes: inflight,
                    is_rto: false,
                });
            }
            if inflight + MSS <= cc.cwnd_bytes() {
                inflight += MSS;
                cc.on_packet_sent(&SentSample {
                    now,
                    bytes: MSS,
                    inflight_bytes: inflight,
                    is_retransmit: false,
                });
            }
            black_box(cc.pacing_rate_bps());
        }
        ACKS
    })
}

/// A solo flow through the real sender and receiver on the 50 Mbps
/// bottleneck: host nanoseconds per delivered packet.
fn transport_ns_pkt(cca: CcaKind) -> f64 {
    let rtt = SimDuration::from_millis(50);
    let config = BottleneckConfig::with_bdp_queue(50e6, rtt, 4, MTU_BYTES);
    ns_per_op(|| {
        let mut engine = Engine::new(config, 1);
        let flow = build_simple_flow(
            &mut engine,
            ServiceId(0),
            PathSpec::symmetric(rtt),
            cca.build(SimTime::ZERO),
            Box::new(UnlimitedSource),
        );
        engine.run_until(SimTime::from_secs(10));
        let delivered = flow.recv.borrow().packets;
        delivered
    })
}

fn stats_probes(sink: &mut Sink) {
    const CALLS: u64 = 20_000;
    let sample = |n: usize| -> Vec<f64> {
        let mut rng = SplitMix(n as u64);
        (0..n)
            .map(|_| 1e6 + (rng.next() % 1_000_000) as f64)
            .collect()
    };
    for (name, n) in [
        ("stats.median_ci_ns.n10", 10),
        ("stats.median_ci_ns.n30", 30),
    ] {
        let xs = sample(n);
        sink.put(
            name,
            ns_per_op(|| {
                for _ in 0..CALLS {
                    black_box(prudentia_stats::median_ci(black_box(&xs), 0.95));
                }
                CALLS
            }),
            REPS,
        );
    }
    let shares = [0.31, 0.42, 0.38, 0.45, 0.36, 0.40];
    sink.put(
        "stats.verdict_locked_ns.n6",
        ns_per_op(|| {
            for _ in 0..CALLS {
                black_box(prudentia_stats::predictor::verdict_locked(
                    black_box(&shares),
                    10,
                    &[0.25, 0.75, 1.25],
                ));
            }
            CALLS
        }),
        REPS,
    );
}

fn obs_probes(sink: &mut Sink) {
    const CALLS: u64 = 1_000_000;
    let reg = MetricsRegistry::new();
    let counter = reg.counter("bench/probe");
    sink.put(
        "obs.counter_inc_ns",
        ns_per_op(|| {
            for _ in 0..CALLS {
                counter.inc();
            }
            black_box(counter.get());
            CALLS
        }),
        REPS,
    );
    let histogram = reg.histogram("bench/probe");
    sink.put(
        "obs.histogram_record_ns",
        ns_per_op(|| {
            for i in 0..CALLS {
                histogram.record((i % 4096) as f64);
            }
            CALLS
        }),
        REPS,
    );
    let was_enabled = prudentia_obs::span::enabled();
    prudentia_obs::span::set_enabled(true);
    sink.put(
        "obs.span_ns",
        ns_per_op(|| {
            const SPANS: u64 = 100_000;
            for _ in 0..SPANS {
                drop(black_box(SpanGuard::enter("bench-probe")));
            }
            SPANS
        }),
        REPS,
    );
    prudentia_obs::span::set_enabled(was_enabled);
    prudentia_obs::span::reset();
}

/// Run every in-process micro probe.
pub fn run(sink: &mut Sink) {
    // Delays of 1 µs – 50 ms keep events in the wheel's lower levels, as
    // packet and timer events are; the far probe schedules beyond the
    // 78-hour horizon, into the overflow heap.
    let near = (1_000, 50_000_000);
    for (name, occupancy) in [
        ("sim.wheel.hold_ns.occ64", 64),
        ("sim.wheel.hold_ns.occ4k", 4096),
        ("sim.wheel.hold_ns.occ64k", 65_536),
    ] {
        sink.put(name, wheel_hold_ns(occupancy, near), REPS);
    }
    let hour = 3_600_000_000_000u64;
    sink.put(
        "sim.wheel.far_ns",
        wheel_hold_ns(1024, (80 * hour, 160 * hour)),
        REPS,
    );
    sink.put("sim.arena.alloc_take_ns", arena_alloc_take_ns(), REPS);
    sink.put("sim.engine.bare_ns_event", engine_bare_ns_event(), REPS);

    for spec in [
        QdiscSpec::DropTail,
        QdiscSpec::codel(),
        QdiscSpec::fq_codel(),
        QdiscSpec::red(),
        QdiscSpec::dualpi2(),
    ] {
        let (ns, drop_share) = qdisc_probe(&spec);
        sink.put(&format!("sim.qdisc.{}.ns_pkt", spec.kind()), ns, REPS);
        sink.put(
            &format!("sim.qdisc.{}.drop_share", spec.kind()),
            drop_share,
            1,
        );
    }

    for meta in CcaRegistry::builtin().entries() {
        sink.put(
            &format!("cc.{}.ack_ns", meta.name),
            cca_ack_ns(meta.name),
            REPS,
        );
    }

    sink.put(
        "transport.bulk_ns_pkt",
        transport_ns_pkt(CcaKind::Cubic),
        REPS,
    );
    sink.put(
        "transport.paced_ns_pkt",
        transport_ns_pkt(CcaKind::BbrV1Linux515),
        REPS,
    );

    stats_probes(sink);
    obs_probes(sink);
}
