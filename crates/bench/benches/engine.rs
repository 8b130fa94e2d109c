//! Criterion micro-benchmarks of the simulation engine: raw event
//! throughput, queue operations, and the power-of-two sizing helper.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use prudentia_sim::{
    pow2_round, BottleneckConfig, DropTailQueue, EndpointId, Engine, FlowId, Packet, PathSpec,
    QueueDiscipline, ServiceId, SimDuration, SimTime,
};
use prudentia_transport::{build_simple_flow, UnlimitedSource};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("engine/one_second_bulk_flow_8mbps", |b| {
        b.iter_batched(
            || {
                let mut eng = Engine::new(
                    BottleneckConfig {
                        rate_bps: 8e6,
                        queue_capacity_pkts: 128,
                    },
                    1,
                );
                build_simple_flow(
                    &mut eng,
                    ServiceId(0),
                    PathSpec::symmetric(SimDuration::from_millis(50)),
                    prudentia_cc::CcaKind::Cubic.build(SimTime::ZERO),
                    Box::new(UnlimitedSource),
                );
                eng
            },
            |mut eng| {
                eng.run_until(SimTime::from_secs(1));
                eng.events_processed()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_queue_ops(c: &mut Criterion) {
    c.bench_function("queue/enqueue_dequeue_1k", |b| {
        b.iter_batched(
            || DropTailQueue::new(1024),
            |mut q| {
                for seq in 0..1024u64 {
                    q.enqueue(Packet::data(
                        FlowId(0),
                        ServiceId(0),
                        EndpointId(0),
                        seq,
                        1500,
                    ));
                }
                while q.dequeue().is_some() {}
                q.total_drops()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_pow2(c: &mut Criterion) {
    c.bench_function("queue/pow2_round", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for n in 1..1000u64 {
                acc = acc.wrapping_add(pow2_round(std::hint::black_box(n)));
            }
            acc
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue, bench_queue_ops, bench_pow2
}
criterion_main!(benches);
