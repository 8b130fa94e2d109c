//! The per-layer numbers of a traced run: counts taken from the traced
//! workload itself, then the probe suite — calls into each layer's
//! public functions, timed from outside. The suite is the same whatever
//! the workload, so every traced run reports every per-layer metric.

mod micro;
mod system;

use crate::catalog::PER_LAYER;
use crate::ledger::run_once;
use crate::product::{Product, Result, Scratch};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Checks, Measured, Outcome, RunCtx, Settings};
use std::collections::BTreeMap;
use std::time::Instant;

/// Where probes put their numbers, by catalogue name.
#[derive(Debug, Default)]
pub struct Sink {
    got: BTreeMap<String, (f64, usize)>,
}

impl Sink {
    /// Record `value`, backed by `n` samples, under `name`.
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.got.insert(name.to_string(), (value, n));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.got.get(name).map(|(v, _)| *v)
    }
}

/// Run the `--smoke` shrink of a workload as a probe, folding its tally
/// into the run's.
fn smoke_run(
    product: &Product,
    workload: &'static str,
    settings: Settings,
    traced: bool,
    checks: &mut Checks,
) -> Result<Outcome> {
    let (outcome, tally, _) = run_once(product, workload, settings.smoke_probe(traced))?;
    checks.absorb(tally);
    Ok(outcome)
}

/// Tracing's own cost: the workload's `--smoke` shrink run untraced and
/// traced in alternation (spans on, `--metrics` / `--stats` and
/// `/metrics` scrapes on), compared on the workload's main timed
/// number. This doubles as the program's metrics-on-vs-off cost.
fn trace_overhead_share(
    product: &Product,
    workload: &'static str,
    settings: Settings,
    checks: &mut Checks,
) -> Result<f64> {
    let pairs = if workload == "serve_live" { 1 } else { 2 };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        for (traced, times) in [(false, &mut off), (true, &mut on)] {
            let o = smoke_run(product, workload, settings, traced, checks)?;
            times.push(if workload == "serve_live" {
                // The reader's median latency: what a scrape or a span
                // would slow down.
                o.detail
                    .iter()
                    .find(|m| m.name == "serve_p50_us")
                    .map_or(f64::NAN, |m| m.value)
            } else {
                o.e2e.cold_wall_s
            });
        }
    }
    let (off, on) = (stats::median(&off), stats::median(&on));
    Ok((on - off) / off)
}

/// Produce every per-layer metric, in catalogue order.
pub fn per_layer(
    product: &Product,
    workload: &'static str,
    settings: Settings,
    outcome: &Outcome,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Vec<Measured>> {
    let mut sink = Sink::default();
    let telemetry = outcome
        .telemetry
        .ok_or("a traced run must carry telemetry")?;
    sink.put("sim.events", telemetry.sim_events as f64, 1);
    sink.put(
        "sim.ns_event",
        telemetry.sim_wall_s * 1e9 / telemetry.sim_events.max(1) as f64,
        1,
    );

    let started = Instant::now();
    let overhead_span = tracer.begin("probe/bench.trace_overhead", None);
    sink.put(
        "bench.trace_overhead_share",
        trace_overhead_share(product, workload, settings, checks)?,
        if workload == "serve_live" { 2 } else { 4 },
    );
    tracer.end(overhead_span);

    let micro_span = tracer.begin("probe/micro", None);
    micro::run(&mut sink);
    tracer.end(micro_span);

    let scratch = Scratch::new(&product.tmp_root)?;
    // The probes' children and fixtures join the run's own spans and
    // tally; the program's telemetry stays off while they are timed.
    let mut ctx = RunCtx::new(product, &scratch, settings.smoke_probe(false));
    ctx.tracer = std::mem::replace(tracer, Tracer::new(false));
    ctx.checks = std::mem::take(checks);
    let ran = system::run(&mut ctx, workload, outcome, &mut sink);
    *tracer = ctx.tracer;
    *checks = ctx.checks;
    ran?;

    // Attribution from outside: a model, not a measurement. If every
    // event cost what the probes' cheapest case costs, this share of the
    // simulation's wall time would be the wheel's / bare forwarding's.
    for (metric, probe) in [
        ("share.wheel", "sim.wheel.hold_ns.occ4k"),
        ("share.engine_bare", "sim.engine.bare_ns_event"),
    ] {
        let ns = sink
            .get(probe)
            .ok_or_else(|| format!("{probe} was not measured"))?;
        sink.put(
            metric,
            telemetry.sim_events as f64 * ns / (telemetry.sim_wall_s * 1e9),
            1,
        );
    }
    sink.put("bench.probe_suite_s", started.elapsed().as_secs_f64(), 1);
    sink.put("bench.spans", tracer.spans().len() as f64, 1);

    PER_LAYER
        .iter()
        .map(|def| {
            sink.got
                .get(def.name)
                .map(|(value, n)| Measured::new(def.name, *value, def.unit, *n))
                .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))
        })
        .collect()
}
