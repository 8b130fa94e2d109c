//! Running workloads and writing down what they measured: the table
//! on stdout, the ledger file `--out` names, and the one-line result
//! the driver reads.

use crate::catalog::{self, END_TO_END};
use crate::header::{calibration_spin_ms, is_noisy, run_header};
use crate::json::{f, obj, s, u, Json};
use crate::probes;
use crate::product::{Product, Result, Scratch};
use crate::trace::Tracer;
use crate::workloads::{self, Checks, Measured, Outcome, RunCtx, Settings};
use serde::Value;
use std::path::Path;

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads, in run order.
    pub workloads: Vec<&'static str>,
    /// Runs per workload; repeat `i` uses seed `first.seed + i`.
    pub repeat: usize,
    /// The settings of every run (the seed is that of the first repeat).
    pub first: Settings,
}

/// One finished run of one workload.
#[derive(Debug)]
pub struct RunRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Seed used.
    pub seed: u64,
    /// Calibration spin before and after, ms.
    pub calibration_ms: (f64, f64),
    /// Correctness tally.
    pub checks: Checks,
    /// End-to-end metrics, catalogue order.
    pub end_to_end: Vec<Measured>,
    /// Workload-specific detail.
    pub detail: Vec<Measured>,
    /// Per-layer metrics (traced runs), catalogue order.
    pub per_layer: Vec<Measured>,
    /// Output digests.
    pub digests: Vec<(String, String)>,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

impl RunRecord {
    /// Whether every operation passed its check.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// Whether the calibration spin drifted over the run.
    pub fn noisy(&self) -> bool {
        is_noisy(self.calibration_ms.0, self.calibration_ms.1)
    }
}

fn dispatch(ctx: &mut RunCtx<'_>, workload: &str) -> Result<Outcome> {
    match workload {
        "pairs_bulk" => workloads::pairs::run(ctx, &workloads::pairs::BULK),
        "pairs_apps" => workloads::pairs::run(ctx, &workloads::pairs::APPS),
        "campaign_aqm" => workloads::campaign::run(ctx),
        "serve_live" => workloads::serve::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Run one workload once in a scratch directory of its own.
pub fn run_once(
    product: &Product,
    workload: &'static str,
    settings: Settings,
) -> Result<(Outcome, Checks, Tracer)> {
    let scratch = Scratch::new(&product.tmp_root)?;
    let mut ctx = RunCtx::new(product, &scratch, settings);
    let outcome = dispatch(&mut ctx, workload)?;
    Ok((outcome, ctx.checks, ctx.tracer))
}

fn end_to_end_of(o: &Outcome) -> Vec<Measured> {
    let e = &o.e2e;
    END_TO_END
        .iter()
        .map(|def| {
            let (value, n) = match def.name {
                "setup_s" => (e.setup_s, e.setup_n),
                "cold_wall_s" => (e.cold_wall_s, e.cold_n),
                "warm_wall_ms" => (e.warm_wall_ms, e.warm_n),
                "peak_rss_mb" => (e.peak_rss_mb, 1),
                "cpu_s" => (e.cpu_s, 1),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            Measured::new(def.name, value, def.unit, n)
        })
        .collect()
}

/// Run the plan. Each run is bracketed by the calibration spin.
pub fn execute(product: &Product, plan: &Plan) -> Result<Vec<RunRecord>> {
    let mut records = Vec::new();
    for &workload in &plan.workloads {
        for i in 0..plan.repeat {
            let settings = Settings {
                seed: plan.first.seed + i as u64,
                ..plan.first
            };
            let Settings { seed, traced, .. } = settings;
            eprintln!(
                "[{workload}] seed {seed}, {} s{}{}",
                settings.seconds,
                if settings.smoke { ", smoke" } else { "" },
                if traced { ", traced" } else { "" },
            );
            let before = calibration_spin_ms();
            let (outcome, mut checks, mut tracer) = run_once(product, workload, settings)?;
            let per_layer = if traced {
                probes::per_layer(
                    product,
                    workload,
                    settings,
                    &outcome,
                    &mut tracer,
                    &mut checks,
                )?
            } else {
                Vec::new()
            };
            let after = calibration_spin_ms();
            records.push(RunRecord {
                workload,
                seed,
                calibration_ms: (before, after),
                end_to_end: end_to_end_of(&outcome),
                detail: outcome.detail,
                per_layer,
                digests: outcome.digests,
                checks,
                tracer,
            });
            print_record(records.last().expect("just pushed"));
        }
    }
    Ok(records)
}

fn print_metrics(title: &str, metrics: &[Measured]) {
    if metrics.is_empty() {
        return;
    }
    println!("  {title}");
    for m in metrics {
        println!(
            "    {:<40} {:>16.4} {:<8} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// Print every metric of a run by name, with unit and sample count.
pub fn print_record(r: &RunRecord) {
    println!(
        "{} seed={} correct={} attempted={} failed={} noisy={}",
        r.workload,
        r.seed,
        r.correct(),
        r.checks.attempted,
        r.checks.failed,
        r.noisy()
    );
    print_metrics("end-to-end", &r.end_to_end);
    print_metrics("detail", &r.detail);
    print_metrics("per-layer", &r.per_layer);
    for (name, digest) in &r.digests {
        println!("  digest {name} = {digest}");
    }
    if r.tracer.enabled() {
        println!("  spans (count, total ms, self ms)");
        for (name, t) in r.tracer.summary() {
            println!(
                "    {:<40} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for reason in &r.checks.reasons {
        println!("  FAILED: {reason}");
    }
}

/// The last line of the driver form: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run,
/// the per-layer metrics of a traced one.
pub fn driver_line(r: &RunRecord, traced: bool) -> String {
    let metrics = if traced { &r.per_layer } else { &r.end_to_end };
    Json(obj([
        ("correct", Value::Bool(r.correct())),
        ("attempted", u(r.checks.attempted.max(1))),
        ("failed", u(r.checks.failed)),
        (
            "metrics",
            obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    obj([("value", f(m.value)), ("unit", s(m.unit))]),
                )
            })),
        ),
    ]))
    .render()
}

fn values_obj<'a>(runs: &[&'a RunRecord], pick: impl Fn(&'a RunRecord) -> &'a [Measured]) -> Value {
    let mut names: Vec<(&str, &str)> = Vec::new();
    for r in runs {
        for m in pick(r) {
            if !names.iter().any(|(n, _)| *n == m.name) {
                names.push((&m.name, m.unit));
            }
        }
    }
    obj(names.into_iter().map(|(name, unit)| {
        let found: Vec<&Measured> = runs
            .iter()
            .flat_map(|r| pick(r).iter().filter(move |m| m.name == name))
            .collect();
        (
            name,
            obj([
                ("unit", s(unit)),
                ("n", u(found.last().map_or(0, |m| m.n as u64))),
                (
                    "values",
                    Value::Arr(found.iter().map(|m| f(m.value)).collect()),
                ),
            ]),
        )
    }))
}

/// The ledger document: header, then per workload every metric with the
/// values of all its repeats, so `diff` can take medians and quartiles.
pub fn ledger_json(product: &Product, plan: &Plan, records: &[RunRecord]) -> Value {
    let results = plan
        .workloads
        .iter()
        .filter_map(|w| {
            let runs: Vec<&RunRecord> = records.iter().filter(|r| r.workload == *w).collect();
            let first = runs.first()?;
            Some(obj([
                ("workload", s(*w)),
                (
                    "seeds",
                    Value::Arr(runs.iter().map(|r| u(r.seed)).collect()),
                ),
                ("correct", Value::Bool(runs.iter().all(|r| r.correct()))),
                (
                    "attempted",
                    u(runs.iter().map(|r| r.checks.attempted).sum()),
                ),
                ("failed", u(runs.iter().map(|r| r.checks.failed).sum())),
                ("noisy", Value::Bool(runs.iter().any(|r| r.noisy()))),
                (
                    "calibration_ms",
                    Value::Arr(
                        runs.iter()
                            .flat_map(|r| [f(r.calibration_ms.0), f(r.calibration_ms.1)])
                            .collect(),
                    ),
                ),
                (
                    "failures",
                    Value::Arr(
                        runs.iter()
                            .flat_map(|r| r.checks.reasons.iter().map(|t| s(t.clone())))
                            .collect(),
                    ),
                ),
                ("end_to_end", values_obj(&runs, |r| &r.end_to_end)),
                ("detail", values_obj(&runs, |r| &r.detail)),
                ("per_layer", values_obj(&runs, |r| &r.per_layer)),
                (
                    "digests",
                    obj(first.digests.iter().map(|(k, v)| (k.clone(), s(v.clone())))),
                ),
            ]))
        })
        .collect();
    obj([
        ("schema", u(1)),
        ("mode", s(if plan.first.traced { "trace" } else { "run" })),
        // A smoke ledger can never be mistaken for a baseline.
        ("smoke", Value::Bool(plan.first.smoke)),
        ("noisy", Value::Bool(records.iter().any(|r| r.noisy()))),
        ("header", run_header(product, plan.first)),
        ("results", Value::Arr(results)),
    ])
}

/// Write a JSON document, pretty-printed.
pub fn write_json(path: &Path, doc: Value) -> Result<()> {
    std::fs::write(path, Json(doc).render_pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Resolve `--workload`: one name, or all four.
pub fn select_workloads(name: Option<&str>) -> Result<Vec<&'static str>> {
    match name {
        None => Ok(catalog::WORKLOADS.iter().map(|w| w.name).collect()),
        Some(n) => catalog::workload(n).map(|w| vec![w.name]).ok_or_else(|| {
            format!(
                "unknown workload {n:?}; expected one of {}",
                catalog::WORKLOADS.map(|w| w.name).join(", ")
            )
        }),
    }
}
