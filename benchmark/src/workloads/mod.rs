//! The four named workloads. Each drives the shipped `prudentia`
//! binary over its CLI and HTTP surface and hands back its end-to-end
//! numbers, its workload-specific detail, and its correctness tally.

pub mod campaign;
pub mod fixture;
pub mod pairs;
pub mod serve;

use crate::product::{run_child, ChildRun, Product, Result, Scratch};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use std::time::{Duration, Instant};

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many raw samples stand behind the value.
    pub n: usize,
}

impl Measured {
    /// A value backed by `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Measured {
        Measured {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// Operations attempted and failed, with the first few reasons kept.
/// Every child exit code, response, append, digest comparison and count
/// check is one operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first failures, for the report.
    pub reasons: Vec<String>,
}

impl Checks {
    /// Most failure messages kept verbatim.
    const KEPT: usize = 12;

    /// Count one operation; `why` is only evaluated on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < Checks::KEPT {
                self.reasons.push(why());
            }
        }
        ok
    }

    /// Fold another tally (from a joined thread) into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Checks::KEPT.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// A fault injected into `serve_live` to show that the run fails
/// loudly (`--fault`; the integration tests switch it on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one byte in the middle of a fixture shard's segment file.
    CorruptRecord,
    /// Kill the server halfway through the open loop.
    KillServer,
}

/// How one run of one workload is to be made.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Length of the time-driven sections, seconds.
    pub seconds: f64,
    /// Shrink the workload to about two seconds (never a baseline).
    pub smoke: bool,
    /// Traced run: spans kept, the program's public telemetry on.
    pub traced: bool,
    /// Fault to inject, if any.
    pub fault: Option<Fault>,
}

impl Settings {
    /// The same run shrunk to smoke size, untraced or traced, no fault.
    pub fn smoke_probe(self, traced: bool) -> Settings {
        Settings {
            smoke: true,
            traced,
            fault: None,
            ..self
        }
    }
}

/// Everything a workload needs from its caller.
pub struct RunCtx<'a> {
    /// The built product binary.
    pub product: &'a Product,
    /// The run's scratch directory.
    pub scratch: &'a Scratch,
    /// How the run is to be made. `traced` also switches the program's
    /// public telemetry on (`--metrics`, `--stats`, `/metrics` scrapes).
    pub settings: Settings,
    /// The span recorder (enabled in traced runs).
    pub tracer: Tracer,
    /// The correctness tally.
    pub checks: Checks,
}

impl<'a> RunCtx<'a> {
    /// A context for one run in `scratch`.
    pub fn new(product: &'a Product, scratch: &'a Scratch, settings: Settings) -> RunCtx<'a> {
        RunCtx {
            product,
            scratch,
            settings,
            tracer: Tracer::new(settings.traced),
            checks: Checks::default(),
        }
    }

    /// Run one product invocation as a traced, checked child: the exit
    /// code must be 0.
    pub fn child(
        &mut self,
        tag: &str,
        parent: Option<SpanId>,
        args: &[&str],
        sample_rss: bool,
    ) -> Result<ChildRun> {
        let started = Instant::now();
        let run = run_child(
            &mut self.product.command(args),
            self.scratch,
            tag,
            sample_rss,
        )?;
        self.tracer.record(
            &format!("child/{tag}"),
            parent,
            None,
            started,
            Instant::now(),
        );
        self.checks.check(run.status.success(), || {
            format!(
                "`prudentia {}` exited with {}: {}",
                args.join(" "),
                run.status,
                String::from_utf8_lossy(&run.stderr).trim()
            )
        });
        Ok(run)
    }
}

/// The end-to-end numbers every workload reports (see the README for
/// what each one means on each workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Set-ups behind `setup_s`.
    pub setup_n: usize,
    /// The workload's answer computed from nothing by a fresh process.
    pub cold_wall_s: f64,
    /// Samples behind `cold_wall_s`.
    pub cold_n: usize,
    /// The same answer served from the program's own cache.
    pub warm_wall_ms: f64,
    /// Samples behind `warm_wall_ms`.
    pub warm_n: usize,
    /// Peak resident set of the busiest child, MiB.
    pub peak_rss_mb: f64,
    /// User + system CPU seconds the program burned in the timed section.
    pub cpu_s: f64,
}

/// Counts taken from the program's own public telemetry in a traced
/// run, at the same boundaries the spans mark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Telemetry {
    /// `sim/events_total`: exact, repeats run to run.
    pub sim_events: u64,
    /// Host seconds the simulation had to run in.
    pub sim_wall_s: f64,
}

/// What a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    /// The shared end-to-end numbers.
    pub e2e: EndToEnd,
    /// Workload-specific numbers (printed and kept in the ledger file;
    /// not part of `BENCHMARK.json`).
    pub detail: Vec<Measured>,
    /// Named digests of the program's outputs, so two commits compare
    /// exactly.
    pub digests: Vec<(String, String)>,
    /// Telemetry counts (traced runs only).
    pub telemetry: Option<Telemetry>,
}

/// Repeat a set-up step [`SETUP_REPEATS`] times and return the last
/// product with the median time. Every repeat does the same work.
pub fn repeated_setup<T>(mut step: impl FnMut(usize) -> Result<T>) -> Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let started = Instant::now();
        last = Some(step(i)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repeat"), stats::median(&times)))
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A counter of the metrics JSON the product writes for `--metrics`.
pub fn metrics_counter(doc: &serde::Value, name: &str) -> Option<u64> {
    crate::json::path(doc, &["counters", name])
        .and_then(crate::json::as_f64)
        .map(|x| x as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_operations_and_keep_first_reasons() {
        let mut c = Checks::default();
        assert!(c.check(true, || unreachable!()));
        for i in 0..20 {
            assert!(!c.check(false, || format!("bad {i}")));
        }
        assert_eq!((c.attempted, c.failed), (21, 20));
        assert_eq!(c.reasons.len(), Checks::KEPT);
        assert_eq!(c.reasons[0], "bad 0");
        let mut other = Checks::default();
        other.check(false, || "late".to_string());
        c.absorb(other);
        assert_eq!((c.attempted, c.failed), (22, 21));
        assert_eq!(c.reasons.len(), Checks::KEPT, "still capped");
    }

    #[test]
    fn setup_median_is_over_identical_repeats() {
        let mut calls = 0;
        let (last, t) = repeated_setup(|i| {
            calls += 1;
            Ok(i)
        })
        .unwrap();
        assert_eq!((calls, last), (SETUP_REPEATS, SETUP_REPEATS - 1));
        assert!(t >= 0.0);
    }
}
