//! `pairs_bulk` and `pairs_apps`: the all-pairs matrix over the CLI,
//! cold, then replayed from the trial cache it left behind.

use super::{metrics_counter, ms, repeated_setup, EndToEnd, Measured, Outcome, RunCtx};
use super::{Result, Telemetry};
use crate::json::Json;
use crate::product::digest;
use crate::stats;
use prudentia_core::TrialCache;

/// Full-cache replays timed after the cold run.
const WARM_REPLAYS: usize = 31;

/// One matrix workload. Trial seeds are a pure function of the pair
/// names, so these workloads are seed-invariant by design: every count
/// below repeats exactly on every run of the same code.
pub struct PairsSpec {
    /// Workload name.
    pub name: &'static str,
    /// Catalog labels of the matrix services.
    pub services: &'static [&'static str],
    /// `--setting` value, Mbps.
    pub setting: &'static str,
    /// Trials the cold run simulates (and leaves in the cache).
    pub expected_trials: u64,
    /// `sim/events_total` of the cold run (telemetry runs only).
    pub expected_events: u64,
}

/// Long-lived bulk flows: the simulator core does all the work.
pub const BULK: PairsSpec = PairsSpec {
    name: "pairs_bulk",
    services: &["iperf-reno", "iperf-cubic", "iperf-bbr"],
    setting: "50",
    expected_trials: 27,
    expected_events: 106_972_355,
};

/// ABR video, chunked downloads, RTC and a page load: app models,
/// pacing, timers and many short flows on the same drop-tail queue.
pub const APPS: PairsSpec = PairsSpec {
    name: "pairs_apps",
    services: &["YouTube", "Netflix", "Mega", "Meet", "news.goog"],
    setting: "50",
    expected_trials: 75,
    expected_events: 263_910_352,
};

/// The `--smoke` shrink of [`BULK`]: same services, the 8 Mbps setting.
const BULK_SMOKE: PairsSpec = PairsSpec {
    name: "pairs_bulk",
    services: BULK.services,
    setting: "4",
    expected_trials: 27,
    expected_events: 0,
};

/// The `--smoke` shrink of [`APPS`]: app traffic does not shrink with
/// the link, so two of the five services stand in.
const APPS_SMOKE: PairsSpec = PairsSpec {
    name: "pairs_apps",
    services: &["Netflix", "Meet"],
    setting: "8",
    expected_trials: 12,
    expected_events: 0,
};

/// Run a matrix workload.
pub fn run(ctx: &mut RunCtx<'_>, full: &PairsSpec) -> Result<Outcome> {
    let spec = match (ctx.settings.smoke, full.name) {
        (false, _) => full,
        (true, "pairs_bulk") => &BULK_SMOKE,
        (true, _) => &APPS_SMOKE,
    };
    let pairs = spec.services.len() * spec.services.len();
    let root = ctx.tracer.begin(spec.name, None);

    // Set-up: a work directory, and the catalog lookup that proves the
    // binary runs and knows every service of the matrix.
    let setup_span = ctx.tracer.begin("setup", root);
    let (work, setup_s) = repeated_setup(|i| {
        let work = ctx.scratch.subdir(&format!("{}-{i}", spec.name))?;
        let list = ctx.child("list", setup_span, &["list"], false)?;
        let catalog = String::from_utf8_lossy(&list.stdout).to_lowercase();
        for label in spec.services {
            ctx.checks
                .check(catalog.contains(&label.to_lowercase()), || {
                    format!("`prudentia list` does not know {label}")
                });
        }
        Ok(work)
    })?;
    ctx.tracer.end(setup_span);

    let cache = work.join("c.json");
    let metrics = work.join("metrics.json");
    let services = spec.services.join(",");
    let (cache_arg, metrics_arg) = (cache.display().to_string(), metrics.display().to_string());
    let mut args = vec![
        "matrix",
        "--services",
        &services,
        "--setting",
        spec.setting,
        "--trials",
        "1",
        "--parallel",
        "1",
        "--cache",
        &cache_arg,
    ];
    if ctx.settings.traced {
        args.extend(["--stats", "--metrics", &metrics_arg]);
    }

    let cold = ctx.child("matrix-cold", root, &args, true)?;
    let banner = format!("running {pairs} pairs");
    ctx.checks.check(
        String::from_utf8_lossy(&cold.stderr).contains(&banner),
        || format!("cold run did not announce `{banner}`"),
    );
    let trials = TrialCache::load(&cache)
        .map_err(|e| format!("trial cache the cold run left: {e}"))?
        .len() as u64;
    ctx.checks.check(trials == spec.expected_trials, || {
        format!(
            "{}: cold run cached {trials} trials, expected exactly {}",
            spec.name, spec.expected_trials
        )
    });
    let cache_kb = std::fs::metadata(&cache).map_or(0, |m| m.len()) as f64 / 1024.0;

    let telemetry = if ctx.settings.traced {
        let text = std::fs::read_to_string(&metrics)
            .map_err(|e| format!("read {}: {e}", metrics.display()))?;
        let doc = Json::parse(&text)?.0;
        let events = metrics_counter(&doc, "sim/events_total").unwrap_or(0);
        if spec.expected_events != 0 {
            ctx.checks.check(events == spec.expected_events, || {
                format!(
                    "{}: {events} simulated events, expected exactly {}",
                    spec.name, spec.expected_events
                )
            });
        }
        let run_count = metrics_counter(&doc, "executor/trials_run").unwrap_or(0);
        ctx.checks.check(run_count == trials, || {
            format!("telemetry counted {run_count} trials, the cache holds {trials}")
        });
        Some(Telemetry {
            sim_events: events,
            sim_wall_s: cold.wall.as_secs_f64(),
        })
    } else {
        None
    };

    // Warm: the same command again; every trial is a cache hit, so only
    // executor + cache + render run. Output must not move by a byte.
    let warm_span = ctx.tracer.begin("warm-replays", root);
    let replays = if ctx.settings.smoke { 5 } else { WARM_REPLAYS };
    let mut warm_ms = Vec::with_capacity(replays);
    for _ in 0..replays {
        let warm = ctx.child("matrix-warm", warm_span, &args, false)?;
        ctx.checks.check(warm.stdout == cold.stdout, || {
            format!(
                "warm replay printed {} where the cold run printed {}",
                digest(&warm.stdout),
                digest(&cold.stdout)
            )
        });
        warm_ms.push(ms(warm.wall));
    }
    ctx.tracer.end(warm_span);
    ctx.tracer.end(root);

    let cold_s = cold.wall.as_secs_f64();
    Ok(Outcome {
        e2e: EndToEnd {
            setup_s,
            setup_n: super::SETUP_REPEATS,
            cold_wall_s: cold_s,
            cold_n: 1,
            warm_wall_ms: stats::median(&warm_ms),
            warm_n: warm_ms.len(),
            peak_rss_mb: cold.peak_rss_kb.unwrap_or(0) as f64 / 1024.0,
            cpu_s: cold.cpu_s,
        },
        detail: vec![
            Measured::new("pairs", pairs as f64, "count", 1),
            Measured::new("trials", trials as f64, "count", 1),
            Measured::new(
                "pairs_per_hour",
                pairs as f64 * 3600.0 / cold_s,
                "pairs/h",
                1,
            ),
            Measured::new("trial_ms", cold_s * 1e3 / trials.max(1) as f64, "ms", 1),
            Measured::new("cache_file_kb", cache_kb, "KB", 1),
        ],
        digests: vec![("stdout".to_string(), digest(&cold.stdout))],
        telemetry,
    })
}
