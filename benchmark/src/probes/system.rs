//! Probes that need a fixture, a child process or a server: apps,
//! executor and cache, campaign, store, fleet view, serve, validate.
//!
//! Public items linked here: `execute_pairs` / `ExecutorConfig`,
//! `TrialCache::{new, load, save}`, `trial_key`, `CampaignSpec::{
//! from_json, expand}`, `Store::{open, append, compact, stats}`,
//! `IncrementalSnapshot::{open, refresh}`, `MergedSnapshot::read_dirs`,
//! `FleetManifest::load`, `FleetView::read`, `ServeConfig::new` and
//! `write_report` — plus the fixture builder's `prepare_root` and
//! `Daemon::run_cycle`.

use super::{smoke_run, Sink};
use crate::affinity::Pinned;
use crate::http::Conn;
use crate::product::{Product, Result, Scratch};
use crate::stats;
use crate::workloads::fixture::{build_fleet, FleetShape};
use crate::workloads::serve::{reader_loop, spawn_server, stop_server};
use crate::workloads::{campaign, ms, Checks, Outcome, RunCtx, Settings};
use prudentia_apps::Service;
use prudentia_core::campaign::CampaignSpec;
use prudentia_core::fleet::{FleetManifest, FleetView};
use prudentia_core::{
    execute_pairs, trial_key, write_report, DurationPolicy, ExecutorConfig, MetricsRegistry,
    NetworkSetting, PairSpec, ServeConfig, TrialCache, TrialPolicy,
};
use prudentia_store::{IncrementalSnapshot, MergedSnapshot, Store};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median of `reps` timings of `body`, in milliseconds.
fn median_ms<T>(reps: usize, mut body: impl FnMut() -> Result<T>) -> Result<f64> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        std::hint::black_box(body()?);
        times.push(ms(started.elapsed()));
    }
    Ok(stats::median(&times))
}

fn detail(outcome: &Outcome, name: &str) -> Result<(f64, usize)> {
    outcome
        .detail
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.value, m.n))
        .ok_or_else(|| format!("workload detail has no {name}"))
}

/// `prudentia run --solo <label> --setting 50`, once per app model.
fn apps_probes(ctx: &mut RunCtx<'_>, sink: &mut Sink) -> Result<()> {
    for (metric, label) in [
        ("apps.YouTube.solo_ms", "YouTube"),
        ("apps.Netflix.solo_ms", "Netflix"),
        ("apps.Mega.solo_ms", "Mega"),
        ("apps.Meet.solo_ms", "Meet"),
        ("apps.news_goog.solo_ms", "news.goog"),
        ("apps.iPerf-Cubic.solo_ms", "iPerf-Cubic"),
    ] {
        let run = ctx.child(
            "solo",
            None,
            &["run", "--solo", label, "--setting", "50"],
            false,
        )?;
        sink.put(metric, ms(run.wall), 1);
    }
    Ok(())
}

/// The executor and the trial cache, in process: the three bulk
/// services, all pairs at 50 Mbps, 12-second trials — cold on one
/// worker, replayed from the cache, then cold on two workers.
fn executor_probes(scratch: &Scratch, sink: &mut Sink, checks: &mut Checks) -> Result<()> {
    let setting = NetworkSetting::moderately_constrained();
    let services = [Service::IperfReno, Service::IperfCubic, Service::IperfBbr];
    let pairs: Vec<PairSpec> = services
        .iter()
        .flat_map(|a| {
            let setting = &setting;
            services.iter().map(move |b| PairSpec {
                contender: a.spec(),
                incumbent: b.spec(),
                setting: setting.clone(),
            })
        })
        .collect();
    // The CLI's `--trials 1` policy over shortened trials.
    let policy = TrialPolicy {
        min_trials: 1,
        batch: 2,
        max_trials: 3,
    };
    let duration = DurationPolicy::Custom {
        duration_secs: 12,
        warmup_secs: 2,
        cooldown_secs: 2,
    };
    let fail = |e: prudentia_core::PrudentiaError| format!("executor probe: {e}");

    let cache = Arc::new(TrialCache::new());
    let config = ExecutorConfig::new(policy, duration, 1).with_cache(Arc::clone(&cache));
    let (_, cold) = execute_pairs(&pairs, &config).map_err(fail)?;
    let trials = cold.trials_run.max(1);
    sink.put(
        "core.executor.overhead_share",
        1.0 - cold.trial_wall_total.as_secs_f64() / cold.wall.as_secs_f64(),
        trials,
    );
    let (_, warm) = execute_pairs(&pairs, &config).map_err(fail)?;
    checks.check(warm.trials_run == 0 && warm.trials_cached == trials, || {
        format!("warm executor pass simulated {} trials", warm.trials_run)
    });
    sink.put(
        "core.executor.warm_us_trial",
        warm.wall.as_secs_f64() * 1e6 / trials as f64,
        trials,
    );

    let reg = Arc::new(MetricsRegistry::new());
    let two = ExecutorConfig::new(policy, duration, 2).with_metrics(Arc::clone(&reg));
    let (_, par) = execute_pairs(&pairs, &two).map_err(fail)?;
    sink.put(
        "core.executor.par2_speedup",
        cold.wall.as_secs_f64() / par.wall.as_secs_f64(),
        1,
    );
    let idle_ns = reg.histogram("executor/idle_ns").summarize().sum;
    sink.put(
        "core.executor.idle_share.p2",
        idle_ns / (par.wall.as_nanos() as f64 * 2.0),
        1,
    );
    sink.put(
        "core.executor.steals.p2",
        reg.counter("executor/steals").get() as f64,
        1,
    );

    let file = scratch.path("probe-cache.json");
    cache
        .save(&file)
        .map_err(|e| format!("save probe cache: {e}"))?;
    sink.put(
        "core.cache.file_kb",
        std::fs::metadata(&file).map_or(0, |m| m.len()) as f64 / 1024.0,
        1,
    );
    sink.put(
        "core.cache.load_ms",
        median_ms(9, || {
            TrialCache::load(&file).map_err(|e| format!("load probe cache: {e}"))
        })?,
        9,
    );
    let spec = duration.spec(
        services[0].spec(),
        services[1].spec(),
        setting,
        prudentia_core::trial_seed("a", "b", "c", 0),
    );
    const KEYS: usize = 2000;
    let started = Instant::now();
    for _ in 0..KEYS {
        std::hint::black_box(trial_key(std::hint::black_box(&spec)));
    }
    sink.put(
        "core.cache.key_ns",
        started.elapsed().as_nanos() as f64 / KEYS as f64,
        KEYS,
    );
    Ok(())
}

/// The campaign layer: the traced workload's own numbers on
/// `campaign_aqm`, elsewhere those of its 16-cell smoke grid.
fn campaign_probes(
    product: &Product,
    settings: Settings,
    own: Option<&Outcome>,
    sink: &mut Sink,
    checks: &mut Checks,
) -> Result<()> {
    let ran = match own {
        Some(_) => None,
        None => Some(smoke_run(product, "campaign_aqm", settings, false, checks)?),
    };
    let outcome = own.or(ran.as_ref()).expect("own or just run");
    for (metric, name) in [
        ("core.campaign.cell_ms.p50", "cell_ms_p50"),
        ("core.campaign.cell_ms.max", "cell_ms_max"),
        ("core.campaign.trials_used", "trials_used"),
        ("core.campaign.trials_saved_share", "trials_saved_share"),
    ] {
        let (value, n) = detail(outcome, name)?;
        sink.put(metric, value, n);
    }
    sink.put(
        "core.campaign.resume_ms",
        outcome.e2e.warm_wall_ms,
        outcome.e2e.warm_n,
    );
    let spec = CampaignSpec::from_json(&campaign::spec_json(settings.seed, false))
        .map_err(|e| format!("bench campaign spec: {e}"))?;
    sink.put(
        "core.campaign.expand_us",
        median_ms(25, || Ok(spec.expand().len()))? * 1e3,
        25,
    );
    Ok(())
}

/// Append `keys × versions` one-KiB records, round-robin over `dirs`.
fn fill_stores(dirs: &[PathBuf], keys: u64, versions: u64) -> Result<(Vec<f64>, f64)> {
    let payload = format!("{{\"blob\":\"{}\"}}", "x".repeat(1000));
    let mut stores = dirs
        .iter()
        .map(|d| Store::open(d).map_err(|e| format!("open {}: {e}", d.display())))
        .collect::<Result<Vec<_>>>()?;
    let mut append_us = Vec::with_capacity((keys * versions) as usize);
    for _ in 0..versions {
        for key in 0..keys {
            let store = &mut stores[(key % dirs.len() as u64) as usize];
            let started = Instant::now();
            store
                .append("probe", key, 1, payload.clone())
                .map_err(|e| format!("probe append: {e}"))?;
            append_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    let written: u64 = stores.iter().map(|s| s.stats().bytes_written).sum();
    let amplification = written as f64 / (payload.len() as u64 * keys * versions) as f64;
    Ok((append_us, amplification))
}

/// The store layer on a 2000-record store: 250 keys × 8 versions.
fn store_probes(scratch: &Scratch, sink: &mut Sink) -> Result<()> {
    const KEYS: u64 = 250;
    const VERSIONS: u64 = 8;
    let fail = |what: &str, e: prudentia_store::StoreError| format!("store probe {what}: {e}");
    let dir = scratch.path("probe-store");
    let (append_us, amplification) = fill_stores(std::slice::from_ref(&dir), KEYS, VERSIONS)?;
    sink.put(
        "store.append_us",
        stats::median(&append_us),
        append_us.len(),
    );
    sink.put("store.bytes_per_payload_byte", amplification, 1);
    sink.put(
        "store.open_ms.history",
        median_ms(5, || Store::open(&dir).map_err(|e| fail("open", e)))?,
        5,
    );

    let mut inc = IncrementalSnapshot::open(&dir).map_err(|e| fail("incremental open", e))?;
    const PROBES: usize = 2000;
    let started = Instant::now();
    for _ in 0..PROBES {
        std::hint::black_box(inc.refresh().map_err(|e| fail("idle refresh", e))?);
    }
    sink.put(
        "store.inc_probe_us",
        started.elapsed().as_secs_f64() * 1e6 / PROBES as f64,
        PROBES,
    );
    let mut store = Store::open(&dir).map_err(|e| fail("reopen", e))?;
    let mut apply_us = Vec::new();
    for i in 0..40u64 {
        store
            .append("probe", i % KEYS, 1, format!("{{\"n\":{i}}}"))
            .map_err(|e| fail("append", e))?;
        let started = Instant::now();
        let changed = inc.refresh().map_err(|e| fail("refresh", e))?;
        apply_us.push(started.elapsed().as_secs_f64() * 1e6);
        if !changed {
            return Err("IncrementalSnapshot::refresh missed an append".to_string());
        }
    }
    sink.put(
        "store.inc_apply_us",
        stats::median(&apply_us),
        apply_us.len(),
    );

    let started = Instant::now();
    let report = store.compact().map_err(|e| fail("compact", e))?;
    sink.put("store.compact_ms", ms(started.elapsed()), 1);
    sink.put(
        "store.compact_drop_share",
        report.dropped as f64 / (report.dropped + report.kept).max(1) as f64,
        1,
    );
    drop(store);
    sink.put(
        "store.open_ms.compacted",
        median_ms(5, || Store::open(&dir).map_err(|e| fail("open", e)))?,
        5,
    );

    for (metric, shards) in [
        ("store.merge_ms.s1", 1),
        ("store.merge_ms.s4", 4),
        ("store.merge_ms.s8", 8),
    ] {
        let dirs: Vec<PathBuf> = (0..shards)
            .map(|i| scratch.path(&format!("probe-merge-{shards}-{i}")))
            .collect();
        fill_stores(&dirs, KEYS, VERSIONS)?;
        sink.put(
            metric,
            median_ms(5, || {
                MergedSnapshot::read_dirs(&dirs).map_err(|e| fail("merge", e))
            })?,
            5,
        );
    }
    Ok(())
}

/// Closed loop on one connection: median round trip of `n` requests.
fn rtt_us(conn: &mut Conn, path: &str, etag: Option<&str>, n: usize) -> Result<(f64, f64)> {
    let request = Conn::request_bytes(path, etag);
    let mut us = Vec::with_capacity(n);
    let mut body_kb = 0.0;
    for _ in 0..n {
        let started = Instant::now();
        let r = conn.round_trip(&request)?;
        us.push(started.elapsed().as_secs_f64() * 1e6);
        if !matches!(r.status, 200 | 304) {
            return Err(format!("{path} answered {}", r.status));
        }
        body_kb = r.body.len() as f64 / 1024.0;
    }
    Ok((stats::median(&us), body_kb))
}

/// Saturation: two connections, 32 requests pipelined per write, for
/// half a second; requests answered per second. Reported with its
/// spread in the README, never gated: on two cores it measures the
/// scheduler.
fn saturation_req_per_s(addr: &str) -> Result<f64> {
    const DEPTH: usize = 32;
    let batch = Conn::request_bytes("/heatmap.csv", None).repeat(DEPTH);
    let mut rates = Vec::new();
    for _ in 0..3 {
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        let answered: Result<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| -> Result<usize> {
                        let mut conn = Conn::connect(addr)?;
                        let mut ok = 0;
                        while !stop.load(Ordering::Relaxed) {
                            ok += conn.pipelined(&batch, DEPTH)?;
                        }
                        Ok(ok)
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(500));
            stop.store(true, Ordering::Relaxed);
            workers
                .into_iter()
                .map(|w| w.join().expect("saturation client never panics"))
                .sum()
        });
        rates.push(answered? as f64 / started.elapsed().as_secs_f64());
    }
    Ok(stats::median(&rates))
}

/// The fleet view and the serve layer over a quiet copy of the
/// `serve_live` fixture (450 live pairs, four shards, history).
fn serve_probes(ctx: &mut RunCtx<'_>, sink: &mut Sink) -> Result<()> {
    let shape = FleetShape::full();
    let root = ctx.scratch.path("probe-fleet");
    build_fleet(&root, &shape, None)?;
    let manifest = FleetManifest::load(&root)
        .map_err(|e| format!("probe fleet manifest: {e}"))?
        .ok_or("probe fleet has no manifest")?;
    let (specs, settings) = (shape.specs(), shape.settings.clone());
    sink.put(
        "core.fleet.view_read_ms.s4",
        median_ms(9, || {
            Ok(FleetView::read(&root, &manifest, &specs, &settings, None).readable_count())
        })?,
        9,
    );
    let config = ServeConfig::new("127.0.0.1:0", &root, specs, settings);
    let out = ctx.scratch.path("probe-report");
    sink.put(
        "core.serve.report_render_ms",
        median_ms(9, || {
            write_report(&config, &out).map_err(|e| format!("write_report: {e}"))
        })?,
        9,
    );

    let server = spawn_server(ctx.product, &root, &shape, &[], &mut ctx.checks)?;
    let mut starts = vec![server.start_ms];
    // Clients keep off the server's CPU, as in the workload.
    let off_program_cpu = Pinned::harness();
    let mut conn = Conn::connect(&server.addr)?;
    let etag = conn
        .get("/heatmap.csv", None)?
        .etag
        .ok_or("no ETag on /heatmap.csv")?;
    const N: usize = 1000;
    for (metric, path, tag) in [
        ("core.serve.rtt_us.status", "/status", None),
        ("core.serve.rtt_us.heatmap", "/heatmap", None),
        ("core.serve.rtt_us.heatmap_csv", "/heatmap.csv", None),
        (
            "core.serve.rtt_us.heatmap_csv_304",
            "/heatmap.csv",
            Some(etag.as_str()),
        ),
        ("core.serve.rtt_us.freshness", "/freshness", None),
        ("core.serve.rtt_us.metrics", "/metrics", None),
        ("core.serve.rtt_us.dashboard", "/", None),
    ] {
        let (us, body_kb) = rtt_us(&mut conn, path, tag, N)?;
        sink.put(metric, us, N);
        match path {
            "/heatmap" => sink.put("core.serve.body_kb.heatmap", body_kb, 1),
            "/freshness" => sink.put("core.serve.body_kb.freshness", body_kb, 1),
            _ => {}
        }
    }
    drop(conn);
    // The open loop with nobody writing: what the reader costs alone.
    let idle = reader_loop(&server.addr, ctx.settings.seed, 1.0, &mut ctx.checks)?;
    let idle_us: Vec<f64> = idle
        .samples
        .iter()
        .map(|(s, _)| s.latency_ns() as f64 / 1e3)
        .collect();
    sink.put(
        "core.serve.idle_p50_us",
        stats::median(&idle_us),
        idle_us.len(),
    );
    sink.put(
        "core.serve.sat_req_per_s",
        saturation_req_per_s(&server.addr)?,
        3,
    );
    stop_server(server, &mut ctx.checks)?;

    let oracle = spawn_server(ctx.product, &root, &shape, &["--no-cache"], &mut ctx.checks)?;
    starts.push(oracle.start_ms);
    // Every uncached answer re-reads and re-renders the whole root.
    const UNCACHED: usize = 15;
    let (us, _) = rtt_us(
        &mut Conn::connect(&oracle.addr)?,
        "/heatmap.csv",
        None,
        UNCACHED,
    )?;
    sink.put("core.serve.nocache_rtt_us", us, UNCACHED);
    stop_server(oracle, &mut ctx.checks)?;
    drop(off_program_cpu);
    sink.put("core.serve.start_ms", stats::median(&starts), starts.len());
    Ok(())
}

/// The open loop beside a writer: the traced workload's own numbers on
/// `serve_live`, elsewhere those of its smoke shrink (1.5 s over the
/// 16-pair fixture, telemetry on for the view counters).
fn open_loop_probes(
    product: &Product,
    settings: Settings,
    own: Option<&Outcome>,
    sink: &mut Sink,
    checks: &mut Checks,
) -> Result<()> {
    let ran = match own {
        Some(_) => None,
        None => Some(smoke_run(product, "serve_live", settings, true, checks)?),
    };
    let outcome = own.or(ran.as_ref()).expect("own or just run");
    for (metric, name) in [
        ("core.serve.open_p50_us", "serve_p50_us"),
        ("core.serve.open_p99_us", "serve_p99_us"),
        ("core.serve.visible_p50_ms", "visible_p50_ms"),
        ("core.serve.visible_p95_ms", "visible_p95_ms"),
        ("core.serve.gen_late_p99_us", "gen_late_p99_us"),
        ("core.serve.refreshes", "view_refreshes"),
        ("core.serve.rebuilds", "view_rebuilds"),
        ("core.serve.rebuild_per_append", "rebuild_per_append"),
    ] {
        let (value, n) = detail(outcome, name)?;
        sink.put(metric, value, n);
    }
    Ok(())
}

/// `prudentia validate` against the checked-in golden traces.
fn validate_probe(ctx: &mut RunCtx<'_>, sink: &mut Sink) -> Result<()> {
    let golden = ctx.product.root.join("tests/golden").display().to_string();
    let run = ctx.child(
        "validate",
        None,
        &["validate", "--golden-dir", &golden],
        false,
    )?;
    sink.put("check.validate_s", run.wall.as_secs_f64(), 1);
    Ok(())
}

/// Run every fixture- and process-backed probe. `own` is the traced
/// workload's outcome, used where a layer's numbers are the workload's.
pub fn run(ctx: &mut RunCtx<'_>, workload: &str, own: &Outcome, sink: &mut Sink) -> Result<()> {
    let settings = ctx.settings;
    let s = ctx.tracer.begin("probe/apps", None);
    apps_probes(ctx, sink)?;
    ctx.tracer.end(s);

    let s = ctx.tracer.begin("probe/core.executor", None);
    executor_probes(ctx.scratch, sink, &mut ctx.checks)?;
    ctx.tracer.end(s);

    let s = ctx.tracer.begin("probe/core.campaign", None);
    campaign_probes(
        ctx.product,
        settings,
        (workload == "campaign_aqm").then_some(own),
        sink,
        &mut ctx.checks,
    )?;
    ctx.tracer.end(s);

    let s = ctx.tracer.begin("probe/store", None);
    store_probes(ctx.scratch, sink)?;
    ctx.tracer.end(s);

    let s = ctx.tracer.begin("probe/core.serve", None);
    serve_probes(ctx, sink)?;
    open_loop_probes(
        ctx.product,
        settings,
        (workload == "serve_live").then_some(own),
        sink,
        &mut ctx.checks,
    )?;
    ctx.tracer.end(s);

    let s = ctx.tracer.begin("probe/check", None);
    validate_probe(ctx, sink)?;
    ctx.tracer.end(s);
    Ok(())
}
