//! `serve_live`: no simulation in the timed section. A `prudentia
//! serve` child answers an open-loop reader while a second thread
//! appends to the fleet root it serves; afterwards `prudentia report`
//! renders the same root through the uncached batch path.

use super::fixture::{build_fleet, shard_dirs, FixtureStats, FleetShape};
use super::{ms, EndToEnd, Fault, Measured, Outcome, Result, RunCtx, Telemetry};
use crate::affinity::Pinned;
use crate::http::{Conn, Response};
use crate::json::{as_f64, Json};
use crate::openloop::{run_open_loop, HostClock, Sample, SlotOps};
use crate::product::{digest, proc_status_kb, process_cpu_s, ChildGuard, ChildRun, Product};
use crate::rng::SplitMix;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::Checks;
use prudentia_core::fleet::ShardSpec;
use prudentia_core::{MetricsRegistry, PairRecord};
use prudentia_store::{kinds, Record, Snapshot, Store};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{ChildStderr, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the open loop, requests per second.
pub const OPEN_LOOP_RATE: f64 = 2000.0;

/// Fewest set-up repeats: a fleet build simulates hundreds of short
/// trials, so it is repeated less often than the cheap CLI set-ups.
const FIXTURE_REPEATS: usize = 3;

/// Server start/stop cycles timed before the one that stays up.
const EXTRA_COLD_STARTS: usize = 3;

/// `prudentia report` runs timed after the server is gone.
const REPORT_REPEATS: usize = 15;

/// The writer's schedule: append `k` is due at `k × 80 ms` plus a
/// seeded jitter of ±10 ms, so gaps are 60–100 ms and the number of
/// appends depends on the run length alone, not on the seed.
const WRITER_PERIOD_MS: u64 = 80;
const WRITER_JITTER_MS: u64 = 10;

/// An acknowledged append must be visible on `/heatmap.csv` this soon.
const VISIBLE_LIMIT: Duration = Duration::from_secs(1);

/// Pause between the writer's visibility polls.
const POLL_PAUSE: Duration = Duration::from_millis(1);

/// Consecutive failed requests after which the generator gives up on
/// the rest of its schedule (the server is gone).
const GIVE_UP_AFTER: u32 = 25;

/// Routes whose bytes must equal a `--no-cache` server's once the
/// writer has stopped.
const DATA_ROUTES: [&str; 7] = [
    "/",
    "/status",
    "/heatmap",
    "/heatmap.csv",
    "/freshness",
    "/campaign",
    "/campaign.csv",
];

/// The request kinds of the reader's rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    // Discriminants index `Route::ALL` and the prepared requests.
    HeatmapCsv,
    HeatmapCsvConditional,
    Status,
    Heatmap,
    Freshness,
}

impl Route {
    const ALL: [Route; 5] = [
        Route::HeatmapCsv,
        Route::HeatmapCsvConditional,
        Route::Status,
        Route::Heatmap,
        Route::Freshness,
    ];

    fn path(self) -> &'static str {
        match self {
            Route::HeatmapCsv | Route::HeatmapCsvConditional => "/heatmap.csv",
            Route::Status => "/status",
            Route::Heatmap => "/heatmap",
            Route::Freshness => "/freshness",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Route::HeatmapCsv => "http/heatmap.csv",
            Route::HeatmapCsvConditional => "http/heatmap.csv+inm",
            Route::Status => "http/status",
            Route::Heatmap => "http/heatmap",
            Route::Freshness => "http/freshness",
        }
    }
}

/// A running `prudentia serve` child.
pub(crate) struct Server {
    guard: ChildGuard,
    /// The address the server announced.
    pub(crate) addr: String,
    stderr: BufReader<ChildStderr>,
    /// Spawn → first answered `/heatmap.csv`.
    pub(crate) start_ms: f64,
}

/// Spawn `prudentia serve` on port 0, learn the address from its stderr
/// banner, and time how long until it answers its first request.
pub(crate) fn spawn_server(
    product: &Product,
    root: &Path,
    shape: &FleetShape,
    extra: &[&str],
    checks: &mut Checks,
) -> Result<Server> {
    let root_arg = root.display().to_string();
    let labels = shape.labels().join(",");
    let mut args = vec![
        "serve",
        "--store",
        &root_arg,
        "--workers",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--services",
        &labels,
    ];
    args.extend(shape.setting_args());
    args.extend(extra);
    let started = Instant::now();
    // The child inherits the affinity of the thread that spawns it.
    let on_program_cpu = Pinned::program();
    let child = product
        .command(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn prudentia serve: {e}"))?;
    drop(on_program_cpu);
    let mut guard = ChildGuard::new(child);
    let mut stderr = BufReader::new(
        guard
            .child_mut()
            .stderr
            .take()
            .expect("stderr was requested piped"),
    );
    // prudentia serving on http://127.0.0.1:PORT/ (2 workers, cache on)
    let addr = loop {
        let mut line = String::new();
        let n = stderr
            .read_line(&mut line)
            .map_err(|e| format!("read serve banner: {e}"))?;
        if n == 0 {
            return Err("prudentia serve exited before announcing its address".to_string());
        }
        if let Some(rest) = line.split_once("http://").map(|(_, r)| r) {
            break rest.split('/').next().unwrap_or("").to_string();
        }
    };
    let first = Conn::connect(&addr)?.get("/heatmap.csv", None)?;
    let start_ms = ms(started.elapsed());
    checks.check(first.verify().is_ok() && first.status == 200, || {
        format!("first /heatmap.csv after start: {:?}", first.verify())
    });
    Ok(Server {
        guard,
        addr,
        stderr,
        start_ms,
    })
}

/// Ask the server to shut down over HTTP; it must exit 0 and say so.
pub(crate) fn stop_server(server: Server, checks: &mut Checks) -> Result<()> {
    let Server {
        guard,
        addr,
        mut stderr,
        ..
    } = server;
    let bye = Conn::connect(&addr)?.get("/shutdown", None)?;
    checks.check(bye.status == 200, || {
        format!("/shutdown answered {}", bye.status)
    });
    let status = guard.wait_timeout(Duration::from_secs(10))?;
    let mut tail = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut tail).ok();
    checks.check(status.success() && tail.contains("shut down"), || {
        format!("serve exited with {status}, stderr tail {tail:?}")
    });
    Ok(())
}

/// One pair the writer may re-append.
struct PairSlot {
    shard: usize,
    key: u64,
    schema: u32,
    base: PairRecord,
    bumps: u64,
}

/// The last acknowledged append per key, for the reopen check.
struct Acked {
    shard: usize,
    key: u64,
    seq: u64,
    payload_digest: String,
}

/// What the writer thread measured.
struct WriterReport {
    append_us: Vec<f64>,
    visible_ms: Vec<f64>,
    acked: Vec<Acked>,
    appends_per_shard: Vec<u64>,
    checks: Checks,
    tracer: Tracer,
}

/// Append one perturbed pair record every 60–100 ms (seeded jitter on
/// an 80 ms grid) to its owning shard, and time how long until `/heatmap.csv` carries a new ETag.
fn writer_loop(
    root: &Path,
    shards: u32,
    addr: &str,
    seed: u64,
    stop: &AtomicBool,
    mut tracer: Tracer,
) -> Result<WriterReport> {
    let mut checks = Checks::default();
    let mut stores = Vec::new();
    let mut slots = Vec::new();
    for (shard, dir) in shard_dirs(root, shards).into_iter().enumerate() {
        let store = Store::open(&dir).map_err(|e| format!("writer open shard {shard}: {e}"))?;
        for rec in store.latest_of_kind(kinds::PAIR) {
            let base: PairRecord = rec
                .decode()
                .map_err(|e| format!("fixture pair record: {e}"))?;
            let owner = ShardSpec::owner(rec.key, shards) as usize;
            checks.check(owner == shard, || {
                format!(
                    "pair {:016x} sits in shard {shard}, owner is {owner}",
                    rec.key
                )
            });
            slots.push(PairSlot {
                shard,
                key: rec.key,
                schema: rec.schema,
                base,
                bumps: 0,
            });
        }
        stores.push(store);
    }
    if slots.is_empty() {
        return Err("fixture holds no pair records".to_string());
    }

    let mut rng = SplitMix(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
    let mut conn = Conn::connect(addr)?;
    let mut etag = conn
        .get("/heatmap.csv", None)?
        .etag
        .ok_or("no ETag on /heatmap.csv")?;
    let mut report = WriterReport {
        append_us: Vec::new(),
        visible_ms: Vec::new(),
        acked: Vec::new(),
        appends_per_shard: vec![0; shards as usize],
        checks: Checks::default(),
        tracer: Tracer::new(false),
    };

    let mut serial = 0u64;
    let origin = Instant::now();
    loop {
        // An append is never started before its due time; one whose
        // predecessor was slow to become visible starts late.
        let due_ms =
            (serial + 1) * WRITER_PERIOD_MS + rng.range(0, 2 * WRITER_JITTER_MS) - WRITER_JITTER_MS;
        let due = origin + Duration::from_millis(due_ms);
        while Instant::now() < due && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(
                Duration::from_millis(1).min(due.saturating_duration_since(Instant::now())),
            );
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let slot_index = (rng.next() % slots.len() as u64) as usize;
        let slot = &mut slots[slot_index];
        slot.bumps += 1;
        let mut rec = slot.base.clone();
        let base = rec.outcome.incumbent_mmf_median;
        // Far above the CSV's two-decimal rendering, and never the value
        // the pair currently shows.
        rec.outcome.incumbent_mmf_median =
            if base.is_finite() { base } else { 0.0 } + 0.013 * (slot.bumps % 40 + 1) as f64;
        let payload =
            Record::encode(kinds::PAIR, &rec).map_err(|e| format!("encode pair record: {e}"))?;
        let payload_digest = digest(payload.as_bytes());

        let begun = Instant::now();
        let appended = stores[slot.shard].append(kinds::PAIR, slot.key, slot.schema, payload);
        let acked_at = Instant::now();
        let span = tracer.record("store/append", None, Some(serial), begun, acked_at);
        checks.check(appended.is_ok(), || {
            format!("append failed: {:?}", appended.as_ref().err())
        });
        let Ok(seq) = appended else {
            continue;
        };
        report
            .append_us
            .push(acked_at.duration_since(begun).as_secs_f64() * 1e6);
        report.appends_per_shard[slot.shard] += 1;
        report.acked.retain(|a| a.key != slot.key);
        report.acked.push(Acked {
            shard: slot.shard,
            key: slot.key,
            seq,
            payload_digest,
        });

        // Visible = the first /heatmap.csv answer carrying a new ETag.
        let visible = loop {
            let answer = conn.get("/heatmap.csv", Some(&etag));
            let now = Instant::now();
            match answer {
                Ok(r) if r.status == 200 && r.etag.as_deref() != Some(etag.as_str()) => {
                    checks.check(r.verify().is_ok(), || format!("poll: {:?}", r.verify()));
                    etag = r.etag.unwrap_or_default();
                    break Some(now);
                }
                Ok(r) => {
                    checks.check(r.verify().is_ok(), || format!("poll: {:?}", r.verify()));
                }
                Err(e) => {
                    checks.check(false, || format!("visibility poll: {e}"));
                    conn = Conn::connect(addr)?;
                }
            }
            if now.duration_since(acked_at) > VISIBLE_LIMIT {
                break None;
            }
            std::thread::sleep(POLL_PAUSE);
        };
        checks.check(visible.is_some(), || {
            format!("append seq {seq} not visible within {VISIBLE_LIMIT:?}")
        });
        if let Some(seen_at) = visible {
            report.visible_ms.push(ms(seen_at.duration_since(acked_at)));
            tracer.record("serve/visible", span, Some(serial), acked_at, seen_at);
        }
        serial += 1;
    }
    for store in &mut stores {
        store
            .sync()
            .map_err(|e| format!("sync shard after writes: {e}"))?;
    }
    report.checks = checks;
    report.tracer = tracer;
    Ok(report)
}

/// What the reader measured.
pub(crate) struct ReaderReport {
    pub(crate) samples: Vec<(Sample, Route)>,
    body_kb: Vec<(Route, f64)>,
    gave_up: bool,
    /// The instant the samples' nanoseconds count from.
    origin: Instant,
}

/// The reader's per-slot work: one request on one keep-alive
/// connection, verified outside the timed part of the slot.
struct Reader<'a> {
    addr: &'a str,
    conn: Conn,
    rotation: Vec<Route>,
    plain: Vec<Vec<u8>>,
    /// The `/heatmap.csv` ETag last seen, and the conditional request
    /// carrying it.
    etag: String,
    conditional: Vec<u8>,
    routes: Vec<Route>,
    body_kb: Vec<(Route, f64)>,
    failures_in_a_row: u32,
    checks: &'a mut Checks,
}

impl Reader<'_> {
    fn route_of(&self, index: u64) -> Route {
        self.rotation[(index % self.rotation.len() as u64) as usize]
    }
}

impl SlotOps for Reader<'_> {
    type Answer = Option<Response>;

    fn abandoned(&self) -> bool {
        self.failures_in_a_row >= GIVE_UP_AFTER
    }

    fn timed(&mut self, index: u64) -> Option<Response> {
        let route = self.route_of(index);
        let request = match route {
            Route::HeatmapCsvConditional => &self.conditional,
            other => &self.plain[other as usize],
        };
        match self.conn.round_trip(request) {
            Ok(r) => Some(r),
            Err(_) => {
                // A dead connection costs one slot; a dead server fails
                // every slot until the loop gives up.
                if let Ok(fresh) = Conn::connect(self.addr) {
                    self.conn = fresh;
                }
                None
            }
        }
    }

    fn untimed(&mut self, index: u64, answer: Option<Response>) {
        let route = self.route_of(index);
        self.routes.push(route);
        let Some(r) = answer else {
            self.failures_in_a_row += 1;
            self.checks.check(false, || {
                format!("request {index} {}: no answer", route.path())
            });
            return;
        };
        self.failures_in_a_row = 0;
        let verdict = r.verify();
        self.checks.check(verdict.is_ok(), || {
            format!("request {index} {}: {verdict:?}", route.path())
        });
        if r.status != 200 {
            return;
        }
        if route.path() == "/heatmap.csv" && r.etag.as_deref() != Some(self.etag.as_str()) {
            self.etag = r.etag.clone().unwrap_or_default();
            self.conditional = Conn::request_bytes("/heatmap.csv", Some(&self.etag));
        }
        if !self
            .body_kb
            .iter()
            .any(|(seen, _)| seen.path() == route.path())
        {
            self.body_kb.push((route, r.body.len() as f64 / 1024.0));
        }
    }
}

/// The open loop: one thread, one keep-alive connection, a seeded
/// rotation over the routes.
pub(crate) fn reader_loop(
    addr: &str,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<ReaderReport> {
    let mut rng = SplitMix(seed);
    let mut conn = Conn::connect(addr)?;
    let etag = conn
        .get("/heatmap.csv", None)?
        .etag
        .ok_or("no ETag on /heatmap.csv")?;
    let mut reader = Reader {
        addr,
        conn,
        rotation: (0..997)
            .map(|_| Route::ALL[(rng.next() % Route::ALL.len() as u64) as usize])
            .collect(),
        plain: Route::ALL
            .iter()
            .map(|r| Conn::request_bytes(r.path(), None))
            .collect(),
        conditional: Conn::request_bytes("/heatmap.csv", Some(&etag)),
        etag,
        routes: Vec::new(),
        body_kb: Vec::new(),
        failures_in_a_row: 0,
        checks,
    };
    let mut clock = HostClock::start();
    let samples = run_open_loop(
        &mut clock,
        OPEN_LOOP_RATE,
        (seconds * 1e9) as u64,
        &mut reader,
    );
    Ok(ReaderReport {
        gave_up: reader.failures_in_a_row >= GIVE_UP_AFTER,
        samples: samples.into_iter().zip(reader.routes).collect(),
        body_kb: reader.body_kb,
        origin: clock.origin(),
    })
}

/// A `/metrics` scrape: the named counters as numbers.
fn scrape(addr: &str, names: &[&str]) -> Result<Vec<f64>> {
    let r = Conn::connect(addr)?.get("/metrics", None)?;
    let doc = Json::parse(&String::from_utf8_lossy(&r.body))?.0;
    names
        .iter()
        .map(|n| {
            doc.get(n)
                .and_then(as_f64)
                .ok_or_else(|| format!("/metrics has no {n}"))
        })
        .collect()
}

/// Fetch every data route once.
fn fetch_routes(addr: &str, checks: &mut Checks) -> Result<Vec<Response>> {
    let mut conn = Conn::connect(addr)?;
    DATA_ROUTES
        .iter()
        .map(|path| {
            let r = conn.get(path, None)?;
            checks.check(r.verify().is_ok() && r.status == 200, || {
                format!("{path}: {:?}", r.verify())
            });
            Ok(r)
        })
        .collect()
}

/// The heatmap CSVs `prudentia report` wrote to `dir`, name-sorted
/// (none when the report failed before creating the directory).
fn report_csvs(dir: &Path) -> Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(files);
    };
    for entry in entries {
        let path = entry.map_err(|e| format!("list report: {e}"))?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with("heatmap-") && name.ends_with(".csv") {
            let bytes = std::fs::read(&path).map_err(|e| format!("read {name}: {e}"))?;
            files.push((name, bytes));
        }
    }
    files.sort();
    Ok(files)
}

/// `--fault corrupt-record`: break one line in the middle of shard 0's
/// segment file, as a flipped byte on disk would.
fn corrupt_one_record(root: &Path) -> Result<()> {
    let segment = shard_dirs(root, 1)[0].join("seg-000000.jsonl");
    let mut bytes =
        std::fs::read(&segment).map_err(|e| format!("read {}: {e}", segment.display()))?;
    let middle = bytes.len() / 2;
    bytes[middle] = b'\n';
    std::fs::write(&segment, bytes).map_err(|e| format!("write {}: {e}", segment.display()))
}

/// The fleet root being served, and how the CLI is pointed at it.
struct Site {
    shape: FleetShape,
    root: PathBuf,
    root_arg: String,
    labels: String,
}

impl Site {
    fn new(shape: FleetShape, root: PathBuf) -> Site {
        Site {
            root_arg: root.display().to_string(),
            labels: shape.labels().join(","),
            shape,
            root,
        }
    }

    /// Run `prudentia report --store STORE --out OUT` over this matrix.
    fn report(
        &self,
        ctx: &mut RunCtx<'_>,
        tag: &str,
        parent: Option<SpanId>,
        store: &str,
        out: &Path,
    ) -> Result<ChildRun> {
        let out = out.display().to_string();
        let mut args = vec![
            "report",
            "--store",
            store,
            "--out",
            &out,
            "--services",
            &self.labels,
        ];
        args.extend(self.shape.setting_args());
        ctx.child(tag, parent, &args, false)
    }

    fn serve(&self, ctx: &mut RunCtx<'_>, extra: &[&str]) -> Result<Server> {
        spawn_server(ctx.product, &self.root, &self.shape, extra, &mut ctx.checks)
    }
}

/// What set-up built.
struct Fixture {
    root: PathBuf,
    stats: FixtureStats,
    setup_times: Vec<f64>,
    telemetry: Option<Telemetry>,
}

/// Set-up: the fleet root, built with the program's own write path.
/// Every repeat simulates and writes the same records; the last root is
/// the one served.
fn build_fixture(
    ctx: &mut RunCtx<'_>,
    shape: &FleetShape,
    parent: Option<SpanId>,
) -> Result<Fixture> {
    let setup_span = ctx.tracer.begin("setup", parent);
    let registry = ctx
        .settings
        .traced
        .then(|| Arc::new(MetricsRegistry::new()));
    let mut setup_times = Vec::new();
    let mut built: Option<(PathBuf, FixtureStats)> = None;
    for i in 0..FIXTURE_REPEATS {
        let root = ctx.scratch.path(&format!("fleet-{i}"));
        // Telemetry of the last build only, so counts are per build.
        let reg = registry.clone().filter(|_| i + 1 == FIXTURE_REPEATS);
        let started = Instant::now();
        let build_span = ctx.tracer.begin("fixture/build_fleet", setup_span);
        let stats = build_fleet(&root, shape, reg)?;
        ctx.tracer.end(build_span);
        setup_times.push(started.elapsed().as_secs_f64());
        if let Some((old, _)) = built.replace((root, stats)) {
            std::fs::remove_dir_all(&old).ok();
        }
    }
    ctx.tracer.end(setup_span);
    let (root, stats) = built.expect("at least one fixture repeat");
    ctx.checks.check(
        stats.pair_records == shape.pairs() as u64 * (shape.history_cycles as u64 + 1),
        || format!("fixture wrote {} pair records", stats.pair_records),
    );
    let last_build_s = *setup_times.last().expect("at least one fixture repeat");
    Ok(Fixture {
        telemetry: registry.map(|reg| Telemetry {
            sim_events: reg.counter("sim/events_total").get(),
            sim_wall_s: last_build_s,
        }),
        root,
        stats,
        setup_times,
    })
}

/// Fixture self-check: the fleet root reports byte-identical heatmaps to
/// the single store its shards merge into. Nothing measured over a
/// broken fixture means anything, so a failure here ends the run.
fn self_check(ctx: &mut RunCtx<'_>, site: &Site, parent: Option<SpanId>) -> Result<()> {
    let merged = ctx.scratch.path("merged").display().to_string();
    let (rep_fleet, rep_merged) = (
        ctx.scratch.path("report-fleet"),
        ctx.scratch.path("report-merged"),
    );
    ctx.child(
        "fleet-merge",
        parent,
        &[
            "fleet",
            "merge",
            "--store",
            &site.root_arg,
            "--out",
            &merged,
        ],
        false,
    )?;
    site.report(ctx, "report-selfcheck", parent, &site.root_arg, &rep_fleet)?;
    site.report(ctx, "report-selfcheck", parent, &merged, &rep_merged)?;
    let (a, b) = (report_csvs(&rep_fleet)?, report_csvs(&rep_merged)?);
    ctx.checks.check(!a.is_empty() && a == b, || {
        "fleet root and merged single store report different heatmaps".to_string()
    });
    if ctx.checks.failed > 0 {
        return Err(format!(
            "serve_live fixture self-check failed: {}",
            ctx.checks.reasons.join("; ")
        ));
    }
    Ok(())
}

/// What the timed section measured.
struct Live {
    reader: ReaderReport,
    writer: WriterReport,
    /// Server CPU seconds over the loop.
    cpu_s: f64,
    loop_wall_s: f64,
    /// `/metrics` deltas over the loop (telemetry runs).
    view_deltas: Option<Vec<f64>>,
}

/// The timed section: open-loop reads beside the writer.
fn live_section(
    ctx: &mut RunCtx<'_>,
    site: &Site,
    server: &Server,
    seconds: f64,
    parent: Option<SpanId>,
) -> Result<Live> {
    const COUNTERS: [&str; 3] = [
        "serve/view_refreshes",
        "serve/view_rebuilds",
        "serve/requests",
    ];
    let (addr, pid, seed) = (server.addr.as_str(), server.guard.pid(), ctx.settings.seed);
    let before = match ctx.settings.traced {
        true => Some(scrape(addr, &COUNTERS)?),
        false => None,
    };

    let loop_span = ctx.tracer.begin("open-loop", parent);
    let stop = AtomicBool::new(false);
    let writer_tracer = ctx.tracer.fork();
    let kill_server = ctx.settings.fault == Some(Fault::KillServer);
    let cpu_before = process_cpu_s(pid).unwrap_or(0.0);
    let loop_started = Instant::now();
    // Reader and writer keep off the server's CPU (see `affinity`).
    let off_program_cpu = Pinned::harness();
    let (reader, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            writer_loop(
                &site.root,
                site.shape.shards,
                addr,
                seed,
                &stop,
                writer_tracer,
            )
        });
        if kill_server {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
                std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status()
                    .ok();
            });
        }
        let reader = reader_loop(addr, seed, seconds, &mut ctx.checks);
        stop.store(true, Ordering::Relaxed);
        (reader, writer.join().expect("writer thread never panics"))
    });
    drop(off_program_cpu);
    let loop_wall_s = loop_started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s(pid).unwrap_or(0.0) - cpu_before;

    let reader = reader?;
    if reader.gave_up {
        return Err(format!(
            "prudentia serve stopped answering mid-run: the reader gave up after \
             {GIVE_UP_AFTER} unanswered requests in a row (writer: {})",
            writer
                .err()
                .unwrap_or_else(|| "still appending".to_string())
        ));
    }
    let mut writer = writer.map_err(|e| format!("serve_live writer: {e}"))?;
    ctx.checks.absorb(std::mem::take(&mut writer.checks));
    ctx.tracer.absorb(
        std::mem::replace(&mut writer.tracer, Tracer::new(false)),
        loop_span,
    );
    if ctx.tracer.enabled() {
        // Request spans are rebuilt from the loop's own timestamps, so
        // the traced loop runs the same instructions as the untraced.
        for (s, route) in &reader.samples {
            ctx.tracer.record(
                route.span_name(),
                loop_span,
                Some(s.index),
                reader.origin + Duration::from_nanos(s.sent_ns),
                reader.origin + Duration::from_nanos(s.done_ns),
            );
        }
    }
    ctx.tracer.end(loop_span);

    let view_deltas = match before {
        Some(before) => {
            let after = scrape(addr, &COUNTERS)?;
            Some(after.iter().zip(&before).map(|(a, b)| a - b).collect())
        }
        None => None,
    };
    Ok(Live {
        reader,
        writer,
        cpu_s,
        loop_wall_s,
        view_deltas,
    })
}

/// Quiesced: the cached server must answer every data route with the
/// bytes a `--no-cache` server renders from the same store. Returns the
/// `/heatmap.csv` digest and the oracle's start time.
fn compare_with_oracle(
    ctx: &mut RunCtx<'_>,
    site: &Site,
    cached_addr: &str,
) -> Result<(String, f64)> {
    std::thread::sleep(Duration::from_millis(150));
    let cached = fetch_routes(cached_addr, &mut ctx.checks)?;
    let oracle_server = site.serve(ctx, &["--no-cache"])?;
    let start_ms = oracle_server.start_ms;
    let oracle = fetch_routes(&oracle_server.addr, &mut ctx.checks)?;
    let mut heatmap_digest = String::new();
    for ((path, c), o) in DATA_ROUTES.iter().zip(&cached).zip(&oracle) {
        ctx.checks.check(c.body == o.body && c.etag == o.etag, || {
            format!(
                "{path}: cached {} != --no-cache {}",
                digest(&c.body),
                digest(&o.body)
            )
        });
        if *path == "/heatmap.csv" {
            heatmap_digest = digest(&c.body);
        }
    }
    stop_server(oracle_server, &mut ctx.checks)?;
    Ok((heatmap_digest, start_ms))
}

/// Reopened shards hold every acknowledged append: sequence numbers are
/// dense from 0 (the fixture's pair records and two checkpoints per
/// shard, then one per append), and the last append of every key is
/// that key's live record.
fn check_reopened(
    ctx: &mut RunCtx<'_>,
    site: &Site,
    fixture: &FixtureStats,
    writer: &WriterReport,
) -> Result<()> {
    let snaps = shard_dirs(&site.root, site.shape.shards)
        .iter()
        .map(|dir| Snapshot::read(dir).map_err(|e| format!("reopen {}: {e}", dir.display())))
        .collect::<Result<Vec<_>>>()?;
    let total_seq: u64 = snaps.iter().map(Snapshot::next_seq).sum();
    let expected_seq =
        fixture.pair_records + 2 * u64::from(site.shape.shards) + writer.append_us.len() as u64;
    ctx.checks.check(total_seq == expected_seq, || {
        format!("shards hold {total_seq} sequence numbers, expected {expected_seq}")
    });
    for ack in &writer.acked {
        let live = snaps[ack.shard].latest(kinds::PAIR, ack.key);
        ctx.checks.check(
            live.is_some_and(|r| {
                r.seq == ack.seq && digest(r.payload.as_bytes()) == ack.payload_digest
            }),
            || format!("acknowledged append seq {} is not the live record", ack.seq),
        );
    }
    Ok(())
}

/// Median of the p99s of each full second of the loop: robust to one
/// neighbour burst, still sees the 25 ms refresher.
fn per_second_p99_us(samples: &[(Sample, Route)]) -> (f64, usize) {
    let mut per_second: Vec<Vec<f64>> = Vec::new();
    for (s, _) in samples {
        let sec = (s.due_ns / 1_000_000_000) as usize;
        if per_second.len() <= sec {
            per_second.resize(sec + 1, Vec::new());
        }
        per_second[sec].push(s.latency_ns() as f64 / 1e3);
    }
    let p99s: Vec<f64> = per_second
        .iter()
        .filter(|sec| stats::top_percentile(sec.len()).is_some_and(|p| p >= 0.99))
        .map(|sec| stats::quantile_sorted(&stats::sorted(sec), 0.99))
        .collect();
    (stats::median(&p99s), p99s.len())
}

/// The workload's own numbers, beyond the shared end-to-end ones.
fn detail_of(live: &Live, report_ms: &[f64], start_ms: &[f64], fixture: &Fixture) -> Vec<Measured> {
    let us = |pick: fn(&Sample) -> u64| -> Vec<f64> {
        live.reader
            .samples
            .iter()
            .map(|(s, _)| pick(s) as f64 / 1e3)
            .collect()
    };
    let (lat_us, late_us) = (us(Sample::latency_ns), us(Sample::late_ns));
    let lat = stats::summarize(&lat_us);
    let (p99, p99_n) = per_second_p99_us(&live.reader.samples);
    let visible = stats::sorted(&live.writer.visible_ms);
    let appends = live.writer.append_us.len();

    let mut detail = vec![
        Measured::new("serve_p50_us", lat.p50, "us", lat.n),
        Measured::new("serve_p99_us", p99, "us", p99_n),
        Measured::new(
            "visible_p50_ms",
            stats::quantile_sorted(&visible, 0.5),
            "ms",
            visible.len(),
        ),
        Measured::new(
            "visible_p95_ms",
            stats::quantile_sorted(&visible, 0.95),
            "ms",
            visible.len(),
        ),
        Measured::new(
            "report_wall_ms",
            stats::median(report_ms),
            "ms",
            report_ms.len(),
        ),
        Measured::new(
            "serve_start_ms",
            stats::median(start_ms),
            "ms",
            start_ms.len(),
        ),
        Measured::new(
            "gen_late_p99_us",
            stats::quantile_sorted(&stats::sorted(&late_us), 0.99),
            "us",
            late_us.len(),
        ),
        Measured::new(
            "append_us",
            stats::median(&live.writer.append_us),
            "us",
            appends,
        ),
        Measured::new("appends", appends as f64, "count", 1),
        Measured::new("requests", lat.n as f64, "count", 1),
        Measured::new(
            "fixture_pair_records",
            fixture.stats.pair_records as f64,
            "count",
            1,
        ),
        Measured::new("loop_wall_s", live.loop_wall_s, "s", 1),
    ];
    if let Some((p, v)) = lat.top {
        detail.push(Measured::new(
            format!("serve_p{}_us", p * 100.0),
            v,
            "us",
            lat.n,
        ));
    }
    for (route, kb) in &live.reader.body_kb {
        detail.push(Measured::new(
            format!("body_kb{}", route.path().replace('/', ".")),
            *kb,
            "KB",
            1,
        ));
    }
    if let Some(d) = &live.view_deltas {
        detail.push(Measured::new("view_refreshes", d[0], "count", 1));
        detail.push(Measured::new("view_rebuilds", d[1], "count", 1));
        detail.push(Measured::new(
            "rebuild_per_append",
            d[1] / appends.max(1) as f64,
            "ratio",
            1,
        ));
        detail.push(Measured::new("served_requests", d[2], "count", 1));
    }
    detail
}

/// Run the serve workload.
pub fn run(ctx: &mut RunCtx<'_>) -> Result<Outcome> {
    let root_span = ctx.tracer.begin("serve_live", None);
    let (shape, seconds) = match ctx.settings.smoke {
        true => (FleetShape::small(), ctx.settings.seconds.min(1.5)),
        false => (FleetShape::full(), ctx.settings.seconds),
    };
    let fixture = build_fixture(ctx, &shape, root_span)?;
    if ctx.settings.fault == Some(Fault::CorruptRecord) {
        corrupt_one_record(&fixture.root)?;
    }
    let site = Site::new(shape, fixture.root.clone());
    self_check(ctx, &site, root_span)?;

    // Cold starts, then the server that stays up.
    let mut start_ms = Vec::new();
    for _ in 0..EXTRA_COLD_STARTS {
        let server = site.serve(ctx, &[])?;
        start_ms.push(server.start_ms);
        stop_server(server, &mut ctx.checks)?;
    }
    let server = site.serve(ctx, &[])?;
    start_ms.push(server.start_ms);

    let live = live_section(ctx, &site, &server, seconds, root_span)?;
    let peak_rss_mb = proc_status_kb(server.guard.pid(), "VmHWM").unwrap_or(0) as f64 / 1024.0;
    let (heatmap_digest, oracle_start_ms) = compare_with_oracle(ctx, &site, &server.addr)?;
    start_ms.push(oracle_start_ms);
    stop_server(server, &mut ctx.checks)?;
    check_reopened(ctx, &site, &fixture.stats, &live.writer)?;

    // The batch path over the same (now quiet) root.
    let report_span = ctx.tracer.begin("reports", root_span);
    let report_out = ctx.scratch.path("report-timed");
    let mut report_ms = Vec::new();
    for _ in 0..if ctx.settings.smoke {
        3
    } else {
        REPORT_REPEATS
    } {
        let run = site.report(ctx, "report", report_span, &site.root_arg, &report_out)?;
        report_ms.push(ms(run.wall));
    }
    ctx.tracer.end(report_span);
    ctx.tracer.end(root_span);

    let visible = stats::summarize(&live.writer.visible_ms);
    Ok(Outcome {
        e2e: EndToEnd {
            setup_s: stats::median(&fixture.setup_times),
            setup_n: fixture.setup_times.len(),
            // Cold: a fresh process renders the whole root through the
            // uncached batch path. Warm: the running server's incremental
            // path makes a new result visible.
            cold_wall_s: stats::median(&report_ms) / 1e3,
            cold_n: report_ms.len(),
            warm_wall_ms: visible.p50,
            warm_n: visible.n,
            peak_rss_mb,
            cpu_s: live.cpu_s,
        },
        detail: detail_of(&live, &report_ms, &start_ms, &fixture),
        digests: vec![("heatmap_csv".to_string(), heatmap_digest)],
        telemetry: fixture.telemetry,
    })
}
