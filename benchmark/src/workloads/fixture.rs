//! Store fixtures built with the program's own write path: a sharded
//! fleet root filled by one in-process `Daemon::run_cycle` per shard,
//! then aged with cycles of superseded history.

use super::Result;
use prudentia_apps::{Service, ServiceSpec};
use prudentia_core::fleet::{prepare_root, shard_dir, ShardSpec};
use prudentia_core::{
    Daemon, DaemonConfig, DurationPolicy, MetricsRegistry, NetworkSetting, TrialPolicy,
    WatchdogConfig,
};
use prudentia_store::{kinds, Record, Store};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One trial per pair: the fixture needs records, not verdicts.
const FIXTURE_POLICY: TrialPolicy = TrialPolicy {
    min_trials: 1,
    batch: 1,
    max_trials: 1,
};

/// The shortest trials that still leave a measured window.
const FIXTURE_DURATION: DurationPolicy = DurationPolicy::Custom {
    duration_secs: 3,
    warmup_secs: 1,
    cooldown_secs: 1,
};

/// Shape of a fleet fixture.
#[derive(Debug, Clone)]
pub struct FleetShape {
    /// Matrix services.
    pub services: Vec<Service>,
    /// Matrix settings.
    pub settings: Vec<NetworkSetting>,
    /// Shard count.
    pub shards: u32,
    /// Times every live pair record is re-appended, leaving that many
    /// superseded copies behind each live record.
    pub history_cycles: usize,
}

impl FleetShape {
    /// The `serve_live` fixture: the whole Table 1 catalog on both
    /// paper settings (450 live pairs) over four shards, seven cycles
    /// of history.
    pub fn full() -> FleetShape {
        FleetShape {
            services: Service::all(),
            settings: vec![
                NetworkSetting::highly_constrained(),
                NetworkSetting::moderately_constrained(),
            ],
            shards: 4,
            history_cycles: 7,
        }
    }

    /// The shrunk fixture of `--smoke` runs and of the serve probes:
    /// four services on one setting (16 pairs), same shard count and
    /// code path.
    pub fn small() -> FleetShape {
        FleetShape {
            services: vec![
                Service::IperfReno,
                Service::IperfCubic,
                Service::IperfBbr,
                Service::GoogleMeet,
            ],
            settings: vec![NetworkSetting::highly_constrained()],
            shards: 4,
            history_cycles: 7,
        }
    }

    /// Service specs of the matrix.
    pub fn specs(&self) -> Vec<ServiceSpec> {
        self.services.iter().map(|s| s.spec()).collect()
    }

    /// Catalog labels of the matrix, for `--services`.
    pub fn labels(&self) -> Vec<&'static str> {
        self.services.iter().map(|s| s.label()).collect()
    }

    /// Pairs in the matrix.
    pub fn pairs(&self) -> usize {
        self.services.len() * self.services.len() * self.settings.len()
    }

    /// The `--setting` arguments that select this shape's settings on
    /// the CLI (none when both paper settings are in play).
    pub fn setting_args(&self) -> Vec<&'static str> {
        match self.settings.len() {
            1 if self.settings[0].rate_bps < 10e6 => vec!["--setting", "8"],
            1 => vec!["--setting", "50"],
            _ => Vec::new(),
        }
    }
}

/// What building a fixture wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixtureStats {
    /// Pair records appended (live + history).
    pub pair_records: u64,
    /// Bytes of PAIR payload handed to `Store::append`.
    pub payload_bytes: u64,
}

/// Build a fleet root at `root` (which must not exist yet). A metrics
/// registry, when given, receives the executor's and simulator's
/// telemetry for the trials the build runs.
pub fn build_fleet(
    root: &Path,
    shape: &FleetShape,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Result<FixtureStats> {
    let services = shape.specs();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("fixture {what}: {e}");
    prepare_root(
        root,
        shape.shards,
        &services,
        &shape.settings,
        FIXTURE_POLICY,
        FIXTURE_DURATION,
    )
    .map_err(|e| fail("prepare_root", &e))?;

    let watchdog = WatchdogConfig {
        settings: shape.settings.clone(),
        policy: FIXTURE_POLICY,
        duration: FIXTURE_DURATION,
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        change_threshold: 0.2,
        cache_path: None,
        metrics,
    };
    let mut stats = FixtureStats {
        pair_records: 0,
        payload_bytes: 0,
    };
    for index in 0..shape.shards {
        let dir = shard_dir(root, index);
        let shard = ShardSpec::new(index, shape.shards).map_err(|e| fail("shard spec", &e))?;
        let mut daemon = Daemon::open(
            services.clone(),
            DaemonConfig {
                watchdog: watchdog.clone(),
                store_dir: dir.clone(),
                batch_pairs: 32,
                max_pairs_per_run: None,
                shard: Some(shard),
            },
        )
        .map_err(|e| fail("open shard daemon", &e))?;
        let report = daemon.run_cycle().map_err(|e| fail("run_cycle", &e))?;
        if !report.completed() {
            return Err(format!("fixture cycle of shard {index} was interrupted"));
        }
        drop(daemon);

        // Age the shard: every live pair record is appended again, so
        // each key carries superseded copies a reader must fold away.
        let mut store = Store::open(&dir).map_err(|e| fail("reopen shard", &e))?;
        let live: Vec<Record> = store.latest_of_kind(kinds::PAIR).cloned().collect();
        stats.pair_records += live.len() as u64;
        stats.payload_bytes += live.iter().map(|r| r.payload.len() as u64).sum::<u64>();
        for _ in 0..shape.history_cycles {
            for rec in &live {
                store
                    .append(kinds::PAIR, rec.key, rec.schema, rec.payload.clone())
                    .map_err(|e| fail("append history", &e))?;
                stats.pair_records += 1;
                stats.payload_bytes += rec.payload.len() as u64;
            }
        }
        store.sync().map_err(|e| fail("sync shard", &e))?;
    }
    Ok(stats)
}

/// The shard directories of a fleet root, in shard order.
pub fn shard_dirs(root: &Path, shards: u32) -> Vec<PathBuf> {
    (0..shards).map(|i| shard_dir(root, i)).collect()
}
