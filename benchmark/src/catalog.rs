//! The metric catalogue: the single list `BENCHMARK.json`, the output
//! of `run` / `trace`, `diff` and the README table are all held to (a
//! unit test compares `BENCHMARK.json` against it).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
}

/// An end-to-end metric: every workload reports every one.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric: reported by the traced run, never gated.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Name; its prefix up to the first `.` pair names the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Seconds the time-driven sections run for by default; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "pairs_bulk",
        why: "3 long-lived bulk CCAs, all pairs at 50 Mbps: wheel, drop-tail queue and per-ACK transport+CCA do all the work; replays from the trial cache isolate executor+cache",
    },
    WorkloadDef {
        name: "pairs_apps",
        why: "ABR video, 4/5-flow chunked downloads, GCC RTC and a 20-flow page load: timer-heavy, paced, many short flows - a sim change that helps bulk flows but hurts these shows here",
    },
    WorkloadDef {
        name: "campaign_aqm",
        why: "32-cell grid over CoDel/FQ-CoDel/RED/DualPI2, Prague ECN and the LTE impairment through the sequential uncached mix-cell runner, verdict lock and per-cell store checkpoints",
    },
    WorkloadDef {
        name: "serve_live",
        why: "no simulation while timed: open-loop 2000 req/s reads of a 450-pair 4-shard fleet root beside a writer appending to it, then report - store, fleet merge, view rebuild and HTTP do the work",
    },
];

/// The end-to-end metrics, named by role because the driver's contract
/// has every workload report every one (see the README for what each
/// means on each workload).
pub const END_TO_END: [EndToEndDef; 5] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "cold_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndDef {
        name: "warm_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics; layers are the repository's crates and the
/// modules of `prudentia-core`.
pub const PER_LAYER: [LayerDef; 98] = [
    // Taken from the traced workload itself.
    lower("bench.trace_overhead_share", "ratio"),
    lower("sim.events", "count"),
    lower("sim.ns_event", "ns"),
    lower("share.wheel", "ratio"),
    lower("share.engine_bare", "ratio"),
    // sim
    lower("sim.wheel.hold_ns.occ64", "ns"),
    lower("sim.wheel.hold_ns.occ4k", "ns"),
    lower("sim.wheel.hold_ns.occ64k", "ns"),
    lower("sim.wheel.far_ns", "ns"),
    lower("sim.arena.alloc_take_ns", "ns"),
    lower("sim.engine.bare_ns_event", "ns"),
    lower("sim.qdisc.droptail.ns_pkt", "ns"),
    lower("sim.qdisc.codel.ns_pkt", "ns"),
    lower("sim.qdisc.fq_codel.ns_pkt", "ns"),
    lower("sim.qdisc.red.ns_pkt", "ns"),
    lower("sim.qdisc.dualpi2.ns_pkt", "ns"),
    lower("sim.qdisc.droptail.drop_share", "ratio"),
    lower("sim.qdisc.codel.drop_share", "ratio"),
    lower("sim.qdisc.fq_codel.drop_share", "ratio"),
    lower("sim.qdisc.red.drop_share", "ratio"),
    lower("sim.qdisc.dualpi2.drop_share", "ratio"),
    // cc: one per registry name
    lower("cc.NewReno.ack_ns", "ns"),
    lower("cc.Cubic.ack_ns", "ns"),
    lower("cc.BbrV1Linux415.ack_ns", "ns"),
    lower("cc.BbrV1Linux515.ack_ns", "ns"),
    lower("cc.BbrV11YoutubeTuned.ack_ns", "ns"),
    lower("cc.BbrV11Youtube2022.ack_ns", "ns"),
    lower("cc.BbrV1MegaTuned.ack_ns", "ns"),
    lower("cc.BbrV3.ack_ns", "ns"),
    lower("cc.Gcc.ack_ns", "ns"),
    lower("cc.LedbatPP.ack_ns", "ns"),
    lower("cc.BbrV2.ack_ns", "ns"),
    lower("cc.Prague.ack_ns", "ns"),
    // transport
    lower("transport.bulk_ns_pkt", "ns"),
    lower("transport.paced_ns_pkt", "ns"),
    // apps
    lower("apps.YouTube.solo_ms", "ms"),
    lower("apps.Netflix.solo_ms", "ms"),
    lower("apps.Mega.solo_ms", "ms"),
    lower("apps.Meet.solo_ms", "ms"),
    lower("apps.news_goog.solo_ms", "ms"),
    lower("apps.iPerf-Cubic.solo_ms", "ms"),
    // stats
    lower("stats.median_ci_ns.n10", "ns"),
    lower("stats.median_ci_ns.n30", "ns"),
    lower("stats.verdict_locked_ns.n6", "ns"),
    // core.executor / core.cache
    lower("core.executor.overhead_share", "ratio"),
    lower("core.executor.warm_us_trial", "us"),
    higher("core.executor.par2_speedup", "ratio"),
    lower("core.executor.idle_share.p2", "ratio"),
    lower("core.executor.steals.p2", "count"),
    lower("core.cache.key_ns", "ns"),
    lower("core.cache.load_ms", "ms"),
    lower("core.cache.file_kb", "KB"),
    // core.campaign
    lower("core.campaign.cell_ms.p50", "ms"),
    lower("core.campaign.cell_ms.max", "ms"),
    lower("core.campaign.trials_used", "count"),
    higher("core.campaign.trials_saved_share", "ratio"),
    lower("core.campaign.resume_ms", "ms"),
    lower("core.campaign.expand_us", "us"),
    // store
    lower("store.append_us", "us"),
    lower("store.bytes_per_payload_byte", "ratio"),
    lower("store.open_ms.history", "ms"),
    lower("store.open_ms.compacted", "ms"),
    lower("store.inc_probe_us", "us"),
    lower("store.inc_apply_us", "us"),
    lower("store.compact_ms", "ms"),
    higher("store.compact_drop_share", "ratio"),
    lower("store.merge_ms.s1", "ms"),
    lower("store.merge_ms.s4", "ms"),
    lower("store.merge_ms.s8", "ms"),
    // core.fleet
    lower("core.fleet.view_read_ms.s4", "ms"),
    // core.serve
    lower("core.serve.rtt_us.status", "us"),
    lower("core.serve.rtt_us.heatmap", "us"),
    lower("core.serve.rtt_us.heatmap_csv", "us"),
    lower("core.serve.rtt_us.heatmap_csv_304", "us"),
    lower("core.serve.rtt_us.freshness", "us"),
    lower("core.serve.rtt_us.metrics", "us"),
    lower("core.serve.rtt_us.dashboard", "us"),
    lower("core.serve.body_kb.heatmap", "KB"),
    lower("core.serve.body_kb.freshness", "KB"),
    lower("core.serve.idle_p50_us", "us"),
    lower("core.serve.nocache_rtt_us", "us"),
    lower("core.serve.report_render_ms", "ms"),
    lower("core.serve.start_ms", "ms"),
    higher("core.serve.sat_req_per_s", "1/s"),
    // The open loop of the traced run: serve_live's own, elsewhere a
    // two-second one over the 16-pair probe fixture.
    lower("core.serve.open_p50_us", "us"),
    lower("core.serve.open_p99_us", "us"),
    lower("core.serve.visible_p50_ms", "ms"),
    lower("core.serve.visible_p95_ms", "ms"),
    lower("core.serve.gen_late_p99_us", "us"),
    lower("core.serve.refreshes", "count"),
    lower("core.serve.rebuilds", "count"),
    lower("core.serve.rebuild_per_append", "ratio"),
    // obs, check
    lower("obs.counter_inc_ns", "ns"),
    lower("obs.histogram_record_ns", "ns"),
    lower("obs.span_ns", "ns"),
    lower("check.validate_s", "s"),
    // The harness's own cost of looking.
    lower("bench.probe_suite_s", "s"),
    lower("bench.spans", "count"),
];

/// The driver's command line, up to the flags it appends.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the catalogue (the checked-in file
/// is this text; a unit test holds the two together).
pub fn benchmark_json() -> String {
    use crate::json::{f, obj, s, u, Json};
    use serde::Value;
    let doc = obj([
        (
            "command",
            Value::Arr(COMMAND.iter().map(|a| s(*a)).collect()),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", u(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", f(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Json(doc).render_pretty()
}

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_arr, as_f64, as_str, Json};
    use std::collections::BTreeSet;

    /// The character set the driver's contract allows in names.
    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(
                well_formed(n),
                "{n:?} must match [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
        }
        let unique: BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit {u:?}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn setup_carries_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound);
        }
    }

    #[test]
    fn benchmark_json_is_exactly_the_catalogue() {
        let path = crate::product::repo_root().join("BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json exists");
        assert_eq!(
            Json::parse(&on_disk).expect("BENCHMARK.json parses"),
            Json::parse(&benchmark_json()).unwrap(),
            "regenerate with `prudentia-benchmark catalog > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let doc = Json::parse(&on_disk).unwrap().0;
        let keys: Vec<&str> = crate::json::as_obj(&doc)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = as_arr(doc.get("command").unwrap()).unwrap();
        assert!(command.len() <= 32 && command.iter().all(|a| as_str(a).unwrap().len() <= 200));
        assert_eq!(
            doc.get("run_seconds").and_then(as_f64),
            Some(RUN_SECONDS as f64)
        );
    }
}
