//! `campaign_aqm`: a beyond-pairwise grid over the four AQMs, ECN /
//! Prague and the LTE impairment, run through `prudentia campaign`.

use super::{metrics_counter, ms, repeated_setup, EndToEnd, Measured, Outcome, RunCtx};
use super::{Result, Telemetry};
use crate::json::Json;
use crate::product::digest;
use crate::stats;
use prudentia_core::campaign::{stored_outcomes, CampaignSpec};
use prudentia_store::{kinds, Snapshot};

/// Re-runs of the finished store timed after the cold run.
const RESUME_REPEATS: usize = 31;

/// The grid: 2 mixes × 2 bandwidths × 4 qdiscs × 2 impairments = 32
/// cells of 4–6 trials. `--smoke` keeps every mix, qdisc and impairment
/// and shrinks bandwidths, trial length and trial counts.
pub(crate) fn spec_json(seed: u64, smoke: bool) -> String {
    let (bandwidths, policy, lengths) = if smoke {
        (
            "[8.0]",
            r#"{"min_trials":2,"batch":1,"max_trials":3}"#,
            r#""duration_secs":20,"warmup_secs":4,"cooldown_secs":4"#,
        )
    } else {
        (
            "[8.0,50.0]",
            r#"{"min_trials":4,"batch":1,"max_trials":6}"#,
            r#""duration_secs":90,"warmup_secs":10,"cooldown_secs":10"#,
        )
    };
    format!(
        r#"{{"name":"bench-aqm","mixes":[{{"label":"three-way","services":["iPerf-Cubic","iPerf-Reno","iPerf-BBR"],"background":null}},{{"label":"l4s-mix","services":["iPerf-Prague","iPerf-Cubic","iPerf-BBRv2"],"background":"Meet"}}],"bandwidth_mbps":{bandwidths},"rtt_ms":[50],"bdp_multiples":[4],"qdiscs":["codel","fq_codel","red","dualpi2"],"impairments":["none","lte"],"policy":{policy},{lengths},"seed_base":{seed}}}"#
    )
}

/// The two summary lines `campaign run` prints, parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunSummary {
    cells_done: u64,
    cells_total: u64,
    cells_run: u64,
    cells_skipped: u64,
    trials_used: u64,
    budget_total: u64,
}

fn parse_summary(stdout: &str) -> Option<RunSummary> {
    // campaign bench-aqm: 32/32 cells done (32 run, 0 skipped, 0 redealt)
    // trials: 139 of 192 budget used (28% saved), adaptive on
    let numbers = |line: &str| -> Vec<u64> {
        line.split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect()
    };
    let cells_line = stdout.lines().find(|l| l.contains("cells done"))?;
    let cells = numbers(cells_line.split_once(": ")?.1);
    let trials = numbers(stdout.lines().find(|l| l.starts_with("trials:"))?);
    Some(RunSummary {
        cells_done: *cells.first()?,
        cells_total: *cells.get(1)?,
        cells_run: *cells.get(2)?,
        cells_skipped: *cells.get(3)?,
        trials_used: *trials.first()?,
        budget_total: *trials.get(1)?,
    })
}

/// Run the campaign workload.
pub fn run(ctx: &mut RunCtx<'_>) -> Result<Outcome> {
    let root = ctx.tracer.begin("campaign_aqm", None);
    let json = spec_json(ctx.settings.seed, ctx.settings.smoke);
    let spec = CampaignSpec::from_json(&json).map_err(|e| format!("bench campaign spec: {e}"))?;
    let cells = spec.expand().len() as u64;
    let (min_trials, max_trials) = (spec.policy.min_trials as u64, spec.policy.max_trials as u64);

    // Set-up: the spec file, and `campaign expand` proving the binary
    // accepts it and expands it to the grid this harness expects.
    let setup_span = ctx.tracer.begin("setup", root);
    let (work, setup_s) = repeated_setup(|i| {
        let work = ctx.scratch.subdir(&format!("campaign-{i}"))?;
        let spec_path = work.join("spec.json");
        std::fs::write(&spec_path, &json).map_err(|e| format!("write spec: {e}"))?;
        let spec_arg = spec_path.display().to_string();
        let expand = ctx.child(
            "campaign-expand",
            setup_span,
            &["campaign", "expand", "--spec", &spec_arg],
            false,
        )?;
        let listed = String::from_utf8_lossy(&expand.stdout).lines().count() as u64;
        ctx.checks.check(listed == cells + 1, || {
            format!("`campaign expand` listed {listed} lines for a {cells}-cell grid")
        });
        Ok(work)
    })?;
    ctx.tracer.end(setup_span);

    let store = work.join("store");
    let metrics = work.join("metrics.json");
    let report_dir = work.join("report");
    let (spec_arg, store_arg, metrics_arg, report_arg) = (
        work.join("spec.json").display().to_string(),
        store.display().to_string(),
        metrics.display().to_string(),
        report_dir.display().to_string(),
    );
    let mut args = vec![
        "campaign", "run", "--store", &store_arg, "--spec", &spec_arg,
    ];
    if ctx.settings.traced {
        args.extend(["--stats", "--metrics", &metrics_arg]);
    }

    let cold = ctx.child("campaign-cold", root, &args, true)?;
    let cold_text = String::from_utf8_lossy(&cold.stdout).into_owned();
    let summary = parse_summary(&cold_text);
    ctx.checks.check(summary.is_some(), || {
        format!("unreadable `campaign run` summary: {cold_text:?}")
    });
    let summary = summary.unwrap_or(RunSummary {
        cells_done: 0,
        cells_total: 0,
        cells_run: 0,
        cells_skipped: 0,
        trials_used: 0,
        budget_total: 0,
    });
    ctx.checks.check(
        summary.cells_done == cells && summary.cells_total == cells && summary.cells_run == cells,
        || format!("cold run finished {summary:?}, expected {cells} cells run"),
    );
    ctx.checks.check(
        (cells * min_trials..=cells * max_trials).contains(&summary.trials_used)
            && summary.budget_total == cells * max_trials,
        || format!("trial accounting out of range: {summary:?}"),
    );

    let telemetry = if ctx.settings.traced {
        let text = std::fs::read_to_string(&metrics)
            .map_err(|e| format!("read {}: {e}", metrics.display()))?;
        let doc = Json::parse(&text)?.0;
        let used = metrics_counter(&doc, "campaign/trials_used").unwrap_or(0);
        ctx.checks.check(used == summary.trials_used, || {
            format!(
                "telemetry counted {used} trials, stdout says {}",
                summary.trials_used
            )
        });
        Some(Telemetry {
            sim_events: metrics_counter(&doc, "sim/events_total").unwrap_or(0),
            sim_wall_s: cold.wall.as_secs_f64(),
        })
    } else {
        None
    };

    // Warm: the finished store answers the same command — every cell is
    // skipped, the summary must repeat.
    let warm_span = ctx.tracer.begin("resume-replays", root);
    let replays = if ctx.settings.smoke {
        5
    } else {
        RESUME_REPEATS
    };
    let mut warm_ms = Vec::with_capacity(replays);
    for _ in 0..replays {
        let warm = ctx.child("campaign-resume", warm_span, &args, false)?;
        let again = parse_summary(&String::from_utf8_lossy(&warm.stdout));
        ctx.checks.check(
            again.is_some_and(|a| {
                a.cells_run == 0 && a.cells_skipped == cells && a.trials_used == summary.trials_used
            }),
            || format!("resume did not skip every cell: {again:?}"),
        );
        warm_ms.push(ms(warm.wall));
    }
    ctx.tracer.end(warm_span);

    // The published result, digested, and the store read back through
    // the library: one decodable CELL record per cell.
    let report = ctx.child(
        "campaign-report",
        root,
        &[
            "campaign",
            "report",
            "--store",
            &store_arg,
            "--out",
            &report_arg,
        ],
        false,
    )?;
    let cells_csv = std::fs::read(report_dir.join("campaign.csv"))
        .map_err(|e| format!("read campaign.csv: {e}"))?;
    let snap = Snapshot::read(&store).map_err(|e| format!("reopen campaign store: {e}"))?;
    let records = stored_outcomes(&snap, None);
    ctx.checks.check(records.len() as u64 == cells, || {
        format!(
            "store holds {} decodable cells, expected {cells}",
            records.len()
        )
    });
    let stored_trials: u64 = records.iter().map(|r| r.outcome.trials_used as u64).sum();
    ctx.checks.check(stored_trials == summary.trials_used, || {
        format!(
            "stored cells sum to {stored_trials} trials, stdout says {}",
            summary.trials_used
        )
    });
    let mut stamps: Vec<u64> = snap
        .latest_of_kind(kinds::CELL)
        .map(|r| r.ts_unix_ms)
        .collect();
    stamps.sort_unstable();
    let gaps: Vec<f64> = stamps.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    ctx.tracer.end(root);

    let cold_s = cold.wall.as_secs_f64();
    let gap_summary = stats::summarize(&gaps);
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
            Measured::new("cells", cells as f64, "count", 1),
            Measured::new(
                "cells_per_hour",
                cells as f64 * 3600.0 / cold_s,
                "cells/h",
                1,
            ),
            Measured::new("trials_used", summary.trials_used as f64, "count", 1),
            Measured::new(
                "trials_saved_share",
                1.0 - summary.trials_used as f64 / summary.budget_total.max(1) as f64,
                "ratio",
                1,
            ),
            Measured::new("cell_ms_p50", gap_summary.p50, "ms", gap_summary.n),
            Measured::new(
                "cell_ms_max",
                gaps.iter().copied().fold(0.0, f64::max),
                "ms",
                gaps.len(),
            ),
            Measured::new("report_wall_ms", ms(report.wall), "ms", 1),
        ],
        digests: vec![("result_digest".to_string(), digest(&cells_csv))],
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_summary_parses_both_lines() {
        let text = "campaign bench-aqm: 32/32 cells done (32 run, 0 skipped, 0 redealt)\n\
                    trials: 139 of 192 budget used (28% saved), adaptive on\n";
        assert_eq!(
            parse_summary(text),
            Some(RunSummary {
                cells_done: 32,
                cells_total: 32,
                cells_run: 32,
                cells_skipped: 0,
                trials_used: 139,
                budget_total: 192,
            })
        );
        assert_eq!(parse_summary("interrupted"), None);
    }

    #[test]
    fn bench_spec_is_valid_and_covers_every_aqm() {
        for (smoke, cells) in [(false, 32), (true, 16)] {
            let spec = CampaignSpec::from_json(&spec_json(7, smoke)).unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.seed_base, 7);
            assert_eq!(spec.expand().len(), cells);
            assert_eq!(spec.qdiscs.len(), 4);
            assert_eq!(spec.impairments, ["none", "lte"]);
        }
    }
}
