//! `diff A.json B.json`: compare two ledger files. One row per
//! (workload, end-to-end metric) with medians, quartiles, the fixed
//! bound and a verdict; then every per-layer and detail metric as a
//! ratio with its base.

use crate::catalog::{self, Better, PER_LAYER};
use crate::json::{as_arr, as_f64, as_obj, as_str, path, Json};
use crate::product::Result;
use crate::stats;
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

/// Bounds for workload-specific headline numbers that the driver's
/// contract keeps out of `BENCHMARK.json` (there, every workload must
/// report every end-to-end metric): `diff` still judges them.
const LEDGER_ONLY: [(&str, &str, Better, f64); 7] = [
    ("campaign_aqm", "cells_per_hour", Better::Higher, 0.15),
    ("serve_live", "serve_p50_us", Better::Lower, 0.25),
    ("serve_live", "serve_p99_us", Better::Lower, 0.25),
    ("serve_live", "visible_p50_ms", Better::Lower, 0.15),
    ("serve_live", "visible_p95_ms", Better::Lower, 0.15),
    ("serve_live", "report_wall_ms", Better::Lower, 0.15),
    ("serve_live", "serve_start_ms", Better::Lower, 0.25),
];

/// What a comparison of two sets of runs says about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// Run-to-run spread exceeds the bound and the two sets overlap:
    /// the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A. `bound` is the share of A's median by which the
/// metric may worsen before it counts. When either side's spread
/// (interquartile distance over median) exceeds the bound, the verdict
/// is `Unresolved` unless every run of B lies on one side of every run
/// of A.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if !(ma.is_finite() && mb.is_finite()) || ma == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = B is worse.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    if stats::spread(a).max(stats::spread(b)) > bound {
        return match (all_b_better, all_b_worse) {
            (true, _) => Verdict::Better,
            (_, true) if worse_by > bound => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(file: &Path) -> Result<Value> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
    let doc = Json::parse(&text)
        .map_err(|e| format!("{}: {e}", file.display()))?
        .0;
    if doc.get("schema").and_then(as_f64) != Some(1.0) {
        return Err(format!("{} is not a schema-1 ledger file", file.display()));
    }
    Ok(doc)
}

fn result_of<'a>(doc: &'a Value, workload: &str) -> Option<&'a Value> {
    as_arr(doc.get("results")?)?
        .iter()
        .find(|r| r.get("workload").and_then(as_str) == Some(workload))
}

/// `(unit, values)` of one metric in one section of a workload result.
fn values_of(result: &Value, section: &str, name: &str) -> Option<(String, Vec<f64>)> {
    let m = path(result, &[section, name])?;
    let values = as_arr(m.get("values")?)?
        .iter()
        .filter_map(as_f64)
        .collect();
    Some((m.get("unit").and_then(as_str)?.to_string(), values))
}

fn names_of(result: &Value, section: &str) -> Vec<String> {
    result
        .get(section)
        .and_then(as_obj)
        .map(|fields| fields.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

fn quartile_text(xs: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(xs);
    format!(
        "{:.4} [{:.4}..{:.4}] n={}",
        stats::median(xs),
        q1,
        q3,
        xs.len()
    )
}

fn header_line(tag: &str, doc: &Value) -> String {
    let field = |k: &str| {
        path(doc, &["header", k])
            .and_then(as_str)
            .unwrap_or("?")
            .to_string()
    };
    let flag = |k: &str| matches!(doc.get(k), Some(Value::Bool(true)));
    format!(
        "{tag}: commit {} binary {} mode {}{}{}",
        field("git_commit"),
        field("product_binary_fnv1a"),
        doc.get("mode").and_then(as_str).unwrap_or("?"),
        if flag("smoke") {
            " SMOKE (not a baseline)"
        } else {
            ""
        },
        if flag("noisy") { " NOISY" } else { "" },
    )
}

/// Print one judged row — medians, quartiles, change, bound, verdict —
/// for a metric both results carry. Rows from `detail` are marked as
/// judged by this ledger only.
fn print_row(
    workload: &str,
    ra: &Value,
    rb: &Value,
    section: &str,
    name: &str,
    better: Better,
    bound: f64,
) -> Option<Verdict> {
    let (unit, va) = values_of(ra, section, name)?;
    let (_, vb) = values_of(rb, section, name)?;
    let verdict = judge(&va, &vb, better, bound);
    let (ma, mb) = (stats::median(&va), stats::median(&vb));
    println!(
        "{:<13} {:<14} {:<5} {:<38} {:<38} {:>+7.2}% {:>5.0}%  {}{}",
        workload,
        name,
        unit,
        quartile_text(&va),
        quartile_text(&vb),
        (mb - ma) / ma * 100.0,
        bound * 100.0,
        verdict.as_str(),
        if section == "detail" {
            " (ledger only)"
        } else {
            ""
        },
    );
    Some(verdict)
}

/// Compare two ledger files; exit code 1 when any end-to-end metric is
/// worse beyond its bound.
pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("{}", header_line("A", &a));
    println!("{}", header_line("B", &b));
    let mut any_worse = false;

    println!("\nend-to-end (median [q1..q3] n; bound = share of A's median B may worsen by)");
    println!(
        "{:<13} {:<14} {:<5} {:<38} {:<38} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A", "B", "B vs A", "bound"
    );
    for w in &catalog::WORKLOADS {
        let (Some(ra), Some(rb)) = (result_of(&a, w.name), result_of(&b, w.name)) else {
            continue;
        };
        for def in &catalog::END_TO_END {
            let verdict = print_row(
                w.name,
                ra,
                rb,
                "end_to_end",
                def.name,
                def.better,
                def.bound,
            );
            any_worse |= verdict == Some(Verdict::Worse);
        }
        for (_, name, better, bound) in LEDGER_ONLY.iter().filter(|l| l.0 == w.name) {
            print_row(w.name, ra, rb, "detail", name, *better, *bound);
        }
        for section in ["correct", "failed", "attempted"] {
            let show = |r: &Value| match r.get(section) {
                Some(Value::Bool(x)) => x.to_string(),
                Some(v) => as_f64(v).map_or("?".to_string(), |x| format!("{x}")),
                None => "?".to_string(),
            };
            println!(
                "{:<13} {:<13} A {} | B {}",
                w.name,
                section,
                show(ra),
                show(rb)
            );
        }
        for (name, da) in ra.get("digests").and_then(as_obj).unwrap_or(&[]) {
            let db = path(rb, &["digests", name]);
            println!(
                "{:<13} digest {:<14} {}",
                w.name,
                name,
                match (as_str(da), db.and_then(as_str)) {
                    (Some(x), Some(y)) if x == y => format!("identical ({x})"),
                    (Some(x), Some(y)) => format!("DIFFERENT (A {x}, B {y})"),
                    _ => "missing on one side".to_string(),
                }
            );
        }
    }

    println!("\nper-layer and detail (ungated; every ratio with its base)");
    for w in &catalog::WORKLOADS {
        let (Some(ra), Some(rb)) = (result_of(&a, w.name), result_of(&b, w.name)) else {
            continue;
        };
        for section in ["detail", "per_layer"] {
            for name in names_of(ra, section) {
                let (Some((unit, va)), Some((_, vb))) =
                    (values_of(ra, section, &name), values_of(rb, section, &name))
                else {
                    continue;
                };
                let (ma, mb) = (stats::median(&va), stats::median(&vb));
                let direction = PER_LAYER
                    .iter()
                    .find(|d| d.name == name)
                    .map_or(String::new(), |d| {
                        format!("; {} is better", d.better.as_str())
                    });
                println!(
                    "{:<13} {:<42} B/A = {:>7.4} (base A = {:.4} {unit}, B = {:.4}{direction})",
                    w.name,
                    name,
                    mb / ma,
                    ma,
                    mb,
                );
            }
        }
    }
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;

    #[test]
    fn steady_runs_resolve_against_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&a, &[10.2, 10.3, 10.1, 10.2], LOWER, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a, &[10.8, 10.9, 10.7, 10.8], LOWER, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[9.2, 9.3, 9.1, 9.2], LOWER, 0.05),
            Verdict::Better
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            judge(&a, &[10.8, 10.9, 10.7, 10.8], Better::Higher, 0.05),
            Verdict::Better
        );
        assert_eq!(judge(&[10.0], &[10.2], LOWER, 0.05), Verdict::Unchanged);
        assert_eq!(judge(&[10.0], &[11.0], LOWER, 0.05), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sets_separate() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&noisy, &[9.0, 11.0, 13.0, 10.0, 12.0], LOWER, 0.05),
            Verdict::Unresolved,
            "overlapping sets cannot tell, whatever the medians say"
        );
        assert_eq!(
            judge(&noisy, &[5.0, 7.0, 6.0, 7.5], LOWER, 0.05),
            Verdict::Better,
            "every run of B beats every run of A"
        );
        assert_eq!(
            judge(&noisy, &[13.0, 15.0, 14.0], LOWER, 0.05),
            Verdict::Worse,
            "every run of B is worse than every run of A"
        );
        assert_eq!(judge(&[0.0], &[1.0], LOWER, 0.05), Verdict::Unresolved);
    }
}
