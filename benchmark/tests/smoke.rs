//! The smoke run, end to end through the built binary: every metric
//! `BENCHMARK.json` names is emitted — and nothing else — in both
//! forms of the driver's command line. Builds the product binary on
//! first use, like any run.

use std::process::Command;

/// A JSON document as the vendored serde's raw value model.
struct Doc(serde::Value);

impl serde::Deserialize for Doc {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Doc(v.clone()))
    }
}

fn parse(text: &str) -> serde::Value {
    serde_json::from_str::<Doc>(text)
        .unwrap_or_else(|e| panic!("{e}: {text}"))
        .0
}

/// The `name`s of one section of `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap();
    let doc = parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap());
    let Some(serde::Value::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} array");
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(serde::Value::Str(name)) => name.clone(),
            other => panic!("{section} entry without a name: {other:?}"),
        })
        .collect()
}

/// Run the driver form with `--smoke`; return the last stdout line.
fn smoke_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_prudentia-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "2"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .last()
        .unwrap()
        .to_string()
}

/// The result line must have exactly the contract's four keys, be
/// correct with nothing failed, and give every metric a number and a
/// unit. Returns the metric names, in order.
fn emitted(line: &str) -> Vec<String> {
    use serde::Value::{Bool, Obj, Str, F64, U64};
    let Obj(fields) = parse(line) else {
        panic!("not an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    assert_eq!(fields[0].1, Bool(true), "{line}");
    assert!(matches!(fields[1].1, U64(n) if n >= 1), "{line}");
    assert_eq!(fields[2].1, U64(0), "{line}");
    let Obj(metrics) = &fields[3].1 else {
        panic!("metrics is not an object: {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(F64(x)) if x.is_finite()),
                "{name} has no finite value: {m:?}"
            );
            assert!(matches!(m.get("unit"), Some(Str(_))), "{name}: {m:?}");
            name.clone()
        })
        .collect()
}

#[test]
fn untraced_smoke_runs_emit_exactly_the_end_to_end_metrics() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for workload in declared("workloads") {
        let line = smoke_line(&workload, "0");
        assert_eq!(emitted(&line), names, "{workload}: {line}");
        assert!(
            !line.contains("null"),
            "{workload}: every value is a number: {line}"
        );
    }
}

#[test]
fn a_traced_smoke_run_emits_exactly_the_per_layer_metrics() {
    let line = smoke_line("campaign_aqm", "1");
    assert_eq!(emitted(&line), declared("per_layer"), "{line}");
}

#[test]
fn a_corrupt_fixture_record_or_a_dead_server_fails_the_run_loudly() {
    for (fault, complaint) in [
        ("corrupt-record", "store corrupt"),
        ("kill-server", "stopped answering mid-run"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_prudentia-benchmark"))
            .args(["--workload", "serve_live", "--seed", "5", "--seconds", "2"])
            .args(["--trace", "0", "--smoke", "--fault", fault])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{fault} must not pass");
        assert!(stderr.contains(complaint), "{fault}: {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\":true"),
            "{fault}: no passing result is printed"
        );
    }
}

#[test]
fn usage_errors_exit_2_and_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_prudentia-benchmark"))
        .args([
            "--workload",
            "nosuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "unknown workload is a harness error"
    );
    assert!(out.stdout.is_empty());
    let out = Command::new(env!("CARGO_BIN_EXE_prudentia-benchmark"))
        .args(["--workload", "pairs_bulk", "--trace", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
