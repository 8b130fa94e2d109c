//! The Prudentia perf ledger: four named workloads driven through the
//! shipped `prudentia` binary, end-to-end and per-layer metrics, a
//! traced run, and `diff`. See `benchmark/README.md`.

mod affinity;
mod catalog;
mod diff;
mod header;
mod http;
mod json;
mod ledger;
mod openloop;
mod probes;
mod product;
mod rng;
mod stats;
mod trace;
mod workloads;

use ledger::Plan;
use product::{Product, Result};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Settings;

const USAGE: &str = "\
usage:
  prudentia-benchmark --workload W --seed N --seconds S --trace 0|1
      one run of one workload; the last stdout line is the JSON result
      (end-to-end metrics untraced, per-layer metrics traced)
  prudentia-benchmark run   [--workload W] [--seed N] [--seconds S]
                            [--repeat N] [--smoke] [--out FILE]
      end-to-end numbers, tracing off (all four workloads by default)
  prudentia-benchmark trace [--workload W] [--seed N] [--seconds S]
                            [--smoke] [--out FILE] [--out-dir DIR]
      the traced run: per-layer numbers, and trace-<workload>.json
      under --out-dir
  prudentia-benchmark diff A.json B.json
      compare two ledger files written with --out
  prudentia-benchmark catalog
      print BENCHMARK.json as the metric catalogue defines it

--fault corrupt-record|kill-server breaks serve_live on purpose, to show
that a broken fixture or a dead server fails the run loudly.

workloads: pairs_bulk, pairs_apps, campaign_aqm, serve_live
exit codes: 0 ok, 1 a correctness check failed, 2 usage, 3 harness error";

#[derive(Debug, Default)]
struct Opts {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat: Option<usize>,
    smoke: bool,
    fault: Option<workloads::Fault>,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T> {
            raw.parse()
                .map_err(|_| format!("{flag}: invalid value `{raw}`"))
        }
        match a.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = Some(num(a, value()?)?),
            "--seconds" => {
                let secs: f64 = num(a, value()?)?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {secs}"));
                }
                o.seconds = Some(secs);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--repeat" => o.repeat = Some(num::<usize>(a, value()?)?.max(1)),
            "--smoke" => o.smoke = true,
            "--fault" => {
                o.fault = Some(match value()?.as_str() {
                    "corrupt-record" => workloads::Fault::CorruptRecord,
                    "kill-server" => workloads::Fault::KillServer,
                    other => return Err(format!("--fault: unknown fault `{other}`")),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--out-dir" => o.out_dir = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

/// Exit code of a finished plan: any failed check is loud.
fn verdict(records: &[ledger::RunRecord]) -> ExitCode {
    if records.iter().all(ledger::RunRecord::correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one correctness check did not pass (see above)");
        ExitCode::from(1)
    }
}

/// Run the plan the options describe; `driver` is the flag-only form:
/// exactly one workload, one run, and the JSON result as the last line.
fn run_plan(o: &Opts, traced: bool, driver: bool) -> Result<ExitCode> {
    if driver && (o.workload.is_none() || o.seed.is_none() || o.seconds.is_none()) {
        return Err("the flag form needs --workload, --seed, --seconds and --trace".to_string());
    }
    let product = Product::ensure()?;
    let plan = Plan {
        workloads: ledger::select_workloads(o.workload.as_deref())?,
        repeat: if driver { 1 } else { o.repeat.unwrap_or(1) },
        first: Settings {
            seed: o.seed.unwrap_or(1),
            seconds: o.seconds.unwrap_or(catalog::RUN_SECONDS as f64),
            smoke: o.smoke,
            traced,
            fault: o.fault,
        },
    };
    let records = ledger::execute(&product, &plan)?;
    if let Some(path) = &o.out {
        ledger::write_json(path, ledger::ledger_json(&product, &plan, &records))?;
        eprintln!("ledger written to {}", path.display());
    }
    if let (true, Some(dir)) = (traced, &o.out_dir) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        for r in &records {
            let path = dir.join(format!("trace-{}.json", r.workload));
            ledger::write_json(&path, r.tracer.to_json(r.workload))?;
            eprintln!("trace written to {}", path.display());
        }
    }
    if driver {
        let record = records.first().ok_or("the plan ran nothing")?;
        println!("{}", ledger::driver_line(record, traced));
    }
    Ok(verdict(&records))
}

fn main() -> ExitCode {
    // Settle the CPU split from the affinity the process was given.
    affinity::Split::plan();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: &str| {
        eprintln!("{msg}\n{USAGE}");
        ExitCode::from(2)
    };
    let (command, rest) = match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(first) if first.starts_with("--") => ("driver", &args[..]),
        Some(first) => (first, &args[1..]),
    };
    let opts = match parse(rest) {
        Ok(o) => o,
        Err(msg) => return usage(&msg),
    };
    let outcome = match command {
        "driver" => match opts.trace {
            Some(traced) => run_plan(&opts, traced, true),
            None => return usage("the flag form needs --trace 0|1"),
        },
        "run" => run_plan(&opts, false, false),
        "trace" => run_plan(&opts, true, false),
        "catalog" => {
            println!("{}", catalog::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        "diff" => match &opts.positional[..] {
            [a, b] => diff::run(a.as_ref(), b.as_ref()),
            _ => return usage("diff takes two ledger files"),
        },
        other => return usage(&format!("unknown command {other}")),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
    }
}
