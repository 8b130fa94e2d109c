//! The run header (what machine, what code, what seed) and the noise
//! guard: a fixed calibration spin timed before and after the run.

use crate::json::{f, obj, s, u};
use crate::product::Product;
use crate::workloads::Settings;
use serde::Value;
use std::process::Command;
use std::time::Instant;

/// Relative drift of the calibration spin beyond which a result is
/// stamped `"noisy": true`.
pub const NOISE_LIMIT: f64 = 0.05;

/// Iterations of the calibration spin (≈ 40 ms on the reference host).
const SPIN_ITERS: u64 = 40_000_000;

/// Time a fixed chain of dependent integer operations, in milliseconds.
/// The best of three passes: the guard looks for a shift of the host's
/// speed, not for single preemptions.
pub fn calibration_spin_ms() -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..SPIN_ITERS {
                x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ i;
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Whether two calibration readings differ by more than [`NOISE_LIMIT`].
pub fn is_noisy(before_ms: f64, after_ms: f64) -> bool {
    (after_ms - before_ms).abs() / before_ms.min(after_ms) > NOISE_LIMIT
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|t| !t.is_empty())
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines().find_map(|l| {
        let (key, value) = l.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// The header object recorded with every result.
pub fn run_header(product: &Product, settings: Settings) -> Value {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    obj([
        ("nproc", u(nproc)),
        ("loadavg_1m", f(loadavg)),
        ("cpu_model", s(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            s(command_line("rustc", &["--version"], &product.root).unwrap_or_else(unknown)),
        ),
        (
            // The driver's checkout is not a git repository.
            "git_commit",
            s(command_line("git", &["rev-parse", "HEAD"], &product.root).unwrap_or_else(unknown)),
        ),
        ("seed", u(settings.seed)),
        ("seconds", f(settings.seconds)),
        ("smoke", Value::Bool(settings.smoke)),
        ("product_binary_fnv1a", s(product.hash.clone())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_guard_flags_drift_over_five_percent() {
        assert!(!is_noisy(100.0, 104.9));
        assert!(!is_noisy(104.9, 100.0));
        assert!(is_noisy(100.0, 105.1));
        assert!(is_noisy(105.1, 100.0));
    }

    #[test]
    fn calibration_spin_takes_measurable_time() {
        assert!(calibration_spin_ms() > 0.0);
    }
}
