//! The program under test as a child process: building the shipped
//! `prudentia` binary from the checkout, running it with wall / CPU /
//! peak-RSS accounting, and the scratch directory everything lives in.

use crate::affinity::Pinned;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// How often a running child's `VmHWM` is sampled.
const RSS_SAMPLE_PERIOD: Duration = Duration::from_millis(25);

/// A benchmark-level failure: the message names what broke.
pub type Result<T> = std::result::Result<T, String>;

/// The repository checkout the benchmark was built in (the parent of
/// this package's directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
        .to_path_buf()
}

/// Cargo's target directory for the product build: `CARGO_TARGET_DIR`
/// (resolved against the current directory, as cargo does) or the root
/// workspace's `target/`.
fn product_target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir()
                    .expect("current directory is readable")
                    .join(dir)
            }
        }
        _ => root.join("target"),
    }
}

/// The built product binary and where scratch data may go.
#[derive(Debug, Clone)]
pub struct Product {
    /// Path of the release `prudentia` binary.
    pub bin: PathBuf,
    /// The repository checkout it was built from.
    pub root: PathBuf,
    /// Directory for scratch data: inside the build's target directory,
    /// so inside the checkout and ignored by git.
    pub tmp_root: PathBuf,
    /// FNV-1a of the binary's bytes (16 hex digits).
    pub hash: String,
}

impl Product {
    /// Build (or freshen) the release `prudentia` binary with the root
    /// workspace's own profile, then locate it. Not part of any timer.
    pub fn ensure() -> Result<Product> {
        let root = repo_root();
        if !root.join("crates/core/Cargo.toml").is_file() {
            return Err(format!(
                "{} is not a prudentia checkout (crates/core missing)",
                root.display()
            ));
        }
        let target = product_target_dir(&root);
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "prudentia-core", "--bin", "prudentia"])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawn cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the product binary failed ({status})"));
        }
        let bin = target.join("release").join("prudentia");
        let bytes = std::fs::read(&bin).map_err(|e| format!("read {}: {e}", bin.display()))?;
        Ok(Product {
            hash: digest(&bytes),
            tmp_root: target.join("bench-tmp"),
            bin,
            root,
        })
    }

    /// A command invoking the product with `args`.
    pub fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).env_remove("PRUDENTIA_LOG");
        cmd
    }
}

/// FNV-1a over the concatenation of `chunks`: the construction
/// `prudentia serve` derives its ETags from, recomputed here
/// independently of the product crates.
pub fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in chunks.iter().copied().flatten() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hex digest of bytes for the "two commits compare exactly" lines.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(&[bytes]))
}

/// The one scratch directory of a run; removed on drop (also when a
/// panic unwinds through the owner).
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create a fresh directory under `tmp_root`.
    pub fn new(tmp_root: &Path) -> Result<Scratch> {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let dir = tmp_root.join(format!(
            "run-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        fresh_dir(&dir)?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf> {
        let dir = self.dir.join(name);
        fresh_dir(&dir)?;
        Ok(dir)
    }
}

/// Make `dir` exist and be empty.
fn fresh_dir(dir: &Path) -> Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory sits in an ignored build dir.
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A spawned child that is killed and reaped if dropped while running,
/// so a panic or early return never leaves a process behind.
#[derive(Debug)]
pub struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    /// Take ownership of a spawned child.
    pub fn new(child: Child) -> ChildGuard {
        ChildGuard { child: Some(child) }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child
            .as_ref()
            .expect("child present until waited")
            .id()
    }

    /// Mutable access to the child (its stdio handles).
    pub fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child present until waited")
    }

    /// Block until the child exits.
    pub fn wait(mut self) -> std::io::Result<ExitStatus> {
        let mut child = self.child.take().expect("child present until waited");
        child.wait()
    }

    /// Wait up to `limit` for the child to exit on its own.
    pub fn wait_timeout(mut self, limit: Duration) -> Result<ExitStatus> {
        let deadline = Instant::now() + limit;
        loop {
            let child = self.child.as_mut().expect("child present until waited");
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.child = None;
                    return Ok(status);
                }
                Ok(None) if Instant::now() >= deadline => {
                    // Drop kills and reaps it.
                    return Err(format!("child {} did not exit in {limit:?}", child.id()));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for child: {e}")),
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// What one finished child invocation cost and produced.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn → exit wall time.
    pub wall: Duration,
    /// Exit status.
    pub status: ExitStatus,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    /// Peak resident set (`VmHWM`) in KiB, when sampled.
    pub peak_rss_kb: Option<u64>,
    /// User + system CPU seconds of the child, read from the parent's
    /// reaped-children counters (10 ms resolution).
    pub cpu_s: f64,
}

/// Run `cmd` to completion with stdout/stderr captured to files under
/// `scratch` (so large outputs cannot block on a pipe). With
/// `sample_rss`, a helper thread tracks the child's `VmHWM` while the
/// caller blocks in `wait` — the exit is observed at once either way.
///
/// Only one child may be waited for at a time per process for `cpu_s`
/// to be attributable; the workloads run their children sequentially.
pub fn run_child(
    cmd: &mut Command,
    scratch: &Scratch,
    tag: &str,
    sample_rss: bool,
) -> Result<ChildRun> {
    let out_path = scratch.path(&format!("{tag}.stdout"));
    let err_path = scratch.path(&format!("{tag}.stderr"));
    let create = |p: &Path| File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
    cmd.stdin(Stdio::null())
        .stdout(create(&out_path)?)
        .stderr(create(&err_path)?);

    // Spawned from — and so confined to — the program's CPU, where this
    // thread also waits: a child left to the scheduler migrates, and
    // short ones then read in two modes 10 % apart (see `affinity`).
    let _on_program_cpu = Pinned::program();
    let cpu_before = reaped_children_cpu_s();
    let started = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let guard = ChildGuard::new(child);
    let pid = guard.pid();

    let done = AtomicBool::new(false);
    let (status, peak_rss_kb) = std::thread::scope(|scope| {
        let sampler = sample_rss.then(|| {
            scope.spawn(|| {
                // Off the CPU the child is confined to.
                let _off_program_cpu = Pinned::harness();
                let mut peak = None;
                while !done.load(Ordering::Relaxed) {
                    peak = proc_status_kb(pid, "VmHWM").or(peak);
                    std::thread::sleep(RSS_SAMPLE_PERIOD);
                }
                peak
            })
        });
        let status = guard.wait();
        let wall = started.elapsed();
        done.store(true, Ordering::Relaxed);
        let peak = sampler.and_then(|h| h.join().expect("rss sampler never panics"));
        (status.map(|s| (s, wall)), peak)
    });
    let (status, wall) = status.map_err(|e| format!("wait for {tag}: {e}"))?;
    let cpu_s = reaped_children_cpu_s() - cpu_before;

    let slurp = |p: &Path| {
        let mut buf = Vec::new();
        File::open(p)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| format!("read {}: {e}", p.display()))?;
        Ok::<_, String>(buf)
    };
    Ok(ChildRun {
        wall,
        status,
        stdout: slurp(&out_path)?,
        stderr: slurp(&err_path)?,
        peak_rss_kb,
        cpu_s,
    })
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`); `None` once the
/// process has released its memory or gone.
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The numeric fields of a `/proc/<pid>/stat` line after the
/// parenthesised command name (which may itself contain spaces).
fn stat_fields(pid: &str) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let tail = &text[text.rfind(')')? + 1..];
    Some(
        tail.split_whitespace()
            .map(|t| t.parse().unwrap_or(0))
            .collect(),
    )
}

/// User + system CPU seconds a live process has used so far.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    // After the command name: state is field 0, utime 11, stime 12.
    let f = stat_fields(&pid.to_string())?;
    Some((f.get(11)? + f.get(12)?) as f64 / TICKS_PER_SEC)
}

/// User + system CPU seconds of every child this process has reaped.
fn reaped_children_cpu_s() -> f64 {
    // cutime is field 13 and cstime 14 after the command name.
    stat_fields("self")
        .and_then(|f| Some((f.get(13)? + f.get(14)?) as f64 / TICKS_PER_SEC))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&[b"foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(&[b"foo", b"", b"bar"]), fnv1a(&[b"foobar"]));
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn child_accounting_captures_output_and_exit() {
        let tmp = std::env::temp_dir().join("prudentia-benchmark-unit");
        let scratch = Scratch::new(&tmp).unwrap();
        let kept = scratch.path("");
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo out; echo err >&2; exit 3"]);
        let run = run_child(&mut cmd, &scratch, "sh", true).unwrap();
        assert_eq!(run.status.code(), Some(3));
        assert_eq!(run.stdout, b"out\n");
        assert_eq!(run.stderr, b"err\n");
        assert!(run.wall > Duration::ZERO);
        drop(scratch);
        assert!(!kept.exists(), "scratch is removed on drop");
    }

    #[test]
    fn dropped_guard_kills_the_child() {
        let child = Command::new("sleep").arg("30").spawn().unwrap();
        let pid = child.id();
        drop(ChildGuard::new(child));
        assert!(
            proc_status_kb(pid, "VmHWM").is_none(),
            "child {pid} was reaped"
        );
    }

    /// The `[profile.release]` table of a manifest, as trimmed lines.
    fn release_profile(manifest: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).unwrap();
        text.lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn release_profile_equals_the_root_workspaces() {
        let root = repo_root();
        let ours = release_profile(&root.join("benchmark/Cargo.toml"));
        assert!(!ours.is_empty(), "the table exists");
        assert_eq!(
            ours,
            release_profile(&root.join("Cargo.toml")),
            "probes must time the crates as the product binary is built"
        );
    }

    #[test]
    fn own_proc_files_parse() {
        let me = std::process::id();
        assert!(proc_status_kb(me, "VmHWM").unwrap() > 0);
        assert!(process_cpu_s(me).is_some());
    }
}
