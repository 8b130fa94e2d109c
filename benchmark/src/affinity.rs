//! CPU placement while a server is under load: the program under test
//! gets the last CPU this process may use, the harness threads the
//! others. Left to the scheduler, a 2-vCPU host runs the server's
//! workers now on the load generator's core, now on an idle one, and
//! every serve number comes out bimodal (request medians of 31 µs or
//! 78 µs, server CPU ±10 %) — placement noise, not program behaviour.
//! With fewer than two CPUs nothing is pinned.

/// An affinity mask, as the kernel's `cpu_set_t` (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    // Provided by the platform C library, which Rust links on Linux;
    // declared raw to avoid a libc dependency (as `prudentia-core` does
    // for `signal`).
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// A set holding exactly `cpus`.
    pub fn of(cpus: &[usize]) -> CpuSet {
        let mut bits = [0u64; 16];
        for &cpu in cpus.iter().filter(|&&c| c < 1024) {
            bits[cpu / 64] |= 1 << (cpu % 64);
        }
        CpuSet(bits)
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// The calling thread's affinity, if the platform tells.
    pub fn current() -> Option<CpuSet> {
        #[cfg(target_os = "linux")]
        {
            let mut set = CpuSet([0; 16]);
            // SAFETY: pid 0 names the calling thread; the pointer is to
            // a live, writable array of exactly the size passed.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
            (rc == 0).then_some(set)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Restrict the calling thread (and the threads and children it
    /// starts from now on) to this set. Returns whether it took effect.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: pid 0 names the calling thread; the pointer is to
            // a live array of exactly the size passed, only read.
            let rc =
                unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
            rc == 0
        }
        #[cfg(not(target_os = "linux"))]
        false
    }
}

/// How the allowed CPUs are divided while a server is under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Everything this process may use (restored afterwards).
    pub all: CpuSet,
    /// Where the harness threads run.
    pub harness: CpuSet,
    /// Where the program under test runs.
    pub program: CpuSet,
}

impl Split {
    /// The split for this process, or `None` with fewer than two CPUs
    /// (or no way to ask). Worked out once, from the affinity of the
    /// first caller — `main`, before anything is pinned.
    pub fn plan() -> Option<Split> {
        static PLAN: std::sync::OnceLock<Option<Split>> = std::sync::OnceLock::new();
        *PLAN.get_or_init(|| {
            let all = CpuSet::current()?;
            let cpus = all.cpus();
            let (&last, rest) = cpus.split_last()?;
            (!rest.is_empty()).then(|| Split {
                all,
                harness: CpuSet::of(rest),
                program: CpuSet::of(&[last]),
            })
        })
    }
}

/// Runs the calling thread on one side of the split until dropped,
/// then puts it back where it was.
#[derive(Debug)]
pub struct Pinned {
    restore: Option<CpuSet>,
}

impl Pinned {
    fn to(side: impl Fn(&Split) -> CpuSet) -> Pinned {
        let restore = Split::plan().and_then(|split| {
            let before = CpuSet::current()?;
            side(&split).apply().then_some(before)
        });
        Pinned { restore }
    }

    /// Pin the calling thread (and threads it starts) to the harness
    /// side.
    pub fn harness() -> Pinned {
        Pinned::to(|s| s.harness)
    }

    /// Pin the calling thread to the program's side: a child spawned
    /// while this is held starts — and stays — there.
    pub fn program() -> Pinned {
        Pinned::to(|s| s.program)
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(before) = &self.restore {
            before.apply();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_round_trip_their_cpus() {
        let set = CpuSet::of(&[0, 3, 64, 1023, 5000]);
        assert_eq!(
            set.cpus(),
            [0, 3, 64, 1023],
            "out-of-range CPUs are dropped"
        );
        assert!(CpuSet::of(&[]).cpus().is_empty());
    }

    #[test]
    fn pinning_narrows_and_dropping_restores() {
        // Affinity is per thread: other test threads keep theirs.
        let (Some(before), Some(split)) = (CpuSet::current(), Split::plan()) else {
            return;
        };
        let mut both = split.harness.cpus();
        both.extend(split.program.cpus());
        assert_eq!(
            both,
            split.all.cpus(),
            "the split partitions the allowed CPUs"
        );
        assert_eq!(split.program.cpus().len(), 1);
        {
            let _pin = Pinned::program();
            assert_eq!(CpuSet::current(), Some(split.program));
        }
        assert_eq!(CpuSet::current(), Some(before));
        {
            let _outer = Pinned::harness();
            assert_eq!(CpuSet::current(), Some(split.harness));
            {
                let _inner = Pinned::program();
                assert_eq!(CpuSet::current(), Some(split.program));
            }
            assert_eq!(CpuSet::current(), Some(split.harness), "nested pins unwind");
        }
        assert_eq!(CpuSet::current(), Some(before));
    }
}
