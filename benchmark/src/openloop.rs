//! Open-loop pacing: requests are due on a fixed schedule whatever the
//! server does, and each latency runs from the instant the request was
//! *due*, so a stall is charged to every request it delays.

use std::time::{Duration, Instant};

/// How close to the due time the generator stops sleeping and spins.
/// Sleeping overshoots by tens of microseconds; spinning the last
/// stretch keeps sends on schedule without burning a whole core.
const SPIN_WINDOW: Duration = Duration::from_micros(80);

/// The generator's view of time, injectable so the accounting can be
/// tested against a scripted stall.
pub trait Clock {
    /// Nanoseconds since the loop's origin.
    fn now_ns(&mut self) -> u64;
    /// Wait until `due_ns` (return at once if it has passed).
    fn wait_until(&mut self, due_ns: u64);
}

/// The host clock: sleeps to within [`SPIN_WINDOW`] of the due time,
/// then spins.
#[derive(Debug)]
pub struct HostClock {
    origin: Instant,
}

impl HostClock {
    /// A clock whose origin is now.
    pub fn start() -> HostClock {
        HostClock {
            origin: Instant::now(),
        }
    }

    /// The clock's origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

impl Clock for HostClock {
    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, due_ns: u64) {
        let due = self.origin + Duration::from_nanos(due_ns);
        loop {
            let now = Instant::now();
            if now >= due {
                return;
            }
            let left = due - now;
            if left > SPIN_WINDOW {
                std::thread::sleep(left - SPIN_WINDOW);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One completed open-loop operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Position in the schedule.
    pub index: u64,
    /// When the operation was due, ns since origin.
    pub due_ns: u64,
    /// When it was actually started.
    pub sent_ns: u64,
    /// When it completed.
    pub done_ns: u64,
}

impl Sample {
    /// Latency charged from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator started the operation.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// What the loop does in each slot of the schedule.
pub trait SlotOps {
    /// What the timed part hands to the untimed part.
    type Answer;
    /// The operation itself; the slot's latency ends when it returns.
    fn timed(&mut self, index: u64) -> Self::Answer;
    /// Checking the answer: after the clock was read, before the next
    /// slot is waited for.
    fn untimed(&mut self, index: u64, answer: Self::Answer);
    /// Whether the rest of the schedule is pointless (the peer is gone).
    fn abandoned(&self) -> bool {
        false
    }
}

/// Run one operation per slot of a fixed-rate schedule covering
/// `duration_ns`, never skipping a slot: a slot whose due time has
/// passed is started at once. Returns one [`Sample`] per slot run; the
/// schedule is only cut short when the operations report themselves
/// [`abandoned`](SlotOps::abandoned).
pub fn run_open_loop<C: Clock, O: SlotOps>(
    clock: &mut C,
    rate_per_sec: f64,
    duration_ns: u64,
    ops: &mut O,
) -> Vec<Sample> {
    let interval_ns = 1e9 / rate_per_sec;
    let slots = (duration_ns as f64 / interval_ns).floor() as u64;
    let mut samples = Vec::with_capacity(slots as usize);
    for index in 0..slots {
        let due_ns = (index as f64 * interval_ns) as u64;
        clock.wait_until(due_ns);
        let sent_ns = clock.now_ns();
        let answer = ops.timed(index);
        let done_ns = clock.now_ns();
        samples.push(Sample {
            index,
            due_ns,
            sent_ns,
            done_ns,
        });
        ops.untimed(index, answer);
        if ops.abandoned() {
            break;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A scripted clock: time moves only when told to.
    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.0.get()
        }
        fn wait_until(&mut self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    /// Every operation takes 100 µs, except number 2, which stalls for
    /// 3.5 ms; checking an answer takes 50 µs and must not be charged.
    struct StallAtTwo(Rc<Cell<u64>>);

    impl SlotOps for StallAtTwo {
        type Answer = ();
        fn timed(&mut self, index: u64) {
            let cost = if index == 2 { 3_500_000 } else { 100_000 };
            self.0.set(self.0.get() + cost);
        }
        fn untimed(&mut self, _index: u64, _answer: ()) {
            self.0.set(self.0.get() + 50_000);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // 1000 req/s → one slot per ms.
        let now = Rc::new(Cell::new(0));
        let mut clock = FakeClock(Rc::clone(&now));
        let samples = run_open_loop(&mut clock, 1000.0, 8_000_000, &mut StallAtTwo(now));
        assert_eq!(samples.len(), 8, "no slot is skipped");
        let lat: Vec<u64> = samples.iter().map(Sample::latency_ns).collect();
        let late: Vec<u64> = samples.iter().map(Sample::late_ns).collect();
        // Slot 2 is due at 2 ms and done at 5.5 ms; slots 3, 4 and 5
        // were due during the stall and queue behind it (each also
        // waits out the 50 µs check of its predecessor).
        assert_eq!(lat[..3], [100_000, 100_000, 3_500_000]);
        assert_eq!(lat[3], 5_650_000 - 3_000_000);
        assert_eq!(lat[4], 5_800_000 - 4_000_000);
        assert_eq!(lat[5], 5_950_000 - 5_000_000);
        assert_eq!(lat[6..], [100_000, 100_000], "backlog drained");
        assert_eq!(late[..3], [0, 0, 0]);
        assert_eq!(late[3..6], [2_550_000, 1_700_000, 850_000]);
        // A closed loop would have reported 100 µs for all but one.
        assert_eq!(lat.iter().filter(|&&l| l > 100_000).count(), 4);
    }

    #[test]
    fn host_clock_waits_until_due() {
        let mut clock = HostClock::start();
        clock.wait_until(2_000_000);
        let now = clock.now_ns();
        assert!(now >= 2_000_000, "returned early at {now} ns");
        clock.wait_until(1_000_000);
        assert!(
            clock.now_ns() - now < 1_000_000,
            "a past due time returns at once"
        );
    }
}
