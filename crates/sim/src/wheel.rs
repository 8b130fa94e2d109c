//! Hierarchical timing wheel: the production event calendar.
//!
//! # Layout
//!
//! Simulation time is quantized into 2¹⁸ ns ≈ 262 µs ticks
//! (`TICK_SHIFT`). A tick is *not* small against the events it
//! holds — it is about one 1500-byte serialization at 50 Mbps — and
//! does not need to be: a tick's events are drained as one batch in
//! which the full `(at, seq)` order is restored (sorted on load, sorted
//! insert afterwards), so the tick length decides only how much work an
//! event costs on its way to its batch, never the order events pop in.
//! Ticks feed a six-level wheel of 64 slots per level: level `l` spans
//! `64^l` ticks per slot, so the wheel covers `64^6` ticks ≈ 208 days of
//! simulated time. Anything further out (none of our workloads ever
//! are) falls back to a small overflow binary heap, the classic
//! calendar-queue escape hatch.
//!
//! ## Why 2¹⁸ ns
//!
//! An event scheduled on level `l` is re-inserted `l` times (one
//! cascade per level) before it reaches a batch, and the re-inserts are
//! most of what the calendar costs per event. The tick is therefore
//! chosen so the testbed's recurring delays sit as low as possible.
//! Starting from tick 0 (the level is `ilog2(delay in ticks) / 6`):
//!
//! | recurring delay | at 2¹² ns (before) | at 2¹⁸ ns (now) |
//! |---|---|---|
//! | 1500 B serialization, 50 Mbps (240 µs) | 58 ticks, level 0 | 0–1 ticks, current batch or level 0 |
//! | 1500 B serialization, 8 Mbps (1.5 ms) | 366 ticks, level 1 | 5 ticks, level 0 |
//! | sender poll (10 ms) | 2,441 ticks, level 1 | 38 ticks, level 0 |
//! | one-way path leg (25 ms; two per packet) | 6,103 ticks, level 2 | 95 ticks, level 1 |
//! | minimum RTO, re-armed per ACK (200 ms) | 48,828 ticks, level 2 | 762 ticks, level 1 |
//! | initial RTO (1 s) | 244,140 ticks, level 2 | 3,814 ticks, level 1 |
//!
//! Three of a bulk packet's five events (both 25 ms `Deliver` legs and
//! the RTO timer) drop from two cascades to one. Level selection is
//! XOR-based (see `TimingWheel::insert`), so "from tick 0" is the
//! common case, not a guarantee: a delay of `d` ticks that fits level
//! `l` still lands one level higher whenever the start tick is within
//! `d` of the end of its `64^(l+1)`-tick block — about 2 % of start
//! ticks for the 25 ms leg and 19 % for the 200 ms RTO at this tick
//! length (and 59 % for the 10 ms poll, which then takes level 1).
//! 2¹⁶ ns keeps 25 ms on level 1 too but sends three quarters of the
//! 200 ms timers to level 2; measured end to end it was the slower of
//! the two (EXPERIMENTS.md, "Cheaper events").
//!
//! Per-level occupancy bitmaps (`u64`, one bit per slot) make "find the
//! next non-empty slot at or after the current position" a
//! `rotate_right` + `trailing_zeros` — no slot scanning.
//!
//! # Operation
//!
//! * **schedule** — `O(1)`: pick the level from the highest bit where
//!   the event's tick differs from the current tick (`ilog2(tick ^ now)
//!   / 6`, Varghese-style), push onto that slot's `Vec`, set the
//!   occupancy bit. Events landing on the *current* tick
//!   go straight into the sorted current batch (insertion keeps
//!   `(at, seq)` order; they necessarily sort at/after the cursor
//!   because `at ≥ now` and `seq` is monotone).
//! * **pop** — amortized `O(1)`: consume the current batch through a
//!   cursor. When exhausted, advance: find the minimum candidate slot
//!   across all levels (each level's next occupied slot lower-bounds its
//!   events by the slot's start tick, clamped to `now`), jump `now_tick`
//!   there, then either load a level-0 slot as the new batch (one
//!   `sort_unstable` — batches are small and mostly sorted already) or
//!   cascade a higher-level slot by re-inserting its events, which
//!   strictly lowers their level, so each event cascades at most
//!   `LEVELS` times over its lifetime.
//!
//! # Determinism
//!
//! Identical schedule/pop sequences produce identical pop orders — a
//! `(at, seq)` total order, verified end to end by the
//! wheel-vs-sorted-model proptest (`proptests.rs`) and by the
//! blessed golden traces (`tests/differential_scheduler.rs` pins the
//! wheel against them across codegen profiles).

use crate::event::{Event, Scheduled};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// log2 of the tick length in nanoseconds: 262,144 ns per tick (see
/// "Why 2¹⁸ ns" in the module docs).
pub(crate) const TICK_SHIFT: u32 = 18;
/// log2 of the slots per level.
pub(crate) const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels. Level `l` spans `64^(l+1)` ticks total.
const LEVELS: usize = 6;
/// Tick deltas at or beyond this go to the overflow heap.
pub(crate) const HORIZON_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// The level an event is filed on, from `diff = tick ^ now_tick`
/// (non-zero): the highest differing bit, `SLOT_BITS` bits per level.
#[inline]
fn level_of(diff: u64) -> usize {
    (63 - diff.leading_zeros()) as usize / SLOT_BITS as usize
}

/// Hierarchical timing wheel with a calendar-queue overflow fallback.
/// See the module docs for the design.
pub struct TimingWheel {
    /// `LEVELS * SLOTS` buckets, flattened. Buckets keep their capacity
    /// across drains, so steady state allocates nothing.
    slots: Vec<Vec<Scheduled>>,
    /// One occupancy bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// The tick of the batch currently being drained. All stored events
    /// have `tick ≥ now_tick`.
    now_tick: u64,
    /// Events of the current tick in `(at, seq)` order; `cursor` is the
    /// next entry to pop.
    current: Vec<Scheduled>,
    cursor: usize,
    /// Far-future events (≥ `HORIZON_TICKS` ticks out). `Scheduled`'s
    /// `Ord` is already inverted (min-first), so the max-heap pops the
    /// earliest entry.
    overflow: BinaryHeap<Scheduled>,
    /// Pending (un-popped) events across all storage.
    len: usize,
    next_seq: u64,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            now_tick: 0,
            current: Vec::new(),
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }
}

impl TimingWheel {
    /// Create an empty wheel positioned at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` to fire at `at`. `at` must be at or after the
    /// timestamp of the most recently popped event (the engine only
    /// schedules into the future).
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.insert(Scheduled { at, seq, event });
    }

    fn insert(&mut self, s: Scheduled) {
        let tick = tick_of(s.at);
        debug_assert!(
            tick >= self.now_tick,
            "scheduled into the past: tick {tick} < now_tick {}",
            self.now_tick
        );
        if tick == self.now_tick {
            // Lands in the batch being drained. A fresh schedule sorts
            // after everything (monotone seq); a cascade re-insert may
            // sort anywhere, but cascades only happen when the batch is
            // empty. Either way a sorted insert at/after the cursor is
            // correct and almost always a plain push.
            let pos = self
                .current
                .partition_point(|e| (e.at, e.seq) <= (s.at, s.seq));
            debug_assert!(pos >= self.cursor);
            self.current.insert(pos, s);
            return;
        }
        // Level of the highest bit where the event's tick differs from
        // now_tick (Varghese-style). Unlike leveling on the raw delta,
        // this guarantees the slot sits 1..=63 positions ahead of the
        // current position at its level — delta-based leveling can alias
        // a slot exactly one full revolution ahead, which would make the
        // bitmap scan find it a lap early and cascade it in place
        // forever. Slots index by absolute tick, so events never move
        // when now_tick advances under them.
        let diff = tick ^ self.now_tick;
        if diff >= HORIZON_TICKS {
            self.overflow.push(s);
            return;
        }
        let level = level_of(diff);
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(s);
        self.occupancy[level] |= 1 << slot;
    }

    /// Ensure `current[cursor]` is the global minimum pending event.
    /// Returns false when nothing is pending anywhere.
    fn advance(&mut self) -> bool {
        while self.cursor >= self.current.len() {
            if self.len == 0 {
                return false;
            }
            self.current.clear();
            self.cursor = 0;

            // Find the level whose next occupied slot has the smallest
            // lower bound. A slot's events are all ≥ its start tick and
            // ≥ now_tick, so `max(start, now_tick)` is a tight-enough
            // candidate: exact at level 0, a lower bound above.
            let mut best: Option<(usize, u64)> = None; // (level, slot_abs)
            let mut best_cand = u64::MAX;
            for level in 0..LEVELS {
                let occ = self.occupancy[level];
                if occ == 0 {
                    continue;
                }
                let pos = self.now_tick >> (SLOT_BITS * level as u32);
                let ahead = occ
                    .rotate_right((pos & (SLOTS as u64 - 1)) as u32)
                    .trailing_zeros();
                let slot_abs = pos + ahead as u64;
                let cand = (slot_abs << (SLOT_BITS * level as u32)).max(self.now_tick);
                if cand < best_cand {
                    best_cand = cand;
                    best = Some((level, slot_abs));
                }
            }
            if let Some(top) = self.overflow.peek() {
                let otick = tick_of(top.at);
                if otick < best_cand {
                    // Overflow holds the minimum: jump to it and promote
                    // every overflow event now inside the horizon back
                    // into the wheel (at worst the top levels).
                    self.now_tick = otick;
                    while let Some(top) = self.overflow.peek() {
                        if tick_of(top.at) ^ self.now_tick >= HORIZON_TICKS {
                            break;
                        }
                        let s = self.overflow.pop().unwrap();
                        self.insert(s);
                    }
                    continue;
                }
            }
            let (level, slot_abs) = match best {
                Some(b) => b,
                // len > 0 but neither wheel nor overflow has events —
                // impossible by construction.
                None => unreachable!("timing wheel lost events"),
            };
            self.now_tick = best_cand;
            let slot = (slot_abs & (SLOTS as u64 - 1)) as usize;
            self.occupancy[level] &= !(1 << slot);
            if level == 0 {
                // Exact tick: this slot *is* the next batch.
                let bucket = &mut self.slots[slot];
                self.current.append(bucket);
                self.current.sort_unstable_by_key(|s| (s.at, s.seq));
            } else {
                // Cascade: re-insert each event relative to the advanced
                // now_tick; every one lands at a strictly lower level (or
                // the current tick), so this terminates.
                let mut bucket = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                for s in bucket.drain(..) {
                    self.insert(s);
                }
                // Give the bucket its capacity back for reuse.
                self.slots[level * SLOTS + slot] = bucket;
            }
        }
        true
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if !self.advance() {
            return None;
        }
        let s = self.current[self.cursor];
        self.cursor += 1;
        self.len -= 1;
        Some((s.at, s.event))
    }

    /// Timestamp of the earliest pending event. `&mut` because finding
    /// it may require cascading a slot (the result is then memoized in
    /// the current batch, so a following `pop` is free).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.advance() {
            return None;
        }
        Some(self.current[self.cursor].at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::EndpointId;

    fn timer(token: u64) -> Event {
        Event::Timer {
            endpoint: EndpointId(0),
            token,
        }
    }

    fn tokens(w: &mut TimingWheel) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop())
            .map(|(at, e)| match e {
                Event::Timer { token, .. } => (at.as_nanos(), token),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn single_tick_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..10 {
            w.schedule(SimTime::from_nanos(100), timer(i));
        }
        let got = tokens(&mut w);
        assert_eq!(got, (0..10).map(|i| (100, i)).collect::<Vec<_>>());
    }

    #[test]
    fn sub_tick_times_order_within_batch() {
        // All inside tick 0 (< one tick of nanoseconds) but distinct
        // times: the batch sort must order by time, then seq.
        const _: () = assert!(30 < 1u64 << TICK_SHIFT);
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(30), timer(2));
        w.schedule(SimTime::from_nanos(10), timer(0));
        w.schedule(SimTime::from_nanos(30), timer(3));
        w.schedule(SimTime::from_nanos(20), timer(1));
        let got: Vec<u64> = tokens(&mut w).into_iter().map(|(_, t)| t).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn testbed_delays_select_level_one_from_tick_zero() {
        // The reason for TICK_SHIFT: the 25 ms path legs and the 200 ms
        // minimum RTO, which three of a bulk packet's five events carry,
        // cost one cascade instead of the two they cost on level 2.
        for ms in [25, 200] {
            assert_eq!(level_of(tick_of(SimTime::from_millis(ms))), 1, "{ms} ms");
        }
        // Not a guarantee for every start tick: leveling is by XOR, so a
        // start close enough to the end of a level-1 block still crosses
        // into level 2.
        let block = 1u64 << (2 * SLOT_BITS);
        let at = SimTime::from_nanos(((block - 1) << TICK_SHIFT) + 25_000_000);
        assert_eq!(level_of(tick_of(at) ^ (block - 1)), 2);

        // And the wheel agrees with the formula: one event on level 1,
        // nothing else occupied.
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_millis(25), timer(0));
        assert_eq!(
            w.occupancy.map(|o| o.count_ones()),
            [0, 1, 0, 0, 0, 0],
            "a 25 ms delay from tick 0 must be filed on level 1"
        );
    }

    #[test]
    fn crosses_every_level_boundary() {
        // One event per level: 1 tick out, 64 ticks, 64², ... 64⁵, plus
        // one beyond the horizon (overflow heap).
        let mut w = TimingWheel::new();
        let mut ats: Vec<u64> = (0..=LEVELS as u32)
            .map(|l| (1u64 << (SLOT_BITS * l)) << TICK_SHIFT)
            .collect();
        for (i, &at) in ats.iter().enumerate().rev() {
            w.schedule(SimTime::from_nanos(at), timer(i as u64));
        }
        let got = tokens(&mut w);
        ats.sort_unstable();
        let want: Vec<(u64, u64)> = ats
            .iter()
            .enumerate()
            .map(|(i, &at)| (at, i as u64))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn schedule_after_pop_interleaves() {
        // Pop to t, then schedule more events both at t (same tick) and
        // later; order stays globally correct.
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_micros(100), timer(0));
        w.schedule(SimTime::from_micros(500), timer(1));
        assert_eq!(w.pop().unwrap().1, timer(0));
        w.schedule(SimTime::from_micros(100), timer(2)); // same tick as `now`
        w.schedule(SimTime::from_micros(300), timer(3));
        let got: Vec<u64> = tokens(&mut w).into_iter().map(|(_, t)| t).collect();
        assert_eq!(got, vec![2, 3, 1]);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w = TimingWheel::new();
        let horizon_ns = HORIZON_TICKS << TICK_SHIFT;
        w.schedule(SimTime::from_nanos(horizon_ns * 3), timer(2));
        w.schedule(SimTime::from_nanos(5), timer(0));
        w.schedule(SimTime::from_nanos(horizon_ns * 2), timer(1));
        let got: Vec<u64> = tokens(&mut w).into_iter().map(|(_, t)| t).collect();
        assert_eq!(got, vec![0, 1, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn len_counts_pending_only() {
        let mut w = TimingWheel::new();
        assert!(w.is_empty());
        w.schedule(SimTime::from_millis(1), timer(0));
        w.schedule(SimTime::from_millis(2), timer(1));
        assert_eq!(w.len(), 2);
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
    }
}
