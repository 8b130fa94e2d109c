//! Property-based tests of transport invariants.
//!
//! The fairness numbers are only meaningful if the transport is correct
//! under adversarial conditions; these properties exercise it across
//! randomized link rates, queue depths, loss rates, and CCAs:
//!
//! 1. **Exactly-once delivery**: every byte of a finite transfer arrives
//!    exactly once at the receiver, whatever is dropped on the way.
//! 2. **No phantom throughput**: unique delivered bytes never exceed bytes
//!    sent, and wire bytes never exceed bytes sent.
//! 3. **Determinism**: a (config, seed) pair fully determines the outcome.
//! 4. **Ring ≡ map**: the sender's O(1) sent-packet ring answers every
//!    remove and drain exactly as the ordered map it replaced.
//! 5. **Integer ≡ float**: the integer RTO equals the `f64` formula it
//!    replaced, and the receiver's in-order fast path answers as a plain
//!    set of seen sequence numbers.

#![cfg(test)]

use crate::flow::{rto_duration, SentInfo, SentRing, SeqTracker};
use crate::{build_simple_flow, FiniteSource, UnlimitedSource};
use proptest::prelude::*;
use prudentia_cc::CcaKind;
use prudentia_sim::{BottleneckConfig, Engine, PathSpec, ServiceId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

fn cca_strategy() -> impl Strategy<Value = CcaKind> {
    prop_oneof![
        Just(CcaKind::NewReno),
        Just(CcaKind::Cubic),
        Just(CcaKind::BbrV1Linux415),
        Just(CcaKind::BbrV1Linux515),
        Just(CcaKind::BbrV3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn finite_transfers_deliver_exactly_once(
        cca in cca_strategy(),
        rate_mbps in 2.0f64..40.0,
        queue_pkts in 4usize..256,
        loss in 0.0f64..0.08,
        kbytes in 200u64..1500,
        seed in 0u64..1000,
    ) {
        let mut eng = Engine::new(
            BottleneckConfig { rate_bps: rate_mbps * 1e6, queue_capacity_pkts: queue_pkts },
            seed,
        );
        if loss > 0.0 {
            eng.set_external_loss(loss);
        }
        let total = kbytes * 1000;
        let h = build_simple_flow(
            &mut eng,
            ServiceId(0),
            PathSpec::symmetric(SimDuration::from_millis(50)),
            cca.build(SimTime::ZERO),
            Box::new(FiniteSource::new(total)),
        );
        // Generous deadline: worst case is a tiny queue + heavy loss.
        eng.run_until(SimTime::from_secs(240));
        let recv = h.recv.borrow();
        let stats = h.stats.borrow();
        prop_assert_eq!(
            recv.unique_bytes, total,
            "lost data: delivered {} of {} (rtx {}, rtos {})",
            recv.unique_bytes, total, stats.retransmits, stats.rtos
        );
        prop_assert!(recv.wire_bytes <= stats.bytes_sent);
        prop_assert!(recv.unique_bytes <= recv.wire_bytes);
    }

    #[test]
    fn backlogged_flow_is_deterministic(
        cca in cca_strategy(),
        rate_mbps in 2.0f64..30.0,
        queue_pkts in 8usize..128,
        seed in 0u64..1000,
    ) {
        let run = || {
            let mut eng = Engine::new(
                BottleneckConfig { rate_bps: rate_mbps * 1e6, queue_capacity_pkts: queue_pkts },
                seed,
            );
            let h = build_simple_flow(
                &mut eng,
                ServiceId(0),
                PathSpec::symmetric(SimDuration::from_millis(50)),
                cca.build(SimTime::ZERO),
                Box::new(UnlimitedSource),
            );
            eng.run_until(SimTime::from_secs(15));
            let out = (
                h.recv.borrow().unique_bytes,
                h.stats.borrow().retransmits,
                h.stats.borrow().bytes_sent,
            );
            out
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn throughput_never_exceeds_link_rate(
        cca in cca_strategy(),
        rate_mbps in 2.0f64..40.0,
        seed in 0u64..1000,
    ) {
        let rate = rate_mbps * 1e6;
        let mut eng = Engine::new(
            BottleneckConfig { rate_bps: rate, queue_capacity_pkts: 128 },
            seed,
        );
        build_simple_flow(
            &mut eng,
            ServiceId(0),
            PathSpec::symmetric(SimDuration::from_millis(50)),
            cca.build(SimTime::ZERO),
            Box::new(UnlimitedSource),
        );
        eng.run_until(SimTime::from_secs(20));
        let measured = eng.trace().mean_bps(
            ServiceId(0),
            SimTime::from_secs(5),
            SimTime::from_secs(20),
        );
        // The bottleneck serializes: delivered rate is physically bounded.
        prop_assert!(
            measured <= rate * 1.001,
            "throughput {measured} exceeds link {rate}"
        );
    }
}

/// Reference model: the `BTreeMap<u64, SentInfo>` keyed by transmission
/// number that `Sender::sent` used to be.
#[derive(Default)]
struct SentMap {
    next_tx: u64,
    map: BTreeMap<u64, SentInfo>,
}

impl SentMap {
    fn push(&mut self, info: SentInfo) -> u64 {
        let tx = self.next_tx;
        self.next_tx += 1;
        self.map.insert(tx, info);
        tx
    }

    /// What `detect_reorder_losses` / `handle_rto` did: collect the keys
    /// at or below `horizon` in ascending order, then remove each.
    fn drain_through(&mut self, horizon: u64) -> Vec<SentInfo> {
        let keys: Vec<u64> = self.map.range(..=horizon).map(|(&t, _)| t).collect();
        keys.iter().map(|t| self.map.remove(t).unwrap()).collect()
    }
}

/// Everything the ring gives up through `horizon`, oldest first.
fn drain_ring(ring: &mut SentRing, horizon: u64) -> Vec<SentInfo> {
    std::iter::from_fn(|| ring.pop_front_through(horizon)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sent_ring_matches_btreemap_model(
        ops in proptest::collection::vec((0u8..9, any::<u64>()), 1..400),
    ) {
        let mut ring = SentRing::default();
        let mut model = SentMap::default();
        // Highest transmission acknowledged so far, as the sender tracks it.
        let mut highest_acked: Option<u64> = None;
        for &(op, pick) in &ops {
            // The transmission an ACK-like op names, if any.
            let acked = match op {
                // Send (the most common op, so windows build up). The info
                // is distinguishable per transmission.
                0..=3 => {
                    let info = SentInfo {
                        data_seq: pick,
                        size: 1 + (pick % 1500) as u32,
                        sent_at: SimTime::from_nanos(model.next_tx),
                        delivered_at_send: pick >> 7,
                        delivered_time_at_send: SimTime::ZERO,
                        app_limited: pick & 1 == 1,
                        retransmitted: pick & 2 == 2,
                    };
                    prop_assert_eq!(ring.push(info), model.push(info), "tx numbers are dense");
                    None
                }
                // In-order ACK: the oldest outstanding transmission.
                4 => model.map.keys().next().copied(),
                // Out-of-order ACK: any outstanding transmission.
                5 => {
                    let n = model.map.len().max(1);
                    model.map.keys().nth(pick as usize % n).copied()
                }
                // Any number from 0 to just past the newest: duplicates of
                // earlier ACKs, numbers below the ring's base (already
                // drained as lost) and numbers never sent.
                6 => Some(pick % (model.next_tx + 2)),
                // Reorder-horizon drain, as after an ACK: everything three
                // or more below the highest ACK (or an arbitrary horizon
                // when nothing was acked yet).
                7 => {
                    let horizon = match highest_acked {
                        Some(h) => h.saturating_sub(3),
                        None => pick % (model.next_tx + 1),
                    };
                    prop_assert_eq!(
                        drain_ring(&mut ring, horizon),
                        model.drain_through(horizon),
                        "reorder drain through {}",
                        horizon
                    );
                    None
                }
                // RTO: everything outstanding, oldest first.
                _ => {
                    prop_assert_eq!(
                        drain_ring(&mut ring, u64::MAX),
                        model.drain_through(u64::MAX),
                        "RTO drain"
                    );
                    None
                }
            };
            if let Some(tx) = acked {
                let want = model.map.remove(&tx);
                prop_assert_eq!(ring.remove(tx), want, "remove({})", tx);
                if want.is_some() {
                    highest_acked = Some(highest_acked.map_or(tx, |h| h.max(tx)));
                }
            }
            prop_assert_eq!(ring.is_empty(), model.map.is_empty());
            prop_assert!(ring.slots() >= model.map.len());
        }
        // Draining what is left agrees too, and leaves both empty.
        prop_assert_eq!(drain_ring(&mut ring, u64::MAX), model.drain_through(u64::MAX));
        prop_assert!(ring.is_empty());
        prop_assert_eq!(ring.slots(), 0);
    }

    #[test]
    fn integer_rto_equals_the_float_formula(
        srtt in 0u64..=(1 << 50),
        rttvar in 0u64..=(1 << 50),
        small in 0u64..1_000_000_000,
        sampled in any::<bool>(),
    ) {
        // The formula as it was: 4·rttvar and the 2^backoff factor as
        // `f64` products rounded back to nanoseconds.
        let float = |srtt: Option<u64>, rttvar: u64, backoff: u32| {
            let base = match srtt {
                Some(s) => s.saturating_add((rttvar as f64 * 4.0).round() as u64),
                None => 1_000_000_000,
            };
            let factor = f64::from(1u32 << backoff.min(6));
            SimDuration::from_nanos(((base as f64 * factor).round() as u64).max(200_000_000))
        };
        for (s, v) in [(srtt, rttvar), (small, small / 3), (srtt, small)] {
            let s = sampled.then_some(s);
            for backoff in 0..=8 {
                let int = rto_duration(s.map(SimDuration::from_nanos), SimDuration::from_nanos(v), backoff);
                prop_assert_eq!(int, float(s, v, backoff), "srtt {:?} rttvar {} backoff {}", s, v, backoff);
            }
        }
    }

    #[test]
    fn seq_tracker_answers_as_a_set(
        seqs in proptest::collection::vec((0u64..64, 0u8..4), 1..300),
    ) {
        // Mostly in order (the fast path), with gaps, reordering and
        // duplicates mixed in.
        let mut tracker = SeqTracker::default();
        let mut seen = BTreeSet::new();
        let mut next = 0u64;
        for &(jump, kind) in &seqs {
            let seq = match kind {
                0 | 1 => { next += 1; next - 1 }
                2 => next + jump % 8,
                _ => next.saturating_sub(jump % 8),
            };
            prop_assert_eq!(tracker.insert(seq), seen.insert(seq), "seq {}", seq);
        }
    }
}
