//! Property-based tests of the observability primitives: histogram
//! merge associativity, quantile error bounds, and span nesting.

use crate::histogram::{Histogram, BUCKETS_PER_OCTAVE};
use crate::span::{self, SpanGuard};
use proptest::prelude::*;

fn build(samples: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Everything except the f64 sum, which is only approximately
/// associative under IEEE-754 addition.
fn integer_state(h: &Histogram) -> (u64, u64, Vec<u64>, Option<(u64, u64)>) {
    let (zero, buckets) = h.bucket_counts();
    let extremes = (h.count() > 0).then(|| (h.min().to_bits(), h.max().to_bits()));
    (h.count(), zero, buckets.to_vec(), extremes)
}

proptest! {
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0.0f64..1e12, 0..40),
        b in proptest::collection::vec(0.0f64..1e12, 0..40),
        c in proptest::collection::vec(0.0f64..1e12, 0..40),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));

        // (a ⊔ b) ⊔ c
        let mut lhs = Histogram::new();
        lhs.merge(&ha);
        lhs.merge(&hb);
        lhs.merge(&hc);

        // a ⊔ (b ⊔ c)
        let mut right = Histogram::new();
        right.merge(&hb);
        right.merge(&hc);
        let mut rhs = ha.clone();
        rhs.merge(&right);

        prop_assert_eq!(integer_state(&lhs), integer_state(&rhs));
        // Sums agree to floating-point tolerance.
        let scale = lhs.sum().abs().max(1.0);
        prop_assert!((lhs.sum() - rhs.sum()).abs() / scale < 1e-9);
        // And merging is equivalent to recording everything into one.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(integer_state(&lhs), integer_state(&build(&all)));
    }

    #[test]
    fn quantiles_within_one_bucket_of_truth(
        samples in proptest::collection::vec(1e-6f64..1e9, 1..200),
        q in 0.0f64..1.0,
    ) {
        let h = build(&samples);
        let mut sorted = samples.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        let k = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let truth = sorted[k - 1];
        let est = h.quantile(q);
        // The estimate is the bucket midpoint clamped to [min, max]:
        // within one full bucket width of the true order statistic.
        let gamma = (1.0 / BUCKETS_PER_OCTAVE as f64).exp2();
        let ratio = est / truth;
        prop_assert!(
            ratio >= 1.0 / gamma - 1e-9 && ratio <= gamma + 1e-9,
            "q={} est={} truth={} ratio={}", q, est, truth, ratio
        );
    }

    #[test]
    fn quantile_is_monotone_in_q(
        samples in proptest::collection::vec(0.0f64..1e9, 1..100),
    ) {
        let h = build(&samples);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            prop_assert!(h.quantile(w[0]) <= h.quantile(w[1]));
        }
    }

    #[test]
    fn nested_span_time_bounded_by_parent(
        children in 1usize..5,
    ) {
        let _table = span::test_lock();
        span::reset();
        let root = format!("prop_parent_{children}");
        {
            let _p = SpanGuard::enter(&root);
            for _ in 0..children {
                let _c = SpanGuard::enter("prop_child");
                std::hint::black_box(0u64);
            }
        }
        let snap = span::snapshot();
        let parent = snap[&root];
        let child = snap[&format!("{root}/prop_child")];
        prop_assert_eq!(parent.count, 1);
        prop_assert_eq!(child.count, children as u64);
        prop_assert!(
            child.total <= parent.total,
            "aggregated child time {:?} must be <= parent {:?}",
            child.total, parent.total
        );
    }

    #[test]
    fn record_n_equals_per_sample_records(
        depths in proptest::collection::vec(0u32..5000, 0..400),
    ) {
        // The engine's queue-depth fold: per-depth counts recorded once
        // each through `record_n` against one `record` per sample.
        let mut per_sample = Histogram::new();
        let mut counts = vec![0u64; 5000];
        for &d in &depths {
            per_sample.record(d as f64);
            counts[d as usize] += 1;
        }
        let mut folded = Histogram::new();
        for (d, &n) in counts.iter().enumerate() {
            folded.record_n(d as f64, n);
        }
        prop_assert_eq!(integer_state(&folded), integer_state(&per_sample));
        // Bit patterns, so the NaNs of an empty histogram compare equal.
        let bits = |h: &Histogram| {
            let s = h.summarize();
            [s.sum, s.mean, s.min, s.max, s.p50, s.p90, s.p99].map(f64::to_bits)
        };
        prop_assert_eq!(bits(&folded), bits(&per_sample));
    }
}
