//! Log-bucketed histogram with bounded relative quantile error.
//!
//! Values are assigned to geometric buckets with growth factor
//! 2^(1/[`BUCKETS_PER_OCTAVE`]) ≈ 1.19, spanning 2^[`MIN_EXP`] up to
//! 2^([`MIN_EXP`] + [`N_BUCKETS`]/[`BUCKETS_PER_OCTAVE`]) — wide enough
//! for queue depths in packets, latencies in nanoseconds, and rates in
//! bits per second alike. A quantile estimate is the geometric midpoint
//! of the bucket holding the nearest-rank order statistic, clamped to
//! the observed min/max, so it is always within a factor of
//! 2^(1/(2·[`BUCKETS_PER_OCTAVE`])) ≈ 1.09 of a true sample quantile.
//!
//! The bucket layout is fixed (not adaptive), which makes [`Histogram::merge`]
//! a plain element-wise addition: merging is associative and commutative
//! on all integer state (bucket counts, total count, min/max), the
//! property the executor relies on when folding per-trial histograms
//! from many workers into one registry in arbitrary order.

/// Geometric buckets per power of two (bucket growth 2^(1/4) ≈ 1.19).
pub const BUCKETS_PER_OCTAVE: u32 = 4;

/// Exponent of the smallest bucket boundary (2^-32 ≈ 2.3e-10).
pub const MIN_EXP: i32 = -32;

/// Total bucket count: covers 2^-32 .. 2^96 ≈ 7.9e28.
pub const N_BUCKETS: usize = 512;

/// A mergeable log-bucketed histogram of non-negative `f64` samples.
///
/// Zero (and any negative input, clamped) has its own exact bucket so
/// "mostly empty queue" distributions keep an exact p50 of 0. NaN
/// samples are ignored.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; N_BUCKETS],
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a strictly positive finite value.
    fn index(v: f64) -> usize {
        let i = ((v.log2() - MIN_EXP as f64) * BUCKETS_PER_OCTAVE as f64).floor() as i64;
        i.clamp(0, N_BUCKETS as i64 - 1) as usize
    }

    /// Geometric midpoint of bucket `i`.
    fn midpoint(i: usize) -> f64 {
        let exp = MIN_EXP as f64 + (i as f64 + 0.5) / BUCKETS_PER_OCTAVE as f64;
        exp.exp2()
    }

    /// Record one sample. Negative values count into the zero bucket;
    /// NaN is ignored.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v` at once. Every integer field ends
    /// up as after `n` calls of [`Histogram::record`]; so does `sum`
    /// whenever `v · n` and the running sums are exact in `f64` (integer
    /// `v` and sums below 2^53, as for queue depths in packets).
    pub fn record_n(&mut self, v: f64, n: u64) {
        if v.is_nan() || n == 0 {
            return;
        }
        let v = v.max(0.0);
        if v == 0.0 {
            self.zero += n;
        } else {
            self.buckets[Self::index(v)] += n;
        }
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (element-wise bucket
    /// addition — associative and commutative on all integer state).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest recorded sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]` (NaN when
    /// empty). Exact for the zero bucket; otherwise the geometric bucket
    /// midpoint clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the k-th smallest sample, k in 1..=count.
        let k = ((q * self.count as f64).ceil() as u64).max(1);
        if k <= self.zero {
            return 0.0;
        }
        let mut cum = self.zero;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= k {
                return Self::midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Summary row used by registry exports.
    pub fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }

    /// Internal bucket state (zero bucket, then log buckets) — exposed
    /// for the merge-associativity property tests.
    pub fn bucket_counts(&self) -> (u64, &[u64]) {
        (self.zero, &self.buckets)
    }
}

/// Exportable digest of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Mean sample.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_nan() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean().is_nan());
    }

    #[test]
    fn zero_bucket_is_exact() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(0.0);
        }
        h.record(100.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 11);
        // p99 lands in the bucket of the single positive sample.
        let est = h.quantile(0.99);
        let gamma_half = (0.5 / BUCKETS_PER_OCTAVE as f64).exp2();
        assert!(
            est >= 100.0 / gamma_half && est <= 100.0 * gamma_half,
            "p99 {est} not within a half-bucket of 100"
        );
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        let mut samples = Vec::new();
        for i in 1..=1000u64 {
            let v = i as f64 * 0.37;
            samples.push(v);
            h.record(v);
        }
        let gamma_half = (0.5 / BUCKETS_PER_OCTAVE as f64).exp2();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let k = ((q * samples.len() as f64).ceil() as usize).max(1);
            let truth = samples[k - 1];
            let est = h.quantile(q);
            let ratio = est / truth;
            assert!(
                ratio >= 1.0 / gamma_half - 1e-9 && ratio <= gamma_half + 1e-9,
                "q={q}: est {est} vs truth {truth} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        a.record(2.0);
        b.record(1e9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 1e9);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn nan_ignored_negative_clamped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        h.record(-5.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn extreme_values_clamp_to_edge_buckets() {
        let mut h = Histogram::new();
        h.record(1e-300);
        h.record(1e300);
        assert_eq!(h.count(), 2);
        // Estimates are clamped to observed bounds, never out of range.
        assert!(h.quantile(0.0) >= 1e-300);
        assert!(h.quantile(1.0) <= 1e300);
    }
}
