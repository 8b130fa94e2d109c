//! Order statistics over raw samples. Every percentile the ledger
//! reports is computed here from the samples themselves — never from
//! the coarse log buckets of `prudentia-obs` histograms.

/// The percentile ladder reports are chosen from, ascending.
const LADDER: [f64; 7] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// Fewest samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

/// Sort a sample ascending (NaNs are a bug in the caller: they panic).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    v
}

/// Quantile `q` in `[0, 1]` of an ascending sample, by linear
/// interpolation between closest ranks. `NaN` for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it in a sample of `n`, or `None` when even the median does not.
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (1.0 - p) * n as f64 >= MIN_BEYOND - 1e-9)
}

/// A timing summary: the median, plus the highest percentile the sample
/// supports under the ten-beyond rule, with the sample count stated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported percentile.
    pub top: Option<(f64, f64)>,
}

/// Summarize an unsorted sample.
pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    Summary {
        n: s.len(),
        p50: quantile_sorted(&s, 0.5),
        top: top_percentile(s.len()).map(|p| (p, quantile_sorted(&s, p))),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `diff` and the acceptance procedure agree on spreads.
/// A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |k: usize| {
        // 1-based position (n + 1) * k / 4, clamped into the sample.
        let j = ((n + 1) * k / 4).clamp(1, n - 1);
        let delta = ((n + 1) * k) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (`0` for one value).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let s = sorted(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 50.0);
        assert_eq!(quantile_sorted(&s, 0.25), 20.0);
        assert!((quantile_sorted(&s, 0.9) - 46.0).abs() < 1e-9);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(0), None);
        assert_eq!(top_percentile(19), None, "p50 of 19 has 9.5 beyond");
        assert_eq!(top_percentile(20), Some(0.50));
        assert_eq!(top_percentile(99), Some(0.75));
        assert_eq!(top_percentile(100), Some(0.90));
        assert_eq!(top_percentile(199), Some(0.90));
        assert_eq!(top_percentile(200), Some(0.95));
        assert_eq!(top_percentile(999), Some(0.95));
        assert_eq!(top_percentile(1000), Some(0.99));
        assert_eq!(top_percentile(10_000), Some(0.999));
        assert_eq!(top_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn summary_states_the_count_and_the_supported_percentile() {
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 300);
        assert_eq!(s.p50, 150.5);
        let (p, v) = s.top.expect("300 samples support p95");
        assert_eq!(p, 0.95);
        assert!((v - 285.05).abs() < 1e-9);
        assert_eq!(summarize(&[1.0, 2.0]).top, None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
