//! Order statistics: nearest-rank percentiles for latency samples, and the
//! median and quartiles of a handful of runs, computed exactly as Python's
//! `statistics.median` and `statistics.quantiles(values, n=4)` do, so the
//! spreads this benchmark prints match the ones checked against its bounds.

/// Percentiles a latency report may claim, in increasing order.
const LADDER: &[f64] = &[50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`LADDER`] that has at least ten samples
/// beyond it, so that its value rests on more than a single outlier; `None`
/// when even the median does not qualify.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two nearest order statistics.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    let k = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (k.floor() as usize, k.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (k - lo as f64)
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's default ("exclusive") method.
/// With fewer than two values both quartiles are that value.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return (data[0], data[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median's magnitude
/// (0 when the median is 0 and the quartiles agree).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values).abs();
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in benchmark values"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 50);
        assert_eq!(nearest_rank(&samples, 99.0), 99);
        assert_eq!(nearest_rank(&samples, 99.9), 100);
        assert_eq!(nearest_rank(&samples, 100.0), 100);
        assert_eq!(nearest_rank(&samples, 0.001), 1);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
        // Ten samples: the 25th percentile is the third (ceil(2.5)).
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(nearest_rank(&ten, 25.0), 12);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(30_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!((quantile(&ten, 0.0), quantile(&ten, 1.0)), (1.0, 10.0));
        assert!((quantile(&ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&ten, 0.5), median(&ten));
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
