//! Summary statistics over a vector of per-query errors.
//!
//! Mirrors the rows of Tables 7, 8, 10 and 11 of the paper:
//! median, 90th, 95th, 99th percentile, max and mean.

/// Percentile summary of a set of per-query errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    pub median: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
    pub mean: f64,
    /// Number of samples the summary was computed over.
    pub count: usize,
}

impl ErrorSummary {
    /// Compute the summary of a slice of errors.
    ///
    /// Returns a summary full of zeros when the slice is empty.
    pub fn from_errors(errors: &[f64]) -> Self {
        if errors.is_empty() {
            return ErrorSummary { median: 0.0, p90: 0.0, p95: 0.0, p99: 0.0, max: 0.0, mean: 0.0, count: 0 };
        }
        let mut sorted: Vec<f64> = errors.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if sorted.is_empty() {
            return ErrorSummary { median: 0.0, p90: 0.0, p95: 0.0, p99: 0.0, max: 0.0, mean: 0.0, count: 0 };
        }
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        ErrorSummary {
            median: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
            mean,
            count: sorted.len(),
        }
    }

    /// Additional percentile not stored in the struct (e.g. 25th/75th for the
    /// box plots of Figure 9).
    pub fn percentile_of(errors: &[f64], p: f64) -> f64 {
        let mut sorted: Vec<f64> = errors.iter().copied().filter(|x| x.is_finite()).collect();
        if sorted.is_empty() {
            return 0.0;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        percentile(&sorted, p)
    }
}

/// Linear-interpolated percentile over an already-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let p = p.clamp(0.0, 1.0);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = ErrorSummary::from_errors(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_element() {
        let s = ErrorSummary::from_errors(&[5.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn median_of_odd() {
        let s = ErrorSummary::from_errors(&[1.0, 100.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn max_and_mean() {
        let s = ErrorSummary::from_errors(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_monotone() {
        let errs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = ErrorSummary::from_errors(&errs);
        assert!(s.median <= s.p90);
        assert!(s.p90 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn non_finite_filtered() {
        let s = ErrorSummary::from_errors(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn extra_percentile() {
        let errs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p25 = ErrorSummary::percentile_of(&errs, 0.25);
        assert!(p25 > 20.0 && p25 < 30.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn summary_within_min_max(errs in proptest::collection::vec(1.0f64..1e6, 1..200)) {
            let s = ErrorSummary::from_errors(&errs);
            let min = errs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = errs.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(s.median >= min - 1e-9 && s.median <= max + 1e-9);
            prop_assert!(s.mean >= min - 1e-9 && s.mean <= max + 1e-9);
            prop_assert!((s.max - max).abs() < 1e-9);
        }

        #[test]
        fn percentiles_are_ordered(errs in proptest::collection::vec(1.0f64..1e6, 2..300)) {
            let s = ErrorSummary::from_errors(&errs);
            prop_assert!(s.median <= s.p90 + 1e-9);
            prop_assert!(s.p90 <= s.p95 + 1e-9);
            prop_assert!(s.p95 <= s.p99 + 1e-9);
            prop_assert!(s.p99 <= s.max + 1e-9);
        }
    }
}
