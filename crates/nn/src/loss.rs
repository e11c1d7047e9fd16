//! Target normalization and the q-error training loss (Section 4.3).
//!
//! The estimation layer outputs sigmoid values in `[0, 1]`; targets (true
//! cost / cardinality) are mapped into that range by min-max normalizing
//! their natural logarithm over the training set.  With that mapping,
//! `|out - target| * (log_max - log_min)` is exactly `ln(q-error)`, so the
//! training loss is the log of the paper's q-error — monotone in it and
//! numerically stable — and the reported metric is the q-error itself.

/// Min-max statistics of `ln(value)` over a training set, used to normalize
/// targets into `[0, 1]` and denormalize model outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizationStats {
    pub log_min: f64,
    pub log_max: f64,
}

impl NormalizationStats {
    /// Fit the statistics over raw (unnormalized) values; values are clamped
    /// to at least 1.0 before taking logs.
    pub fn fit(values: &[f64]) -> Self {
        let mut log_min = f64::INFINITY;
        let mut log_max = f64::NEG_INFINITY;
        for &v in values {
            let lv = v.max(1.0).ln();
            log_min = log_min.min(lv);
            log_max = log_max.max(lv);
        }
        if !log_min.is_finite() || !log_max.is_finite() {
            log_min = 0.0;
            log_max = 1.0;
        }
        if (log_max - log_min) < 1e-9 {
            log_max = log_min + 1.0;
        }
        NormalizationStats { log_min, log_max }
    }

    /// Map a raw value to `[0, 1]`.
    pub fn normalize(&self, value: f64) -> f32 {
        let lv = value.max(1.0).ln();
        (((lv - self.log_min) / (self.log_max - self.log_min)).clamp(0.0, 1.0)) as f32
    }

    /// Map a normalized model output back to a raw value.
    pub fn denormalize(&self, normalized: f32) -> f64 {
        let n = normalized.clamp(0.0, 1.0) as f64;
        (self.log_min + n * (self.log_max - self.log_min)).exp()
    }

    /// Width of the log range; scales normalized differences to log q-errors.
    pub fn log_range(&self) -> f64 {
        self.log_max - self.log_min
    }

    /// Training loss and output-gradient for one (output, target) pair in
    /// normalized space.  Returns `(loss, dloss/doutput)` where the loss is
    /// `ln(q-error) = |out - target| * log_range`, smoothed around zero to
    /// keep the gradient finite.
    pub fn loss_and_grad(&self, output: f32, target: f32) -> (f64, f32) {
        let range = self.log_range() as f32;
        let diff = output - target;
        let delta = 0.01f32;
        if diff.abs() <= delta {
            // Quadratic region (Huber-style smoothing).
            let loss = 0.5 * (diff * diff / delta) * range;
            (loss as f64, range * diff / delta)
        } else {
            let loss = (diff.abs() - 0.5 * delta) * range;
            (loss as f64, range * diff.signum())
        }
    }
}

/// Convert a normalized (output, target) pair into a q-error given the
/// normalization statistics used during training.
pub fn qerror_from_normalized(stats: &NormalizationStats, output: f32, target: f32) -> f64 {
    let est = stats.denormalize(output);
    let real = stats.denormalize(target);
    metrics_qerror(est, real)
}

fn metrics_qerror(est: f64, real: f64) -> f64 {
    let e = est.max(1.0);
    let r = real.max(1.0);
    if e > r {
        e / r
    } else {
        r / e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_roundtrip() {
        let stats = NormalizationStats::fit(&[1.0, 10.0, 100.0, 100000.0]);
        for v in [1.0, 57.0, 4242.0, 100000.0] {
            let n = stats.normalize(v);
            let back = stats.denormalize(n);
            assert!((back.ln() - v.ln()).abs() < 1e-3, "{v} -> {n} -> {back}");
        }
    }

    #[test]
    fn normalize_clamps_outside_range() {
        let stats = NormalizationStats::fit(&[10.0, 1000.0]);
        assert_eq!(stats.normalize(1.0), 0.0);
        assert_eq!(stats.normalize(1e9), 1.0);
    }

    #[test]
    fn degenerate_fit_does_not_divide_by_zero() {
        let stats = NormalizationStats::fit(&[5.0, 5.0, 5.0]);
        assert!(stats.log_range() > 0.0);
        let n = stats.normalize(5.0);
        assert!(n.is_finite());
    }

    #[test]
    fn empty_fit_is_sane() {
        let stats = NormalizationStats::fit(&[]);
        assert!(stats.log_range() > 0.0);
    }

    #[test]
    fn loss_zero_at_target() {
        let stats = NormalizationStats::fit(&[1.0, 1e6]);
        let (loss, grad) = stats.loss_and_grad(0.4, 0.4);
        assert_eq!(loss, 0.0);
        assert_eq!(grad, 0.0);
    }

    #[test]
    fn loss_increases_with_distance() {
        let stats = NormalizationStats::fit(&[1.0, 1e6]);
        let (l1, _) = stats.loss_and_grad(0.5, 0.4);
        let (l2, _) = stats.loss_and_grad(0.7, 0.4);
        assert!(l2 > l1);
    }

    #[test]
    fn gradient_sign_points_toward_target() {
        let stats = NormalizationStats::fit(&[1.0, 1e6]);
        let (_, g_over) = stats.loss_and_grad(0.9, 0.2);
        let (_, g_under) = stats.loss_and_grad(0.1, 0.8);
        assert!(g_over > 0.0);
        assert!(g_under < 0.0);
    }

    #[test]
    fn qerror_matches_log_distance() {
        let stats = NormalizationStats::fit(&[1.0, (1e6_f64).exp()]);
        // log range is about 13.8; a normalized distance d corresponds to
        // q-error exp(d * range).
        let q = qerror_from_normalized(&stats, 0.6, 0.5);
        let expected = (0.1 * stats.log_range()).exp();
        assert!((q.ln() - expected.ln()).abs() < 0.05, "{q} vs {expected}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_within_range(vals in proptest::collection::vec(1.0f64..1e9, 2..50), idx in 0usize..50) {
            let stats = NormalizationStats::fit(&vals);
            let v = vals[idx % vals.len()];
            let back = stats.denormalize(stats.normalize(v));
            prop_assert!((back.ln() - v.ln()).abs() < 1e-2);
        }

        #[test]
        fn normalized_in_unit_interval(vals in proptest::collection::vec(1.0f64..1e9, 2..50), probe in 0.0f64..1e12) {
            let stats = NormalizationStats::fit(&vals);
            let n = stats.normalize(probe);
            prop_assert!((0.0..=1.0).contains(&n));
        }

        #[test]
        fn qerror_ge_one_from_normalized(a in 0.0f32..1.0, b in 0.0f32..1.0) {
            let stats = NormalizationStats::fit(&[1.0, 1e8]);
            prop_assert!(qerror_from_normalized(&stats, a, b) >= 1.0);
        }
    }
}
