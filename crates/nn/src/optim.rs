//! The Adam optimizer over a [`ParamStore`].

use crate::params::ParamStore;

/// Exponential decay of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Exponential decay of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Denominator guard of the update.
const EPS: f32 = 1e-8;
/// Largest global gradient norm a step applies; a larger gradient is
/// scaled down to this norm first.
const CLIP_NORM: f32 = 5.0;

/// Adam optimizer (Kingma & Ba), the optimizer used by the paper's training
/// setup (learning rate 0.001), with betas (0.9, 0.999) and the gradient
/// clipped to a global norm of 5.
#[derive(Debug, Clone)]
pub struct Adam {
    pub learning_rate: f32,
    t: u64,
}

impl Adam {
    /// Create an Adam optimizer with the given learning rate.
    pub fn new(learning_rate: f32) -> Self {
        Adam { learning_rate, t: 0 }
    }

    /// Number of update steps taken so far (the bias-correction counter).
    pub(crate) fn step_count(&self) -> u64 {
        self.t
    }

    /// Restore the bias-correction counter of a checkpointed optimizer; the
    /// per-parameter moment estimates live in the `ParamStore` and are
    /// restored by [`crate::ParamStore::load_moments_from`].
    pub(crate) fn set_step_count(&mut self, t: u64) {
        self.t = t;
    }

    /// Apply one update step using the gradients currently accumulated in the
    /// store.  Does not zero the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        let norm = store.grad_norm();
        if norm > CLIP_NORM {
            store.scale_grads(CLIP_NORM / norm);
        }
        self.t += 1;
        let t = self.t as f32;
        let lr = self.learning_rate * (1.0 - BETA2.powf(t)).sqrt() / (1.0 - BETA1.powf(t));
        for p in store.params_mut() {
            let m = p.m.data_mut();
            let v = p.v.data_mut();
            let grad = p.grad.data();
            for ((val, (mi, vi)), &g) in
                p.value.data_mut().iter_mut().zip(m.iter_mut().zip(v.iter_mut())).zip(grad.iter())
            {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                *val -= lr * *mi / (vi.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::matrix::Matrix;

    /// Minimize f(w) = (w - 3)^2.
    fn minimize(opt: &mut Adam, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..iters {
            store.zero_grad();
            let mut g = Graph::new();
            let wp = g.param(&store, w);
            let val = g.value(wp).data()[0];
            g.backward(wp, Matrix::from_vec(1, 1, vec![2.0 * (val - 3.0)]), &mut store);
            opt.step(&mut store);
        }
        store.value(w).data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = minimize(&mut opt, 500);
        assert!((w - 3.0).abs() < 1e-2, "adam ended at {w}");
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step with gradient g, Adam moves by ~lr * sign(g).
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        store.accumulate_grad(w, &Matrix::from_vec(1, 1, vec![0.5]));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store);
        let v = store.value(w).data()[0];
        assert!(v < 0.0 && v > -0.2, "unexpected first adam step {v}");
    }

    #[test]
    fn adam_clips_the_global_gradient_norm() {
        // A gradient of global norm 50 over two tensors is scaled to norm 5
        // before the first moment sees it: m = (1 - β1) · g · 5 / ‖g‖.
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let b = store.add("b", Matrix::from_vec(1, 1, vec![0.0]));
        let (ga, gb) = ([30.0f32, 0.0], [-40.0f32]);
        store.accumulate_grad(a, &Matrix::from_vec(1, 2, ga.to_vec()));
        store.accumulate_grad(b, &Matrix::from_vec(1, 1, gb.to_vec()));
        Adam::new(0.1).step(&mut store);
        let want: Vec<f32> = ga.iter().chain(&gb).map(|g| 0.1 * g * 5.0 / 50.0).collect();
        let got: Vec<f32> = store.params().iter().flat_map(|p| p.m.data().to_vec()).collect();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-6 * w.abs().max(1.0), "first moment {got:?}, want {want:?}");
        }
    }
}
