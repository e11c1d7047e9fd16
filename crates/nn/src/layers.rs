//! Trainable layers built on top of the autodiff graph.

use crate::graph::{Graph, NodeId};
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A fully-connected layer `y = W x + b`.
///
/// The weights live in a [`ParamStore`]; a `Linear` value is just the pair of
/// parameter ids plus the layer shape, so it can be applied inside any number
/// of per-plan graphs.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Register a new layer's parameters in `store`.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = store.add_xavier(format!("{name}.w"), out_dim, in_dim, rng);
        let b = store.add_zeros(format!("{name}.b"), out_dim, 1);
        Linear { w, b, in_dim, out_dim }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Apply the affine map to a node holding an `in_dim x batch` matrix.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        debug_assert_eq!(g.value(x).rows(), self.in_dim, "Linear input dimension mismatch");
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let z = g.matmul(w, x);
        g.add_bias(z, b)
    }

    /// Apply the layer followed by a ReLU.
    pub fn forward_relu(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let z = self.forward(g, store, x);
        g.relu(z)
    }

    /// Apply the layer followed by a sigmoid.
    pub fn forward_sigmoid(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let z = self.forward(g, store, x);
        g.sigmoid(z)
    }
}

/// A two-layer MLP with ReLU hidden activation: `out = W2 relu(W1 x + b1) + b2`.
#[derive(Debug, Clone, Copy)]
pub struct Mlp2 {
    pub l1: Linear,
    pub l2: Linear,
}

impl Mlp2 {
    /// Register the MLP's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Mlp2 {
            l1: Linear::new(store, &format!("{name}.l1"), in_dim, hidden, rng),
            l2: Linear::new(store, &format!("{name}.l2"), hidden, out_dim, rng),
        }
    }

    /// Forward pass (linear output, no final activation).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let h = self.l1.forward_relu(g, store, x);
        self.l2.forward(g, store, h)
    }

    /// Forward pass with a sigmoid output (the estimation layer of §4.2.3).
    pub fn forward_sigmoid(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let z = self.forward(g, store, x);
        g.sigmoid(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 4, 3, &mut rng);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[1.0, 2.0, 3.0, 4.0]));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).rows(), 3);
        assert_eq!(g.value(y).cols(), 1);
    }

    #[test]
    fn linear_batched_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 2, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(2, 3, vec![1.0; 6]));
        let y = layer.forward_relu(&mut g, &store, x);
        assert_eq!(g.value(y).cols(), 3);
    }

    #[test]
    fn mlp_trains_toward_target() {
        // One gradient step must reduce the squared error on a fixed sample.
        use crate::optim::{Optimizer, Sgd};
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mlp = Mlp2::new(&mut store, "mlp", 3, 8, 1, &mut rng);
        let input = Matrix::column(&[0.2, -0.4, 0.9]);
        let target = 0.7f32;

        let loss_of = |store: &ParamStore| {
            let mut g = Graph::new();
            let x = g.input(input.clone());
            let y = mlp.forward_sigmoid(&mut g, store, x);
            (g.value(y).data()[0] - target).powi(2)
        };
        let before = loss_of(&store);

        let mut opt = Sgd::new(0.5);
        for _ in 0..20 {
            store.zero_grad();
            let mut g = Graph::new();
            let x = g.input(input.clone());
            let y = mlp.forward_sigmoid(&mut g, &store, x);
            let out = g.value(y).data()[0];
            let seed = Matrix::from_vec(1, 1, vec![2.0 * (out - target)]);
            g.backward(y, seed, &mut store);
            opt.step(&mut store);
        }
        let after = loss_of(&store);
        assert!(after < before, "training did not reduce loss: {before} -> {after}");
    }

    #[test]
    fn sigmoid_output_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp2::new(&mut store, "mlp", 5, 4, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[10.0, -10.0, 3.0, 0.0, 5.0]));
        let y = mlp.forward_sigmoid(&mut g, &store, x);
        for &v in g.value(y).data() {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
