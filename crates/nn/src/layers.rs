//! Trainable layers built on top of the autodiff graph, and the two places
//! a forward pass reads their weights from ([`Weights`]): the trainable
//! [`ParamStore`], or a served generation's [`PackedWeights`].

use crate::graph::{Graph, NodeId};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::simd;
use rand::Rng;

/// Where a forward pass reads a [`Linear`]'s weights.
///
/// * [`ParamStore`] — the param path: each weight is copied onto the tape
///   ([`Graph::param`]) and multiplied, then the bias is added in a second
///   op.  A training tape takes gradients through it.  Training, the
///   memo-free forwards and the per-node recursion read it.
/// * [`PackedWeights`] — a served generation's weights, packed once and
///   applied in place by one fused kernel ([`Graph::linear_packed`]).
///
/// Both give the same bits on the same dispatch path.
pub trait Weights {
    /// Record `W·x + b` for `layer` on `g`, `x` holding `layer.in_dim()`
    /// rows.
    fn linear(&self, g: &mut Graph, layer: &Linear, x: NodeId) -> NodeId;
}

impl Weights for ParamStore {
    fn linear(&self, g: &mut Graph, layer: &Linear, x: NodeId) -> NodeId {
        debug_assert_eq!(g.value(x).rows(), layer.in_dim, "Linear input dimension mismatch");
        let w = g.param(self, layer.w);
        let b = g.param(self, layer.b);
        let z = g.matmul(w, x);
        g.add_bias(z, b)
    }
}

impl Weights for PackedWeights {
    fn linear(&self, g: &mut Graph, layer: &Linear, x: NodeId) -> NodeId {
        g.linear_packed(self.get(layer), x)
    }
}

/// One [`Linear`]'s weights packed for [`simd::linear_packed_f32`]: `W` in
/// 8-row panels ([`simd::pack_rows_f32`]) and `b` zero-padded to the panel
/// height.
#[derive(Debug, Clone)]
pub struct PackedLinear {
    panels: Vec<f32>,
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl PackedLinear {
    /// Pack an `out_dim x in_dim` weight matrix and its `out_dim x 1` bias.
    ///
    /// # Panics
    /// Panics if `b` is not a column as tall as `w`.
    pub fn new(w: &Matrix, b: &Matrix) -> Self {
        let (out_dim, in_dim) = (w.rows(), w.cols());
        assert_eq!((b.rows(), b.cols()), (out_dim, 1), "PackedLinear: the bias must be an out_dim x 1 column");
        let mut bias = b.data().to_vec();
        bias.resize(out_dim.next_multiple_of(simd::GEMM_NR), 0.0);
        PackedLinear { panels: simd::pack_rows_f32(w.data(), out_dim, in_dim), bias, in_dim, out_dim }
    }

    pub(crate) fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `out = W·x + b` for `x` holding `in_dim x n` floats row-major, into
    /// `out` (`out_dim x n`, overwritten).
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong length.
    pub fn apply(&self, x: &[f32], n: usize, out: &mut [f32]) {
        simd::linear_packed_f32(&self.panels, &self.bias, self.out_dim, self.in_dim, x, n, out);
    }
}

/// A model's [`Linear`] layers, each packed once ([`PackedLinear`]) from
/// the store it was trained in, and looked up by layer.  Nothing refills
/// or invalidates it: whoever serves a set of weights builds their packed
/// copy beside them and drops both together.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    /// Indexed by each layer's weight [`ParamId`].
    layers: Vec<Option<PackedLinear>>,
}

impl PackedWeights {
    /// Pack `layers`, whose weights live in `store`.
    pub fn new(store: &ParamStore, layers: impl IntoIterator<Item = Linear>) -> Self {
        let mut packed = PackedWeights { layers: vec![None; store.len()] };
        for layer in layers {
            packed.layers[layer.w.0] = Some(PackedLinear::new(store.value(layer.w), store.value(layer.b)));
        }
        packed
    }

    /// The packed copy of `layer`.
    ///
    /// # Panics
    /// Panics if `layer` was not packed.
    fn get(&self, layer: &Linear) -> &PackedLinear {
        self.layers.get(layer.w.0).and_then(Option::as_ref).expect("layer was not packed")
    }
}

/// A fully-connected layer `y = W x + b`.
///
/// The weights live in a [`ParamStore`]; a `Linear` value is just the pair of
/// parameter ids plus the layer shape, so it can be applied inside any number
/// of per-plan graphs, reading its weights from the store or from a packed
/// copy of it ([`Weights`]).
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
    pub fn forward(&self, g: &mut Graph, weights: &impl Weights, x: NodeId) -> NodeId {
        weights.linear(g, self, x)
    }

    /// Apply the layer followed by a ReLU.
    pub fn forward_relu(&self, g: &mut Graph, weights: &impl Weights, x: NodeId) -> NodeId {
        let z = self.forward(g, weights, x);
        g.relu(z)
    }

    /// Apply the layer followed by a sigmoid.
    pub fn forward_sigmoid(&self, g: &mut Graph, weights: &impl Weights, x: NodeId) -> NodeId {
        let z = self.forward(g, weights, x);
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
    pub fn forward(&self, g: &mut Graph, weights: &impl Weights, x: NodeId) -> NodeId {
        let h = self.l1.forward_relu(g, weights, x);
        self.l2.forward(g, weights, h)
    }

    /// Forward pass with a sigmoid output (the estimation layer of §4.2.3).
    pub fn forward_sigmoid(&self, g: &mut Graph, weights: &impl Weights, x: NodeId) -> NodeId {
        let z = self.forward(g, weights, x);
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
        use crate::optim::Adam;
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

        let mut opt = Adam::new(0.05);
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

    /// A two-layer MLP read from its store and from its packed copy gives
    /// the same bits at batch widths across the kernel's tile widths, and
    /// the packed pass records no parameter on its tape.
    #[test]
    fn packed_weights_give_the_param_path_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let mlp = Mlp2::new(&mut store, "mlp", 13, 21, 3, &mut rng);
        let packed = PackedWeights::new(&store, [mlp.l1, mlp.l2]);
        for n in [1usize, 2, 5, 9, 64] {
            let input = Matrix::from_vec(13, n, (0..13 * n).map(|i| ((i as f32) * 0.37).sin()).collect());
            let mut by_store = Graph::inference();
            let x = by_store.input(input.clone());
            let want = mlp.forward_sigmoid(&mut by_store, &store, x);
            assert_eq!(by_store.params_recorded(), 4);
            let mut by_pack = Graph::inference();
            let x = by_pack.input(input);
            let got = mlp.forward_sigmoid(&mut by_pack, &packed, x);
            assert_eq!(by_pack.params_recorded(), 0, "the packed pass copied a weight onto its tape");
            let bits = |g: &Graph, id| g.value(id).data().iter().map(|v: &f32| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&by_pack, got), bits(&by_store, want), "packed and param paths diverge at n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "packed weights take no gradient")]
    fn packed_weights_refuse_a_training_tape() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 4, 3, &mut rng);
        let packed = PackedWeights::new(&store, [layer]);
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[1.0, 2.0, 3.0, 4.0]));
        layer.forward(&mut g, &packed, x);
    }

    #[test]
    #[should_panic(expected = "layer was not packed")]
    fn an_unpacked_layer_is_refused() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let packed_layer = Linear::new(&mut store, "a", 4, 3, &mut rng);
        let other = Linear::new(&mut store, "b", 4, 3, &mut rng);
        let packed = PackedWeights::new(&store, [packed_layer]);
        let mut g = Graph::inference();
        let x = g.input(Matrix::column(&[1.0, 2.0, 3.0, 4.0]));
        other.forward(&mut g, &packed, x);
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
