//! Recurrent cells used by the representation layer (Section 4.2.2).
//!
//! The paper compares two joint networks for combining a node's embedded
//! features with its children's representations:
//!
//! * [`TreeLstmCell`] — the LSTM-style cell with a long-memory channel `G`
//!   and a representation channel `R` (the paper's main design), and
//! * [`TreeNnCell`] — a plain fully-connected cell ("tree-NN", the `TNN*`
//!   baselines of Table 6).
//!
//! Both cells share their weights across all nodes of all plans.

use crate::graph::{Graph, NodeId};
use crate::layers::{Linear, Weights};
use crate::params::ParamStore;
use rand::Rng;

/// Output of a representation cell: the long-memory channel `G` and the
/// representation `R` of the sub-plan rooted at the node.
#[derive(Debug, Clone, Copy)]
pub struct CellOutput {
    pub g: NodeId,
    pub r: NodeId,
}

/// The LSTM-style representation cell of Section 4.2.2.
///
/// ```text
/// G_{t-1} = (G^l + G^r) / 2          R_{t-1} = (R^l + R^r) / 2
/// f   = sigmoid(W_f  [R_{t-1}, x] + b_f)
/// k1  = sigmoid(W_k1 [R_{t-1}, x] + b_k1)
/// r   = tanh   (W_r  [R_{t-1}, x] + b_r)
/// k2  = sigmoid(W_k2 [R_{t-1}, x] + b_k2)
/// G_t = f ⊙ G_{t-1} + k1 ⊙ r
/// R_t = k2 ⊙ tanh(G_t)
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TreeLstmCell {
    forget: Linear,
    input_gate: Linear,
    candidate: Linear,
    output_gate: Linear,
    input_dim: usize,
    hidden_dim: usize,
}

impl TreeLstmCell {
    /// Register the cell's parameters.  `input_dim` is the size of the
    /// embedded node feature `x`, `hidden_dim` the size of `G`/`R`.
    pub fn new(store: &mut ParamStore, name: &str, input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        let joint = input_dim + hidden_dim;
        TreeLstmCell {
            forget: Linear::new(store, &format!("{name}.f"), joint, hidden_dim, rng),
            input_gate: Linear::new(store, &format!("{name}.k1"), joint, hidden_dim, rng),
            candidate: Linear::new(store, &format!("{name}.r"), joint, hidden_dim, rng),
            output_gate: Linear::new(store, &format!("{name}.k2"), joint, hidden_dim, rng),
            input_dim,
            hidden_dim,
        }
    }

    /// Size of the embedded feature input.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Size of the hidden state.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The four gate layers: forget, input, candidate, output.
    pub fn linears(&self) -> [Linear; 4] {
        [self.forget, self.input_gate, self.candidate, self.output_gate]
    }

    /// Zero child state for leaf nodes, shaped for a batch of `batch` columns.
    pub fn zero_state(&self, g: &mut Graph, batch: usize) -> CellOutput {
        let zg = g.zeros(self.hidden_dim, batch);
        let zr = g.zeros(self.hidden_dim, batch);
        CellOutput { g: zg, r: zr }
    }

    /// Apply the cell to an embedded feature `x` and the two children states.
    pub fn forward(
        &self,
        g: &mut Graph,
        weights: &impl Weights,
        x: NodeId,
        left: CellOutput,
        right: CellOutput,
    ) -> CellOutput {
        let g_prev = g.mean2(left.g, right.g);
        let r_prev = g.mean2(left.r, right.r);
        let joint = g.concat_rows(&[r_prev, x]);

        // All four gate pre-activations first, then one fused activation
        // sweep (`Graph::lstm_gates`; per-element training fallback keeps
        // backward intact and values bit-identical either way).
        let zf = self.forget.forward(g, weights, joint);
        let zk1 = self.input_gate.forward(g, weights, joint);
        let zr = self.candidate.forward(g, weights, joint);
        let zk2 = self.output_gate.forward(g, weights, joint);
        let (f, k1, r, k2) = g.lstm_gates(zf, zk1, zr, zk2);

        let keep = g.hadamard(f, g_prev);
        let write = g.hadamard(k1, r);
        let g_t = g.add(keep, write);
        let g_act = g.tanh(g_t);
        let r_t = g.hadamard(k2, g_act);
        CellOutput { g: g_t, r: r_t }
    }
}

/// A plain fully-connected representation cell (the `TNN*` baselines):
/// `R_t = relu(W [R^l, R^r, x] + b)`, `G_t = R_t`.
#[derive(Debug, Clone, Copy)]
pub struct TreeNnCell {
    layer: Linear,
    input_dim: usize,
    hidden_dim: usize,
}

impl TreeNnCell {
    /// Register the cell's parameters.
    pub fn new(store: &mut ParamStore, name: &str, input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        let joint = input_dim + 2 * hidden_dim;
        TreeNnCell { layer: Linear::new(store, &format!("{name}.fc"), joint, hidden_dim, rng), input_dim, hidden_dim }
    }

    /// Size of the embedded feature input.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Size of the hidden state.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The cell's one layer.
    pub fn linears(&self) -> [Linear; 1] {
        [self.layer]
    }

    /// Zero child state for leaf nodes.
    pub fn zero_state(&self, g: &mut Graph, batch: usize) -> CellOutput {
        let zg = g.zeros(self.hidden_dim, batch);
        let zr = g.zeros(self.hidden_dim, batch);
        CellOutput { g: zg, r: zr }
    }

    /// Apply the cell.
    pub fn forward(
        &self,
        g: &mut Graph,
        weights: &impl Weights,
        x: NodeId,
        left: CellOutput,
        right: CellOutput,
    ) -> CellOutput {
        let joint = g.concat_rows(&[left.r, right.r, x]);
        let r_t = self.layer.forward_relu(g, weights, joint);
        CellOutput { g: r_t, r: r_t }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::optim::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn leaf_input(dim: usize, seed: f32) -> Matrix {
        Matrix::column(&(0..dim).map(|i| ((i as f32) * 0.13 + seed).sin()).collect::<Vec<_>>())
    }

    #[test]
    fn lstm_cell_output_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cell = TreeLstmCell::new(&mut store, "cell", 6, 4, &mut rng);
        let mut g = Graph::new();
        let x = g.input(leaf_input(6, 0.5));
        let zero = cell.zero_state(&mut g, 1);
        let out = cell.forward(&mut g, &store, x, zero, zero);
        assert_eq!(g.value(out.r).rows(), 4);
        assert_eq!(g.value(out.g).rows(), 4);
        assert_eq!(cell.hidden_dim(), 4);
        assert_eq!(cell.input_dim(), 6);
    }

    #[test]
    fn lstm_cell_batched_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cell = TreeLstmCell::new(&mut store, "cell", 3, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(3, 4, vec![0.1; 12]));
        let zero = cell.zero_state(&mut g, 4);
        let out = cell.forward(&mut g, &store, x, zero, zero);
        assert_eq!(g.value(out.r).cols(), 4);
    }

    #[test]
    fn nn_cell_output_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cell = TreeNnCell::new(&mut store, "cell", 6, 4, &mut rng);
        let mut g = Graph::new();
        let x = g.input(leaf_input(6, 0.1));
        let zero = cell.zero_state(&mut g, 1);
        let out = cell.forward(&mut g, &store, x, zero, zero);
        assert_eq!(g.value(out.r).rows(), 4);
    }

    /// Build a depth-2 tree with shared cell weights, train against a scalar
    /// target and check the loss decreases — exercises weight sharing across
    /// tree positions, exactly how the representation layer uses the cell.
    #[test]
    fn tree_with_shared_weights_trains() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cell = TreeLstmCell::new(&mut store, "cell", 4, 6, &mut rng);
        let head = Linear::new(&mut store, "head", 6, 1, &mut rng);
        let target = 0.8f32;

        let forward = |store: &ParamStore| -> (Graph, NodeId) {
            let mut g = Graph::new();
            let zero = cell.zero_state(&mut g, 1);
            let xl = g.input(leaf_input(4, 0.2));
            let xr = g.input(leaf_input(4, 0.9));
            let xroot = g.input(leaf_input(4, 1.7));
            let left = cell.forward(&mut g, store, xl, zero, zero);
            let right = cell.forward(&mut g, store, xr, zero, zero);
            let root = cell.forward(&mut g, store, xroot, left, right);
            let out = head.forward_sigmoid(&mut g, store, root.r);
            (g, out)
        };

        let (g0, o0) = forward(&store);
        let before = (g0.value(o0).data()[0] - target).powi(2);

        let mut opt = Adam::new(0.01);
        for _ in 0..50 {
            store.zero_grad();
            let (mut g, out) = forward(&store);
            let v = g.value(out).data()[0];
            let seed = Matrix::from_vec(1, 1, vec![2.0 * (v - target)]);
            g.backward(out, seed, &mut store);
            opt.step(&mut store);
        }
        let (g1, o1) = forward(&store);
        let after = (g1.value(o1).data()[0] - target).powi(2);
        assert!(after < before * 0.5, "tree training did not converge: {before} -> {after}");
    }
}
