//! Reverse-mode automatic differentiation over a tape of matrix operations.
//!
//! Every query plan produces its own dynamically-shaped computation graph
//! (the tree model mirrors the plan tree), so the tape is rebuilt per forward
//! pass: cheap to construct, trivially correct to differentiate.  Parameters
//! live in a [`ParamStore`] outside the graph and receive accumulated
//! gradients when [`Graph::backward`] runs.
//!
//! # Allocation discipline
//!
//! The tape is built for two very different workloads:
//!
//! * **Inference** ([`Graph::inference`]) — the estimator sits inside an
//!   optimizer loop, so the forward pass must not pay for training
//!   machinery.  No gradient matrix is ever allocated (gradients are
//!   `Option` and stay `None`), no operation metadata is recorded, and
//!   [`Graph::backward`] panics if called.
//! * **Training** ([`Graph::new`]) — gradients are still *lazy*: a node's
//!   gradient matrix is materialized only when the backward sweep first
//!   reaches it, so nodes outside the loss cone never allocate one.
//!
//! In both modes, node values are computed with the `_into` kernels of
//! [`Matrix`] into buffers drawn from an internal pool; [`Graph::reset`]
//! clears the tape and recycles the buffers.  Constants are pooled too:
//! [`Graph::zeros`] and [`Graph::input_columns`] draw their buffers from the
//! pool, so a warm f32 inference pass built from them and the op methods
//! makes no tape allocation.  [`Graph::input`] copies a caller-owned matrix
//! into a pooled buffer once the pool is warm.  Gradients are not
//! pool-drawn, so `reset` trims the pool to the most buffers (values plus
//! gradients) any single pass has held: a reused tape holds at most one
//! pass's high-water mark of buffers, however many passes it serves.  The
//! backward pass multiplies by transposed operands with
//! [`Matrix::matmul_nt_into`]-style kernels instead of materializing
//! transposes.

use crate::layers::PackedLinear;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::simd;

/// Handle to a node (an intermediate value) in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Constant input (feature vector); receives no gradient.  Also used for
    /// every node of an inference-mode graph, where ops are never replayed.
    Input,
    /// Copy of a trainable parameter; gradient is accumulated into the store.
    Param(ParamId),
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    /// `x + bias` where `bias` is a column vector broadcast over columns.
    AddBias(NodeId, NodeId),
    Hadamard(NodeId, NodeId),
    EMin(NodeId, NodeId),
    EMax(NodeId, NodeId),
    /// `(a + b) / 2` — the children-averaging of the representation layer.
    Mean2(NodeId, NodeId),
    Relu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Scale(NodeId, f32),
    ConcatRows(Vec<NodeId>),
    /// Output column `j` is column `sources[j].1` of node `sources[j].0`.
    /// The batched gather that assembles children-state matrices from the
    /// per-level cell outputs without one tape node per column.
    GatherCols(Vec<(NodeId, usize)>),
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    /// Materialized lazily by the backward sweep; `None` outside it.
    grad: Option<Matrix>,
    op: Op,
}

/// A tape of matrix operations supporting a single backward pass.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    inference: bool,
    /// Recycled value/grad buffers, refilled by [`Graph::reset`].
    pool: Vec<Vec<f32>>,
    /// Most buffers (values plus gradients) any single pass has held: the
    /// cap [`Graph::reset`] trims `pool` to.
    pool_limit: usize,
    /// Parameter id -> already-recorded node, so a tape copies each weight
    /// matrix once per forward pass no matter how many times the layer is
    /// applied (the shared-weight tree cell applies each one per node).
    param_cache: Vec<(ParamId, NodeId)>,
}

impl Graph {
    /// Create an empty training-mode graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Create an empty inference-mode graph: forward values only, no
    /// gradient bookkeeping of any kind.
    pub fn inference() -> Self {
        Graph { inference: true, ..Graph::default() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear the tape for a fresh forward pass, recycling the buffers the
    /// previous pass held.  After a few passes the pool is warm and node
    /// values stop hitting the allocator.  The pool keeps at most as many
    /// buffers as the largest single pass held, so buffers that were never
    /// drawn from it (gradients) cannot grow it without bound.
    pub fn reset(&mut self) {
        let mut held = self.nodes.len();
        for g in self.nodes.iter_mut().filter_map(|n| n.grad.take()) {
            self.pool.push(g.into_vec());
            held += 1;
        }
        // Values go on top, in reverse: the next pass draws in node order,
        // so a pass shaped like this one gets every buffer back at the size
        // it already has.
        for node in self.nodes.drain(..).rev() {
            self.pool.push(node.value.into_vec());
        }
        self.pool_limit = self.pool_limit.max(held);
        let excess = self.pool.len().saturating_sub(self.pool_limit);
        self.pool.drain(..excess);
        self.param_cache.clear();
    }

    fn take_buffer(&mut self) -> Vec<f32> {
        self.pool.pop().unwrap_or_default()
    }

    /// A `rows x cols` matrix backed by a recycled buffer if any.  Contents
    /// are unspecified: every op kernel writing into it either overwrites
    /// all elements or (matmul) zero-fills before accumulating.
    fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        let buf = self.take_buffer();
        Matrix::from_pooled_uninit(rows, cols, buf)
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        // Inference graphs never replay ops, so no metadata is kept.
        let op = if self.inference { Op::Input } else { op };
        self.nodes.push(Node { value, grad: None, op });
        NodeId(self.nodes.len() - 1)
    }

    /// Build a node-list op payload, skipping the `Vec` allocation entirely
    /// on inference tapes (where `push` discards the op anyway).
    fn list_op(&self, make: impl FnOnce() -> Op) -> Op {
        if self.inference {
            Op::Input
        } else {
            make()
        }
    }

    /// Current forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Record a constant input.  A warm tape copies it into a pooled buffer
    /// (a cold one adopts it), so the caller's allocation never joins the
    /// pool; still, it is one allocation per pass, which is why hot paths use
    /// [`Graph::zeros`] or [`Graph::input_columns`] instead.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        let value = match self.pool.pop() {
            Some(buf) => Matrix::from_pooled_copy(&value, buf),
            None => value,
        };
        self.push(value, Op::Input)
    }

    /// Record a constant all-zero `rows x cols` input (leaf child states,
    /// zero features), backed by a pooled buffer.  Pooled buffers hold stale
    /// values, so the fill is explicit.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> NodeId {
        let mut out = self.alloc(rows, cols);
        out.data_mut().fill(0.0);
        self.push(out, Op::Input)
    }

    /// Record (a copy of) a trainable parameter.  Repeated requests for the
    /// same parameter on one tape return the already-recorded node: values
    /// cannot change mid-forward, and gradient accumulation through a shared
    /// node is identical to summing over separate copies.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if let Some(&(_, node)) = self.param_cache.iter().find(|(pid, _)| *pid == id) {
            return node;
        }
        let buf = self.take_buffer();
        let value = Matrix::from_pooled_copy(store.value(id), buf);
        let node = self.push(value, Op::Param(id));
        self.param_cache.push((id, node));
        node
    }

    /// Parameters recorded on this tape since the last [`Graph::reset`]
    /// (each counted once, however often it was applied).
    pub fn params_recorded(&self) -> usize {
        self.param_cache.len()
    }

    /// `W·x + b` over packed weights ([`PackedLinear`]) as one fused kernel
    /// ([`simd::linear_packed_f32`]): no weight is copied onto the tape, the
    /// input is not repacked and no bias pass follows.  Its bits are those
    /// of [`Graph::param`], [`Graph::matmul`] and [`Graph::add_bias`] on the
    /// same dispatch path.
    ///
    /// # Panics
    /// Panics on a training tape, since packed weights take no gradient, or
    /// if `x` does not hold the layer's input width in rows.
    pub fn linear_packed(&mut self, layer: &PackedLinear, x: NodeId) -> NodeId {
        assert!(self.inference, "packed weights take no gradient: train through the ParamStore");
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        assert_eq!(rows, layer.in_dim(), "linear_packed: input has {rows} rows, the layer takes {}", layer.in_dim());
        let mut out = self.alloc(layer.out_dim(), cols);
        layer.apply(self.nodes[x.0].value.data(), cols, out.data_mut());
        self.push(out, Op::Input)
    }

    /// Matrix product (cache-blocked kernel).
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::MatMul(a, b))
    }

    /// The four LSTM gate activations — sigmoid over the forget / input /
    /// output pre-activations, tanh over the candidate — as one fused
    /// operation.  On an inference tape all four output buffers are filled
    /// in a single [`simd::lstm_gate_sweep`] pass instead of four separate
    /// `map_into` column walks.  The sweep is runtime-dispatched: on the
    /// scalar path it applies the exact per-element formulas of
    /// [`Graph::sigmoid`] / [`Graph::tanh`] (bit-identical to the unfused
    /// ops); on the AVX2 path it runs the 8-wide FMA rational activations
    /// (`simd::tanh_fma` / `simd::sigmoid_fma`, abs error vs. libm < 1e-5 —
    /// inside the f32 tier's tolerance contract, see `docs/perf.md`).
    /// Training-mode tapes fall back to the four individual libm ops on
    /// every path, keeping the backward pass intact.
    pub fn lstm_gates(&mut self, zf: NodeId, zk1: NodeId, zr: NodeId, zk2: NodeId) -> (NodeId, NodeId, NodeId, NodeId) {
        if !self.inference {
            return (self.sigmoid(zf), self.sigmoid(zk1), self.tanh(zr), self.sigmoid(zk2));
        }
        for z in [zf, zk1, zr, zk2] {
            let buf = self.take_buffer();
            let value = Matrix::from_pooled_copy(&self.nodes[z.0].value, buf);
            self.push(value, Op::Input);
        }
        let n = self.nodes.len();
        match &mut self.nodes[n - 4..] {
            [nf, nk1, nr, nk2] => simd::lstm_gate_sweep(
                nf.value.data_mut(),
                nk1.value.data_mut(),
                nr.value.data_mut(),
                nk2.value.data_mut(),
            ),
            _ => unreachable!("four gate nodes were just pushed"),
        }
        (NodeId(n - 4), NodeId(n - 3), NodeId(n - 2), NodeId(n - 1))
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.add_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::Add(a, b))
    }

    /// Add a column-vector bias, broadcast over all columns of `x`.  One
    /// fused [`Matrix::add_bias_into`] pass into a recycled buffer (no
    /// copy-then-add double sweep, no per-call allocation) — this sits
    /// directly after every GEMM in the forward path.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let src = &self.nodes[x.0].value;
        let (rows, cols) = (src.rows(), src.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.add_bias_into(&self.nodes[bias.0].value, &mut out);
        self.push(out, Op::AddBias(x, bias))
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.hadamard_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::Hadamard(a, b))
    }

    /// Element-wise minimum — the AND pooling of the predicate tree (§4.2.1).
    pub fn emin(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.emin_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::EMin(a, b))
    }

    /// Element-wise maximum — the OR pooling of the predicate tree (§4.2.1).
    pub fn emax(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.emax_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::EMax(a, b))
    }

    /// `(a + b) / 2` — averaging of the two children representations (§4.2.2).
    pub fn mean2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.add_into(&self.nodes[b.0].value, &mut out);
        out.scale_inplace(0.5);
        self.push(out, Op::Mean2(a, b))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| v.max(0.0), &mut out);
        self.push(out, Op::Relu(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| 1.0 / (1.0 + (-v).exp()), &mut out);
        self.push(out, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| v.tanh(), &mut out);
        self.push(out, Op::Tanh(x))
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| v * s, &mut out);
        self.push(out, Op::Scale(x, s))
    }

    /// Vertical concatenation of feature vectors.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows needs at least one node");
        let cols = self.nodes[parts[0].0].value.cols();
        let rows: usize = parts.iter().map(|id| self.nodes[id.0].value.rows()).sum();
        let mut out = self.alloc(rows, cols);
        let mut offset = 0;
        for id in parts {
            let p = &self.nodes[id.0].value;
            assert_eq!(p.cols(), cols, "concat_rows requires equal column counts");
            out.data_mut()[offset..offset + p.len()].copy_from_slice(p.data());
            offset += p.len();
        }
        let op = self.list_op(|| Op::ConcatRows(parts.to_vec()));
        self.push(out, op)
    }

    /// Gather one column per entry of `sources` into a new matrix: output
    /// column `j` is column `sources[j].1` of node `sources[j].0`.  All
    /// source nodes must share a row count.  One tape node assembles a whole
    /// children-state batch.
    ///
    /// # Panics
    /// Panics if `sources` is empty, a column index is out of range, or the
    /// row counts differ.
    pub fn gather_cols(&mut self, sources: &[(NodeId, usize)]) -> NodeId {
        assert!(!sources.is_empty(), "gather_cols needs at least one column");
        let rows = self.nodes[sources[0].0 .0].value.rows();
        let n = sources.len();
        let mut out = self.alloc(rows, n);
        for (j, &(src, c)) in sources.iter().enumerate() {
            let v = &self.nodes[src.0].value;
            assert_eq!(v.rows(), rows, "gather_cols requires equal row counts");
            assert!(c < v.cols(), "gather_cols column out of range");
            let (vc, oc) = (v.cols(), n);
            for r in 0..rows {
                out.data_mut()[r * oc + j] = v.data()[r * vc + c];
            }
        }
        let op = self.list_op(|| Op::GatherCols(sources.to_vec()));
        self.push(out, op)
    }

    /// Copy column `col` of a node's value into `out` — the
    /// state-extraction half of subtree memoization: after the heads sweep,
    /// each new sub-plan's `G`/`R` column is written off the tape straight
    /// into its cache slot, with no tape node and no allocation.
    ///
    /// # Panics
    /// Panics if `col` is out of range or `out`'s length differs from the
    /// node's row count.
    pub fn copy_column(&self, id: NodeId, col: usize, out: &mut [f32]) {
        let v = &self.nodes[id.0].value;
        assert!(col < v.cols(), "copy_column out of range");
        assert_eq!(out.len(), v.rows(), "copy_column row-count mismatch");
        for (o, &x) in out.iter_mut().zip(v.data()[col..].iter().step_by(v.cols())) {
            *o = x;
        }
    }

    /// Record an input assembled from column slices (all of length `rows`) —
    /// the state-injection half of subtree memoization: cached `G`/`R`
    /// vectors re-enter a fresh tape as one batched constant, drawn from the
    /// buffer pool like every other node value.
    ///
    /// # Panics
    /// Panics if `columns` is empty or a slice's length differs from `rows`.
    pub fn input_columns(&mut self, rows: usize, columns: &[&[f32]]) -> NodeId {
        assert!(!columns.is_empty(), "input_columns needs at least one column");
        let n = columns.len();
        let mut out = self.alloc(rows, n);
        for (j, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), rows, "input_columns row-count mismatch");
            for (r, &v) in col.iter().enumerate() {
                out.data_mut()[r * n + j] = v;
            }
        }
        self.push(out, Op::Input)
    }

    /// Backward pass: seed `root` with `seed_grad` (dLoss/dRoot), propagate
    /// gradients to all ancestors and accumulate parameter gradients into
    /// `store`.
    ///
    /// # Panics
    /// Panics on an inference-mode graph or if the seed gradient shape does
    /// not match the root value shape.
    pub fn backward(&mut self, root: NodeId, seed_grad: Matrix, store: &mut ParamStore) {
        self.backward_multi(vec![(root, seed_grad)], store);
    }

    /// Backward pass seeded at several roots at once (e.g. the cost and
    /// cardinality heads of a multitask forward), sweeping the tape a single
    /// time.  Gradients are consumed by the sweep: each node's gradient is
    /// taken when processed, so repeated calls propagate only their own
    /// seeds and never double-count earlier contributions.
    ///
    /// # Panics
    /// Panics on an inference-mode graph or any seed shape mismatch.
    pub fn backward_multi(&mut self, seeds: Vec<(NodeId, Matrix)>, store: &mut ParamStore) {
        assert!(!self.inference, "backward called on an inference-mode graph");
        if seeds.is_empty() {
            return;
        }
        let mut highest = 0usize;
        for (root, seed) in seeds {
            let value = &self.nodes[root.0].value;
            assert_eq!(seed.rows(), value.rows(), "seed grad row mismatch");
            assert_eq!(seed.cols(), value.cols(), "seed grad col mismatch");
            accumulate(&mut self.nodes[root.0].grad, seed);
            highest = highest.max(root.0);
        }

        for i in (0..=highest).rev() {
            let Some(grad) = self.nodes[i].grad.take() else { continue };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Input => {}
                Op::Param(pid) => store.accumulate_grad(pid, &grad),
                Op::MatMul(a, b) => {
                    // dA = dC · Bᵀ and dB = Aᵀ · dC via the transposed
                    // kernels — no transpose matrix is materialized.
                    let da = grad.matmul_nt(&self.nodes[b.0].value);
                    let db = self.nodes[a.0].value.matmul_tn(&grad);
                    accumulate(&mut self.nodes[a.0].grad, da);
                    accumulate(&mut self.nodes[b.0].grad, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut self.nodes[a.0].grad, grad.clone());
                    accumulate(&mut self.nodes[b.0].grad, grad);
                }
                Op::AddBias(x, bias) => {
                    let db = grad.sum_cols();
                    accumulate(&mut self.nodes[bias.0].grad, db);
                    accumulate(&mut self.nodes[x.0].grad, grad);
                }
                Op::Hadamard(a, b) => {
                    let mut da = grad.clone();
                    da.hadamard_assign(&self.nodes[b.0].value);
                    let mut db = grad;
                    db.hadamard_assign(&self.nodes[a.0].value);
                    accumulate(&mut self.nodes[a.0].grad, da);
                    accumulate(&mut self.nodes[b.0].grad, db);
                }
                ref op @ (Op::EMin(a, b) | Op::EMax(a, b)) => {
                    let take_a_on_min = matches!(op, Op::EMin(_, _));
                    let va = &self.nodes[a.0].value;
                    let vb = &self.nodes[b.0].value;
                    let mut da = Matrix::zeros(va.rows(), va.cols());
                    let mut db = Matrix::zeros(vb.rows(), vb.cols());
                    for idx in 0..grad.len() {
                        let g = grad.data()[idx];
                        let pick_a = if take_a_on_min {
                            va.data()[idx] <= vb.data()[idx]
                        } else {
                            va.data()[idx] >= vb.data()[idx]
                        };
                        if pick_a {
                            da.data_mut()[idx] = g;
                        } else {
                            db.data_mut()[idx] = g;
                        }
                    }
                    accumulate(&mut self.nodes[a.0].grad, da);
                    accumulate(&mut self.nodes[b.0].grad, db);
                }
                Op::Mean2(a, b) => {
                    let mut half = grad;
                    half.scale_inplace(0.5);
                    accumulate(&mut self.nodes[a.0].grad, half.clone());
                    accumulate(&mut self.nodes[b.0].grad, half);
                }
                Op::Relu(x) => {
                    let mut dx = grad;
                    for (g, &v) in dx.data_mut().iter_mut().zip(self.nodes[x.0].value.data().iter()) {
                        if v <= 0.0 {
                            *g = 0.0;
                        }
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::Sigmoid(x) => {
                    let mut dx = grad;
                    for (g, &s) in dx.data_mut().iter_mut().zip(self.nodes[i].value.data().iter()) {
                        *g *= s * (1.0 - s);
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::Tanh(x) => {
                    let mut dx = grad;
                    for (g, &t) in dx.data_mut().iter_mut().zip(self.nodes[i].value.data().iter()) {
                        *g *= 1.0 - t * t;
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::Scale(x, s) => {
                    let mut dx = grad;
                    dx.scale_inplace(s);
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for pid in parts {
                        let rows = self.nodes[pid.0].value.rows();
                        let piece = grad.slice_rows(offset, rows);
                        accumulate(&mut self.nodes[pid.0].grad, piece);
                        offset += rows;
                    }
                }
                Op::GatherCols(sources) => {
                    for (j, (src, c)) in sources.into_iter().enumerate() {
                        let parent = &self.nodes[src.0].value;
                        let (rows, cols) = (parent.rows(), parent.cols());
                        // Scatter-add column j of the gradient into column c
                        // of the source's (lazily materialized) gradient.
                        let slot = &mut self.nodes[src.0].grad;
                        let dst = slot.get_or_insert_with(|| Matrix::zeros(rows, cols));
                        for r in 0..rows {
                            let v = grad.get(r, j);
                            if v != 0.0 {
                                dst.data_mut()[r * cols + c] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Accumulate a gradient contribution into a lazily-materialized slot: the
/// first contribution moves in without any zero-matrix allocation.
fn accumulate(slot: &mut Option<Matrix>, contribution: Matrix) {
    match slot {
        Some(g) => g.add_assign(&contribution),
        None => *slot = Some(contribution),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check of a scalar function of a parameter.
    fn grad_check(
        build: impl Fn(&mut Graph, &ParamStore) -> NodeId,
        store: &mut ParamStore,
        pid: ParamId,
        eps: f32,
        tol: f32,
    ) {
        // Analytical gradient.
        store.zero_grad();
        let mut g = Graph::new();
        let out = build(&mut g, store);
        assert_eq!(g.value(out).len(), 1, "grad_check requires a scalar output");
        g.backward(out, Matrix::from_vec(1, 1, vec![1.0]), store);
        let analytic = store.grad(pid).clone();

        // Numerical gradient.
        let n = store.value(pid).len();
        for i in 0..n {
            let orig = store.value(pid).data()[i];
            store.value_mut(pid).data_mut()[i] = orig + eps;
            let mut g1 = Graph::new();
            let o1 = build(&mut g1, store);
            let f1 = g1.value(o1).data()[0];
            store.value_mut(pid).data_mut()[i] = orig - eps;
            let mut g2 = Graph::new();
            let o2 = build(&mut g2, store);
            let f2 = g2.value(o2).data()[0];
            store.value_mut(pid).data_mut()[i] = orig;
            let numeric = (f1 - f2) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!((a - numeric).abs() < tol, "gradient mismatch at {}: analytic {} vs numeric {}", i, a, numeric);
        }
    }

    #[test]
    fn matmul_forward_and_backward() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[1.0, 4.0]));
        let wp = g.param(&store, w);
        let y = g.matmul(wp, x);
        assert_eq!(g.value(y).data()[0], 14.0);
        g.backward(y, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
        // dy/dw = x^T = [1, 4]
        assert_eq!(store.grad(w), &Matrix::from_vec(1, 2, vec![1.0, 4.0]));
    }

    #[test]
    fn gradient_check_linear_sigmoid() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.5]));
        grad_check(
            |g, s| {
                let x = g.input(Matrix::column(&[0.7, -1.3, 0.4]));
                let wp = g.param(s, w);
                let z = g.matmul(wp, x);
                g.sigmoid(z)
            },
            &mut store,
            w,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn gradient_check_relu_tanh_chain() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.4, 0.1, -0.3, 0.8]));
        let v = store.add("v", Matrix::from_vec(1, 2, vec![0.5, -0.7]));
        for pid in [w, v] {
            grad_check(
                |g, s| {
                    let x = g.input(Matrix::column(&[1.2, -0.4]));
                    let wp = g.param(s, w);
                    let vp = g.param(s, v);
                    let h = g.matmul(wp, x);
                    let h = g.relu(h);
                    let h = g.tanh(h);
                    g.matmul(vp, h)
                },
                &mut store,
                pid,
                1e-3,
                1e-2,
            );
        }
    }

    #[test]
    fn gradient_check_min_max_pooling() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![0.9, -0.2]));
        grad_check(
            |g, s| {
                let a = g.input(Matrix::column(&[0.3, 0.8]));
                let b = g.input(Matrix::column(&[0.5, 0.2]));
                let mn = g.emin(a, b);
                let mx = g.emax(a, b);
                let both = g.mean2(mn, mx);
                let wp = g.param(s, w);
                g.matmul(wp, both)
            },
            &mut store,
            w,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn gradient_check_concat_and_bias() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 4, vec![0.3, -0.1, 0.6, 0.2]));
        let b = store.add("b", Matrix::column(&[0.05]));
        for pid in [w, b] {
            grad_check(
                |g, s| {
                    let x1 = g.input(Matrix::column(&[0.4, -0.9]));
                    let x2 = g.input(Matrix::column(&[1.1, 0.3]));
                    let x = g.concat_rows(&[x1, x2]);
                    let wp = g.param(s, w);
                    let bp = g.param(s, b);
                    let z = g.matmul(wp, x);
                    let z = g.add_bias(z, bp);
                    g.tanh(z)
                },
                &mut store,
                pid,
                1e-3,
                1e-2,
            );
        }
    }

    #[test]
    fn hadamard_and_scale_backward() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::column(&[2.0, 3.0]));
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[5.0, 7.0]));
        let wp = g.param(&store, w);
        let h = g.hadamard(wp, x);
        let h = g.scale(h, 2.0);
        let ones = g.input(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let y = g.matmul(ones, h);
        g.backward(y, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
        assert_eq!(store.grad(w), &Matrix::column(&[10.0, 14.0]));
    }

    #[test]
    fn extract_and_inject_round_trip() {
        let mut g = Graph::inference();
        let m = g.input(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let mut c0 = [0.0; 2];
        let mut c2 = [0.0; 2];
        g.copy_column(m, 0, &mut c0);
        g.copy_column(m, 2, &mut c2);
        assert_eq!(c0, [1.0, 4.0]);
        assert_eq!(c2, [3.0, 6.0]);
        let injected = g.input_columns(2, &[&c2, &c0]);
        assert_eq!(g.value(injected), &Matrix::from_vec(2, 2, vec![3.0, 1.0, 6.0, 4.0]));
        // copy_column overwrites the destination.
        g.copy_column(injected, 0, &mut c0);
        assert_eq!(c0, [3.0, 6.0]);
    }

    /// A small two-head forward shared by the mode/backward tests below.
    fn two_head_forward(g: &mut Graph, store: &ParamStore, w: ParamId, v: ParamId) -> (NodeId, NodeId) {
        let x = g.input(Matrix::column(&[0.4, -0.6]));
        let wp = g.param(store, w);
        let trunk = g.matmul(wp, x);
        let trunk = g.tanh(trunk);
        let vp = g.param(store, v);
        let head1 = g.matmul(vp, trunk);
        let head2 = g.scale(trunk, 2.0);
        let ones = g.input(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let head2 = g.matmul(ones, head2);
        (head1, head2)
    }

    fn two_params() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.3, -0.8, 0.5, 0.1]));
        let v = store.add("v", Matrix::from_vec(1, 2, vec![0.7, -0.4]));
        (store, w, v)
    }

    #[test]
    fn inference_forward_matches_train_forward() {
        let (store, w, v) = two_params();
        let mut train = Graph::new();
        let (t1, t2) = two_head_forward(&mut train, &store, w, v);
        let mut infer = Graph::inference();
        let (i1, i2) = two_head_forward(&mut infer, &store, w, v);
        assert_eq!(train.value(t1), infer.value(i1));
        assert_eq!(train.value(t2), infer.value(i2));
    }

    #[test]
    #[should_panic(expected = "inference-mode graph")]
    fn backward_on_inference_graph_panics() {
        let (mut store, w, v) = two_params();
        let mut g = Graph::inference();
        let (h1, _) = two_head_forward(&mut g, &store, w, v);
        g.backward(h1, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
    }

    #[test]
    fn sequential_backwards_do_not_double_count() {
        // Two backward calls on one tape must equal the sum of two fresh
        // single-head backwards: gradients are consumed by each sweep.
        let (mut store, w, v) = two_params();
        let seed = Matrix::from_vec(1, 1, vec![1.0]);

        let mut expected = ParamStore::new();
        let we = expected.add("w", store.value(w).clone());
        let ve = expected.add("v", store.value(v).clone());
        let mut g1 = Graph::new();
        let (h1, _) = two_head_forward(&mut g1, &expected, we, ve);
        g1.backward(h1, seed.clone(), &mut expected);
        let mut g2 = Graph::new();
        let (_, h2) = two_head_forward(&mut g2, &expected, we, ve);
        g2.backward(h2, seed.clone(), &mut expected);

        store.zero_grad();
        let mut g = Graph::new();
        let (h1, h2) = two_head_forward(&mut g, &store, w, v);
        g.backward(h1, seed.clone(), &mut store);
        g.backward(h2, seed.clone(), &mut store);

        for (pid, pe) in [(w, we), (v, ve)] {
            for (a, b) in store.grad(pid).data().iter().zip(expected.grad(pe).data().iter()) {
                assert!((a - b).abs() < 1e-6, "sequential backward grad mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn backward_multi_matches_sequential_backwards() {
        let (mut store, w, v) = two_params();
        let seed = Matrix::from_vec(1, 1, vec![1.0]);

        let mut g = Graph::new();
        let (h1, h2) = two_head_forward(&mut g, &store, w, v);
        g.backward(h1, seed.clone(), &mut store);
        g.backward(h2, seed.clone(), &mut store);
        let sequential_w = store.grad(w).clone();
        let sequential_v = store.grad(v).clone();

        store.zero_grad();
        let mut g = Graph::new();
        let (h1, h2) = two_head_forward(&mut g, &store, w, v);
        g.backward_multi(vec![(h1, seed.clone()), (h2, seed)], &mut store);

        for (multi, seq) in [(store.grad(w), &sequential_w), (store.grad(v), &sequential_v)] {
            for (a, b) in multi.data().iter().zip(seq.data().iter()) {
                assert!((a - b).abs() < 1e-6, "backward_multi grad mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_lstm_gates_match_unfused_ops_within_path_contract() {
        let pre = |g: &mut Graph| {
            let zf = g.input(Matrix::from_vec(3, 2, vec![0.4, -1.2, 0.0, 2.5, -0.3, 0.9]));
            let zk1 = g.input(Matrix::from_vec(3, 2, vec![-0.7, 0.1, 1.8, -2.2, 0.6, 0.0]));
            let zr = g.input(Matrix::from_vec(3, 2, vec![1.1, -0.5, 0.2, -1.9, 3.0, -0.1]));
            let zk2 = g.input(Matrix::from_vec(3, 2, vec![0.0, 0.8, -1.4, 0.3, -2.0, 1.6]));
            (zf, zk1, zr, zk2)
        };
        // Unfused reference on a training tape (where lstm_gates falls back
        // to the four individual libm ops by construction).
        let mut train = Graph::new();
        let (zf, zk1, zr, zk2) = pre(&mut train);
        let (tf, tk1, tr, tk2) = train.lstm_gates(zf, zk1, zr, zk2);
        // Fused path on an inference tape.  On the scalar dispatch path the
        // sweep is the same libm formulas, so bits must match; on the AVX2
        // path it is the FMA rational approximation, bound by the f32
        // tier's documented < 1e-5 activation tolerance.
        let mut infer = Graph::inference();
        let (zf, zk1, zr, zk2) = pre(&mut infer);
        let (if_, ik1, ir, ik2) = infer.lstm_gates(zf, zk1, zr, zk2);
        for (t, i) in [(tf, if_), (tk1, ik1), (tr, ir), (tk2, ik2)] {
            match simd::active_path() {
                simd::DispatchPath::Scalar => {
                    assert_eq!(train.value(t), infer.value(i), "fused gate sweep diverged from per-element ops");
                }
                simd::DispatchPath::Avx2 => {
                    for (a, b) in train.value(t).data().iter().zip(infer.value(i).data().iter()) {
                        assert!((a - b).abs() < 1e-5, "fused AVX2 gate sweep off-tolerance: {a} vs {b}");
                    }
                }
            }
        }
        // Either way the fused sweep must be deterministic: a second
        // inference tape reproduces the first bit-for-bit.
        let mut infer2 = Graph::inference();
        let (zf, zk1, zr, zk2) = pre(&mut infer2);
        let (jf, jk1, jr, jk2) = infer2.lstm_gates(zf, zk1, zr, zk2);
        for (i, j) in [(if_, jf), (ik1, jk1), (ir, jr), (ik2, jk2)] {
            assert_eq!(infer.value(i), infer2.value(j), "fused gate sweep is nondeterministic");
        }
    }

    #[test]
    fn lstm_gates_backward_matches_individual_activations() {
        // The train-mode fallback must leave gradients exactly as the four
        // separate activation ops would.
        let (mut store, w, v) = two_params();
        let run = |store: &mut ParamStore, fused: bool| -> Matrix {
            store.zero_grad();
            let mut g = Graph::new();
            let x = g.input(Matrix::column(&[0.4, -0.6]));
            let wp = g.param(store, w);
            let z = g.matmul(wp, x);
            let (f, k1, r, k2) =
                if fused { g.lstm_gates(z, z, z, z) } else { (g.sigmoid(z), g.sigmoid(z), g.tanh(z), g.sigmoid(z)) };
            let fk = g.hadamard(f, k1);
            let rk = g.hadamard(r, k2);
            let sum = g.add(fk, rk);
            let vp = g.param(store, v);
            let y = g.matmul(vp, sum);
            g.backward(y, Matrix::from_vec(1, 1, vec![1.0]), store);
            store.grad(w).clone()
        };
        let unfused = run(&mut store, false);
        let fused = run(&mut store, true);
        assert_eq!(unfused, fused);
    }

    fn pool_capacity(g: &Graph) -> usize {
        g.pool.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn pool_stays_bounded_with_caller_owned_inputs() {
        // Each pass mixes pooled ops and pooled constants with caller-owned
        // inputs, which allocate afresh every pass; none of those
        // allocations may accumulate in the pool.
        let (store, w, v) = two_params();
        let pass = |g: &mut Graph| -> (NodeId, usize) {
            let x = g.input(Matrix::column(&[0.4, -0.6]));
            let wp = g.param(&store, w);
            let h = g.matmul(wp, x);
            let z = g.input(Matrix::zeros(2, 1));
            let h = g.add(h, z);
            let pooled = g.zeros(2, 1);
            let h = g.add(h, pooled);
            let wide = g.input(Matrix::zeros(2, 3));
            let wide = g.tanh(wide);
            let both = g.gather_cols(&[(h, 0), (wide, 0), (wide, 1), (wide, 2)]);
            let vp = g.param(&store, v);
            (g.matmul(vp, both), g.len())
        };
        for mut g in [Graph::inference(), Graph::new()] {
            let (out, nodes_per_pass) = pass(&mut g);
            let want = g.value(out).clone();
            g.reset();
            let settled = pool_capacity(&g);
            for _ in 0..10_000 {
                let (out, _) = pass(&mut g);
                assert_eq!(g.value(out), &want);
                g.reset();
                assert!(g.pool.len() <= nodes_per_pass, "pool grew past one pass: {}", g.pool.len());
                assert_eq!(pool_capacity(&g), settled, "pooled capacity kept changing");
            }
        }
    }

    #[test]
    fn reset_bounds_pool_by_buffers_one_pass_held() {
        // Backward allocates every gradient afresh, never from the pool.
        let (mut store, w, v) = two_params();
        let mut g = Graph::new();
        let mut held_per_pass = 0;
        for _ in 0..1_000 {
            let (h1, _) = two_head_forward(&mut g, &store, w, v);
            g.backward(h1, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
            held_per_pass = g.len() + g.nodes.iter().filter(|n| n.grad.is_some()).count();
            g.reset();
            assert!(g.pool.len() <= held_per_pass, "pool grew past one pass: {}", g.pool.len());
        }
        assert!(held_per_pass > 0);
    }

    #[test]
    fn zeros_overwrites_stale_pooled_buffers() {
        // Dirty the pool with larger, non-zero buffers first.
        let mut g = Graph::inference();
        let big = g.input(Matrix::full(8, 8, 3.5));
        let _ = g.scale(big, -2.0);
        g.reset();
        let pooled = g.pool.len();
        let z = g.zeros(3, 2);
        assert_eq!(g.pool.len(), pooled - 1, "zeros must draw its buffer from the pool");
        assert_eq!((g.value(z).rows(), g.value(z).cols()), (3, 2));
        assert!(g.value(z).data().iter().all(|x| x.to_bits() == 0), "stale pool contents leaked");
    }

    #[test]
    fn reset_reuses_tape_for_identical_results() {
        let (mut store, w, v) = two_params();
        let mut g = Graph::new();
        let (h1, _) = two_head_forward(&mut g, &store, w, v);
        let first = g.value(h1).clone();
        g.backward(h1, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
        let first_grad = store.grad(w).clone();

        for _ in 0..3 {
            g.reset();
            assert!(g.is_empty());
            store.zero_grad();
            let (h1, _) = two_head_forward(&mut g, &store, w, v);
            assert_eq!(g.value(h1), &first);
            g.backward(h1, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
            assert_eq!(store.grad(w), &first_grad);
        }
    }
}
