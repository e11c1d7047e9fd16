//! The tree-structured estimation model (Section 4.2).
//!
//! Three layers:
//!
//! 1. **Embedding layer** — one fully-connected embedding per feature group
//!    (Operation, Metadata, Sample Bitmap) plus a predicate model: either the
//!    min/max tree pooling of Section 4.2.1 (AND → min, OR → max over the
//!    embedded atoms) or a tree-LSTM over the predicate tree (the `TLSTM*`
//!    predicate variant of Table 6/9).
//! 2. **Representation layer** — a representation cell applied recursively
//!    over the plan tree: the LSTM-style cell (G/R channels) or a plain
//!    fully-connected cell (`TNN*`), with children states averaged.
//! 3. **Estimation layer** — two-layer heads with sigmoid outputs for cost
//!    and cardinality; multitask training shares layers 1–2.

use featurize::{EncodedPlan, EncodingConfig, NodeFeatures, PredicateEncoding};
use nn::cells::CellOutput;
use nn::{Graph, Linear, NodeId, PackedWeights, ParamStore, TreeLstmCell, TreeNnCell, Weights};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which representation cell the representation layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepresentationCellKind {
    /// LSTM-style cell with the long-memory channel (the paper's design).
    Lstm,
    /// Plain fully-connected cell (`TNN*` baselines).
    Nn,
}

/// Which predicate embedding model is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateModelKind {
    /// Min/max tree pooling (AND → min, OR → max) — `TPool*`.
    MinMaxPool,
    /// Tree-LSTM over the predicate tree — `TLSTM*`.
    TreeLstm,
}

/// Which estimation targets are trained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskMode {
    CardinalityOnly,
    CostOnly,
    /// Multitask: cost and cardinality trained together (shared layers).
    Multitask,
}

/// Hyper-parameters of the tree model.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    pub cell: RepresentationCellKind,
    pub predicate: PredicateModelKind,
    pub task: TaskMode,
    /// Weight ω of the cost term in the multitask loss.
    pub cost_loss_weight: f64,
    /// Per-feature embedding width.
    pub feature_embed_dim: usize,
    /// Representation (hidden) width.
    pub hidden_dim: usize,
    /// Hidden width of the estimation heads.
    pub estimation_hidden_dim: usize,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            cell: RepresentationCellKind::Lstm,
            predicate: PredicateModelKind::MinMaxPool,
            task: TaskMode::Multitask,
            cost_loss_weight: 1.0,
            feature_embed_dim: 16,
            hidden_dim: 64,
            estimation_hidden_dim: 32,
            seed: 42,
        }
    }
}

#[derive(Clone)]
enum RepresentationCell {
    Lstm(TreeLstmCell),
    Nn(TreeNnCell),
}

/// The assembled tree model: all parameters plus the layer definitions.
///
/// `Clone` exists for copy-on-write training: the trainer holds the model in
/// an `Arc`, and resuming training while an owned serving handle still pins
/// the weights clones the store once instead of mutating under the handle.
#[derive(Clone)]
pub struct TreeModel {
    pub config: ModelConfig,
    pub params: ParamStore,
    op_embed: Linear,
    meta_embed: Linear,
    sample_embed: Linear,
    pred_leaf: Linear,
    pred_lstm: TreeLstmCell,
    cell: RepresentationCell,
    cost_head: nn::layers::Mlp2,
    card_head: nn::layers::Mlp2,
    embed_dim: usize,
}

impl TreeModel {
    /// Build a model for the given encoding configuration.
    pub fn new(enc: &EncodingConfig, config: ModelConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut params = ParamStore::new();
        let d = config.feature_embed_dim;
        let op_embed = Linear::new(&mut params, "embed.op", enc.operation_dim(), d, &mut rng);
        let meta_embed = Linear::new(&mut params, "embed.meta", enc.metadata_dim(), d, &mut rng);
        let sample_embed = Linear::new(&mut params, "embed.sample", enc.sample_dim(), d, &mut rng);
        let pred_leaf = Linear::new(&mut params, "embed.pred_leaf", enc.atom_dim(), d, &mut rng);
        let pred_lstm = TreeLstmCell::new(&mut params, "embed.pred_lstm", d, d, &mut rng);
        let embed_dim = 4 * d;
        let cell = match config.cell {
            RepresentationCellKind::Lstm => RepresentationCell::Lstm(TreeLstmCell::new(
                &mut params,
                "repr.lstm",
                embed_dim,
                config.hidden_dim,
                &mut rng,
            )),
            RepresentationCellKind::Nn => {
                RepresentationCell::Nn(TreeNnCell::new(&mut params, "repr.nn", embed_dim, config.hidden_dim, &mut rng))
            }
        };
        let cost_head = nn::layers::Mlp2::new(
            &mut params,
            "est.cost",
            config.hidden_dim,
            config.estimation_hidden_dim,
            1,
            &mut rng,
        );
        let card_head = nn::layers::Mlp2::new(
            &mut params,
            "est.card",
            config.hidden_dim,
            config.estimation_hidden_dim,
            1,
            &mut rng,
        );
        TreeModel {
            config,
            params,
            op_embed,
            meta_embed,
            sample_embed,
            pred_leaf,
            pred_lstm,
            cell,
            cost_head,
            card_head,
            embed_dim,
        }
    }

    /// Width of the concatenated node embedding `E`.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Every fully-connected layer of the model: the embeddings, the
    /// predicate cell, the representation cell and both heads.
    fn linears(&self) -> Vec<Linear> {
        let mut layers = vec![self.op_embed, self.meta_embed, self.sample_embed, self.pred_leaf];
        layers.extend(self.pred_lstm.linears());
        match &self.cell {
            RepresentationCell::Lstm(c) => layers.extend(c.linears()),
            RepresentationCell::Nn(c) => layers.extend(c.linears()),
        }
        for head in [&self.cost_head, &self.card_head] {
            layers.extend([head.l1, head.l2]);
        }
        layers
    }

    /// The model's weights packed for serving ([`PackedWeights`]): every
    /// layer in 8-row panels, read by the level loop and the heads through
    /// one fused `W·x + b` kernel.  The copy never changes; a served
    /// generation builds it once, beside the weights it serves.
    pub(crate) fn pack(&self) -> PackedWeights {
        PackedWeights::new(&self.params, self.linears())
    }

    /// Embed a predicate tree into a `feature_embed_dim` vector node.
    fn embed_predicate(&self, g: &mut Graph, pred: &PredicateEncoding) -> NodeId {
        let d = self.config.feature_embed_dim;
        match pred {
            PredicateEncoding::None => g.zeros(d, 1),
            PredicateEncoding::Atom(v) => {
                let x = g.input_columns(v.len(), &[v]);
                self.pred_leaf.forward_relu(g, &self.params, x)
            }
            PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => {
                match self.config.predicate {
                    PredicateModelKind::MinMaxPool => {
                        let le = self.embed_predicate(g, l);
                        let re = self.embed_predicate(g, r);
                        if matches!(pred, PredicateEncoding::And(_, _)) {
                            g.emin(le, re)
                        } else {
                            g.emax(le, re)
                        }
                    }
                    PredicateModelKind::TreeLstm => {
                        // Run a tree-LSTM over the predicate tree; inner nodes
                        // feed a zero feature and combine children states.
                        let out = self.pred_lstm_forward(g, pred);
                        out.r
                    }
                }
            }
        }
    }

    fn pred_lstm_forward(&self, g: &mut Graph, pred: &PredicateEncoding) -> CellOutput {
        let d = self.config.feature_embed_dim;
        match pred {
            PredicateEncoding::None => self.pred_lstm.zero_state(g, 1),
            PredicateEncoding::Atom(v) => {
                let x = g.input_columns(v.len(), &[v]);
                let e = self.pred_leaf.forward_relu(g, &self.params, x);
                let zero = self.pred_lstm.zero_state(g, 1);
                self.pred_lstm.forward(g, &self.params, e, zero, zero)
            }
            PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => {
                let left = self.pred_lstm_forward(g, l);
                let right = self.pred_lstm_forward(g, r);
                let x = g.zeros(d, 1);
                self.pred_lstm.forward(g, &self.params, x, left, right)
            }
        }
    }

    /// Embed the four feature groups of one node into the concatenated `E`.
    pub fn embed_node(&self, g: &mut Graph, features: &NodeFeatures) -> NodeId {
        let column = |g: &mut Graph, v: &[f32]| g.input_columns(v.len(), &[v]);
        let op_in = column(g, features.operation());
        let op = self.op_embed.forward_relu(g, &self.params, op_in);
        let meta_in = column(g, features.metadata());
        let meta = self.meta_embed.forward_relu(g, &self.params, meta_in);
        let samp_in = column(g, features.sample_bitmap());
        let samp = self.sample_embed.forward_relu(g, &self.params, samp_in);
        let pred = self.embed_predicate(g, &features.predicate);
        g.concat_rows(&[op, meta, samp, pred])
    }

    /// Embed many nodes at once: the operation / metadata / sample-bitmap
    /// groups are column-stacked into one `dim x n` input each, so the
    /// embedding layers run **once per group per batch** instead of once per
    /// node, and the predicate trees are level-batched the same way
    /// (`TreeModel::embed_predicates_batch`).  Returns the `4d x n`
    /// batched embedding `E`.  The layers read `weights`: this model's
    /// [`ParamStore`] or the packed copy a served generation holds.
    ///
    /// # Panics
    /// Panics if `features` is empty.
    pub fn embed_nodes_batch(&self, g: &mut Graph, weights: &impl Weights, features: &[&NodeFeatures]) -> NodeId {
        assert!(!features.is_empty(), "embed_nodes_batch needs at least one node");
        let mut columns: Vec<&[f32]> = Vec::with_capacity(features.len());
        let mut stack = |g: &mut Graph, dim: usize, pick: &dyn Fn(&NodeFeatures) -> &[f32]| -> NodeId {
            columns.clear();
            columns.extend(features.iter().map(|&f| pick(f)));
            g.input_columns(dim, &columns)
        };
        let op_in = stack(g, self.op_embed.in_dim(), &|f| f.operation());
        let op = self.op_embed.forward_relu(g, weights, op_in);
        let meta_in = stack(g, self.meta_embed.in_dim(), &|f| f.metadata());
        let meta = self.meta_embed.forward_relu(g, weights, meta_in);
        let samp_in = stack(g, self.sample_embed.in_dim(), &|f| f.sample_bitmap());
        let samp = self.sample_embed.forward_relu(g, weights, samp_in);
        let preds: Vec<&PredicateEncoding> = features.iter().map(|f| &f.predicate).collect();
        let pred = self.embed_predicates_batch(g, weights, &preds);
        g.concat_rows(&[op, meta, samp, pred])
    }

    /// Level-batched embedding of many predicate trees at once, returning a
    /// `feature_embed_dim x preds.len()` node whose columns equal what
    /// [`TreeModel::embed_predicate`] computes per tree.
    ///
    /// All atom leaves across all trees go through `pred_leaf` in a single
    /// forward; the inner AND/OR levels then run once per predicate-tree
    /// level over [`Graph::gather_cols`]-assembled children (min/max pooling
    /// partitions each level into its AND and OR subsets; the tree-LSTM
    /// variant feeds a zero feature batch).
    fn embed_predicates_batch(&self, g: &mut Graph, weights: &impl Weights, preds: &[&PredicateEncoding]) -> NodeId {
        let d = self.config.feature_embed_dim;

        // Flatten every tree into one arena, bucketing nodes by height.
        enum PKind<'a> {
            Empty,
            Atom(&'a [f32]),
            And(usize, usize),
            Or(usize, usize),
        }
        struct PFlat<'a> {
            kind: PKind<'a>,
            height: usize,
        }
        fn flatten_pred<'a>(p: &'a PredicateEncoding, out: &mut Vec<PFlat<'a>>) -> (usize, usize) {
            match p {
                PredicateEncoding::None => {
                    out.push(PFlat { kind: PKind::Empty, height: 1 });
                    (out.len() - 1, 1)
                }
                PredicateEncoding::Atom(v) => {
                    out.push(PFlat { kind: PKind::Atom(v), height: 1 });
                    (out.len() - 1, 1)
                }
                PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => {
                    let (li, lh) = flatten_pred(l, out);
                    let (ri, rh) = flatten_pred(r, out);
                    let height = 1 + lh.max(rh);
                    let kind =
                        if matches!(p, PredicateEncoding::And(_, _)) { PKind::And(li, ri) } else { PKind::Or(li, ri) };
                    out.push(PFlat { kind, height });
                    (out.len() - 1, height)
                }
            }
        }
        let mut flat: Vec<PFlat> = Vec::new();
        let mut roots = Vec::with_capacity(preds.len());
        let mut max_height = 1;
        for p in preds {
            let (root, h) = flatten_pred(p, &mut flat);
            roots.push(root);
            max_height = max_height.max(h);
        }
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_height];
        for (i, n) in flat.iter().enumerate() {
            levels[n.height - 1].push(i);
        }

        // One pred_leaf forward for every atom of every tree.
        let atoms: Vec<usize> = levels[0].iter().copied().filter(|&i| matches!(flat[i].kind, PKind::Atom(_))).collect();
        let mut atom_col = vec![usize::MAX; flat.len()];
        let atom_embeds = if atoms.is_empty() {
            None
        } else {
            let mut columns: Vec<&[f32]> = Vec::with_capacity(atoms.len());
            for (col, &i) in atoms.iter().enumerate() {
                atom_col[i] = col;
                if let PKind::Atom(v) = flat[i].kind {
                    columns.push(v);
                }
            }
            let x = g.input_columns(self.pred_leaf.in_dim(), &columns);
            Some(self.pred_leaf.forward_relu(g, weights, x))
        };
        let zero_col = g.zeros(d, 1);

        // (node, column) source of each flat predicate node's d-vector.
        let mut vref: Vec<(NodeId, usize)> = vec![(zero_col, 0); flat.len()];

        match self.config.predicate {
            PredicateModelKind::MinMaxPool => {
                for &i in &atoms {
                    vref[i] = (atom_embeds.expect("atoms imply embeds"), atom_col[i]);
                }
                for level_nodes in levels.iter().skip(1) {
                    // A level can mix ANDs and ORs; pool each subset at once.
                    for want_and in [true, false] {
                        let subset: Vec<usize> = level_nodes
                            .iter()
                            .copied()
                            .filter(|&i| matches!(flat[i].kind, PKind::And(_, _)) == want_and)
                            .collect();
                        if subset.is_empty() {
                            continue;
                        }
                        let lefts: Vec<(NodeId, usize)> = subset
                            .iter()
                            .map(|&i| match flat[i].kind {
                                PKind::And(l, _) | PKind::Or(l, _) => vref[l],
                                _ => unreachable!("leaf above level 1"),
                            })
                            .collect();
                        let rights: Vec<(NodeId, usize)> = subset
                            .iter()
                            .map(|&i| match flat[i].kind {
                                PKind::And(_, r) | PKind::Or(_, r) => vref[r],
                                _ => unreachable!("leaf above level 1"),
                            })
                            .collect();
                        let lg = g.gather_cols(&lefts);
                        let rg = g.gather_cols(&rights);
                        let pooled = if want_and { g.emin(lg, rg) } else { g.emax(lg, rg) };
                        for (col, &i) in subset.iter().enumerate() {
                            vref[i] = (pooled, col);
                        }
                    }
                }
            }
            PredicateModelKind::TreeLstm => {
                // State of each inner/atom node as (node, column) per channel.
                let zero_state = self.pred_lstm.zero_state(g, 1);
                let mut sref: Vec<((NodeId, usize), (NodeId, usize))> =
                    vec![((zero_state.g, 0), (zero_state.r, 0)); flat.len()];
                if let Some(embeds) = atom_embeds {
                    // All atom leaves share zero children: one cell forward.
                    let zeros = self.pred_lstm.zero_state(g, atoms.len());
                    let out = self.pred_lstm.forward(g, weights, embeds, zeros, zeros);
                    for (col, &i) in atoms.iter().enumerate() {
                        sref[i] = ((out.g, col), (out.r, col));
                        vref[i] = (embeds, atom_col[i]);
                    }
                }
                for level_nodes in levels.iter().skip(1) {
                    let inner: Vec<usize> = level_nodes.to_vec();
                    let (mut lg, mut lr, mut rg, mut rr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                    for &i in &inner {
                        let (l, r) = match flat[i].kind {
                            PKind::And(l, r) | PKind::Or(l, r) => (l, r),
                            _ => unreachable!("leaf above level 1"),
                        };
                        lg.push(sref[l].0);
                        lr.push(sref[l].1);
                        rg.push(sref[r].0);
                        rr.push(sref[r].1);
                    }
                    let left = nn::cells::CellOutput { g: g.gather_cols(&lg), r: g.gather_cols(&lr) };
                    let right = nn::cells::CellOutput { g: g.gather_cols(&rg), r: g.gather_cols(&rr) };
                    let x = g.zeros(d, inner.len());
                    let out = self.pred_lstm.forward(g, weights, x, left, right);
                    for (col, &i) in inner.iter().enumerate() {
                        sref[i] = ((out.g, col), (out.r, col));
                        // An inner node's embedding is its state's R channel.
                        vref[i] = (out.r, col);
                    }
                }
            }
        }

        // Per-tree answer columns (a root atom uses its plain leaf embedding
        // in both predicate models, matching `embed_predicate`).
        let answers: Vec<(NodeId, usize)> = roots.iter().map(|&r| vref[r]).collect();
        g.gather_cols(&answers)
    }

    /// Apply the representation cell to an embedded node and children
    /// states, reading `weights`.
    pub fn apply_cell(
        &self,
        g: &mut Graph,
        weights: &impl Weights,
        x: NodeId,
        left: CellOutput,
        right: CellOutput,
    ) -> CellOutput {
        match &self.cell {
            RepresentationCell::Lstm(c) => c.forward(g, weights, x, left, right),
            RepresentationCell::Nn(c) => c.forward(g, weights, x, left, right),
        }
    }

    /// Zero child state (for leaves), batch width 1.
    pub fn zero_state(&self, g: &mut Graph) -> CellOutput {
        self.zero_state_batch(g, 1)
    }

    /// Zero child state with an arbitrary batch width.
    pub fn zero_state_batch(&self, g: &mut Graph, batch: usize) -> CellOutput {
        match &self.cell {
            RepresentationCell::Lstm(c) => c.zero_state(g, batch),
            RepresentationCell::Nn(c) => c.zero_state(g, batch),
        }
    }

    /// Recursive forward over an encoded plan, returning the root state.
    pub fn forward_plan(&self, g: &mut Graph, plan: &EncodedPlan) -> CellOutput {
        let x = self.embed_node(g, &plan.features);
        let (left, right) = match plan.children.len() {
            0 => (self.zero_state(g), self.zero_state(g)),
            1 => {
                let c = self.forward_plan(g, &plan.children[0]);
                (c, self.zero_state(g))
            }
            _ => (self.forward_plan(g, &plan.children[0]), self.forward_plan(g, &plan.children[1])),
        };
        self.apply_cell(g, &self.params, x, left, right)
    }

    /// Estimation heads: `(cost, cardinality)` sigmoid outputs (normalized
    /// space) from a representation node (any batch width), reading
    /// `weights`.
    pub fn estimate_from_representation(&self, g: &mut Graph, weights: &impl Weights, r: NodeId) -> (NodeId, NodeId) {
        let cost = self.cost_head.forward_sigmoid(g, weights, r);
        let card = self.card_head.forward_sigmoid(g, weights, r);
        (cost, card)
    }

    /// Full forward pass over one plan: normalized `(cost, card)` outputs.
    pub fn forward(&self, g: &mut Graph, plan: &EncodedPlan) -> (NodeId, NodeId) {
        let root = self.forward_plan(g, plan);
        self.estimate_from_representation(g, &self.params, root.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use featurize::FeatureExtractor;
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, PlanNode, Predicate};
    use std::sync::Arc;
    use strembed::HashBitmapEncoder;

    fn setup() -> (FeatureExtractor, EncodingConfig) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        (FeatureExtractor::new(db, cfg.clone(), Arc::new(HashBitmapEncoder::new(16))), cfg)
    }

    fn sample_encoded_plan(fx: &FeatureExtractor) -> EncodedPlan {
        let scan_t =
            PlanNode::leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(
                    Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2000.0))
                        .and(Predicate::atom("title", "kind_id", CompareOp::Eq, Operand::Num(1.0))),
                ),
            });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let join = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_t, scan_mc],
        );
        fx.encode_plan(&join)
    }

    #[test]
    fn forward_produces_normalized_outputs() {
        let (fx, cfg) = setup();
        let plan = sample_encoded_plan(&fx);
        for cell in [RepresentationCellKind::Lstm, RepresentationCellKind::Nn] {
            for pred in [PredicateModelKind::MinMaxPool, PredicateModelKind::TreeLstm] {
                let model = TreeModel::new(&cfg, ModelConfig { cell, predicate: pred, ..Default::default() });
                let mut g = Graph::new();
                let (cost, card) = model.forward(&mut g, &plan);
                let c = g.value(cost).data()[0];
                let k = g.value(card).data()[0];
                assert!((0.0..=1.0).contains(&c), "cost output {c} out of range");
                assert!((0.0..=1.0).contains(&k), "card output {k} out of range");
            }
        }
    }

    #[test]
    fn model_has_reasonable_parameter_count() {
        let (_, cfg) = setup();
        let model = TreeModel::new(&cfg, ModelConfig::default());
        let n = model.params.num_scalars();
        assert!(n > 10_000 && n < 2_000_000, "unexpected parameter count {n}");
        assert_eq!(model.embed_dim(), 64);
    }

    #[test]
    fn different_plans_produce_different_outputs() {
        let (fx, cfg) = setup();
        let model = TreeModel::new(&cfg, ModelConfig::default());
        let plan_a = sample_encoded_plan(&fx);
        let scan = PlanNode::leaf(PhysicalOp::SeqScan { table: "cast_info".into(), predicate: None });
        let plan_b = fx.encode_plan(&scan);
        let mut g = Graph::new();
        let (cost_a, _) = model.forward(&mut g, &plan_a);
        let (cost_b, _) = model.forward(&mut g, &plan_b);
        assert_ne!(g.value(cost_a).data()[0], g.value(cost_b).data()[0]);
    }

    #[test]
    fn pooling_predicate_embedding_respects_and_or_ordering() {
        // For the same pair of atoms, the AND (min-pooled) embedding must be
        // element-wise <= the OR (max-pooled) embedding.
        let (fx, cfg) = setup();
        let model = TreeModel::new(&cfg, ModelConfig::default());
        let a = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(1990.0));
        let b = Predicate::atom("title", "kind_id", CompareOp::Eq, Operand::Num(1.0));
        let and_enc = fx.encode_predicate(Some(&a.clone().and(b.clone())));
        let or_enc = fx.encode_predicate(Some(&a.or(b)));
        let mut g = Graph::new();
        let and_vec = model.embed_predicate(&mut g, &and_enc);
        let or_vec = model.embed_predicate(&mut g, &or_enc);
        for (x, y) in g.value(and_vec).data().iter().zip(g.value(or_vec).data().iter()) {
            assert!(x <= y, "min-pooled AND exceeded max-pooled OR: {x} > {y}");
        }
    }
}
