//! Level-wise batched inference (Section 4.3, "Batch Training").
//!
//! Instead of running the representation cell once per node per plan, all
//! nodes at the same tree level (height above the leaves) across a whole
//! batch of plans are packed into one matrix and the cell runs once per
//! level.  The model only needs `D` cell invocations for a batch (where `D`
//! is the maximum tree depth) instead of one per node — the speed-up that
//! Table 12 measures.
//!
//! # Hot-path layout
//!
//! The implementation here is the optimized form (see `docs/perf.md`):
//!
//! * nodes are bucketed by level in **one pass** over the flattened batch
//!   (`O(N)`), not re-scanned once per level (`O(D·N)`);
//! * per-node cell state lives in a dense `Vec` indexed by flat-node id, not
//!   a `HashMap`;
//! * the feature embedding layers run once per level over column-stacked
//!   inputs ([`TreeModel::embed_nodes_batch`]) instead of once per node;
//! * inference runs on an inference-mode tape ([`Graph::inference`]): no
//!   gradient slots, no op metadata;
//! * tapes are **per-thread** (with a parking pool handing warm tapes from
//!   finished threads to new ones), so concurrent estimators never
//!   serialize on a shared tape lock;
//! * independent groups of plans are estimated in parallel with rayon.
//!
//! On top of the level batching, [`estimate_batch_memo`] adds **subtree
//! memoization** for optimizer-in-the-loop serving: per-node `(G, R)` cell
//! states are cached in a sharded [`SubtreeStateCache`] keyed by the 64-bit
//! sub-plan signature, so a DP enumeration embeds each distinct subtree once
//! and re-scores candidate plans by combining cached states at the fringe —
//! with bit-identical results to the memoization-free path.
//!
//! Raw plans enter the memoized forward **state first**
//! (`estimate_plans_memo`, behind `ServingEstimator::estimate_plans`): one
//! signature walk per plan keys every sub-plan, the flatten probes the batch
//! and the cache top-down, and only a node that misses both is featurized —
//! no `EncodedPlan` is built, so a plan whose root state is cached costs a
//! walk and a lookup.  Encoded and raw plans share one memoized level loop
//! and the same cache entries.
//!
//! The per-node recursion [`TreeModel::forward`] shares no code with the
//! level loop and returns the same bits, so it is the oracle both batched
//! forwards are tested against (and Table 12's one-by-one row).

use crate::memory::{IdentityHasher, SubtreeState, SubtreeStateCache};
use crate::model::TreeModel;
use crate::trainer::TargetNormalization;
use featurize::{EncodedPlan, FeatureExtractor, NodeFeatures};
use nn::cells::CellOutput;
use nn::{Graph, NodeId, ParamStore, QuantWeights};
use query::PlanNode;
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Plans per parallel group.  Large enough that the per-level matrices fill
/// the blocked-matmul tiles and the per-level tape overhead amortizes,
/// small enough that large batches still split across cores.  Public so
/// harnesses comparing against the batched path can chunk identically.
pub const GROUP_SIZE: usize = 64;

/// Flattened view of one node of one plan in the batch.
struct FlatNode<'a> {
    height: usize,
    children: Vec<usize>,
    encoded: &'a EncodedPlan,
}

/// Dense per-node cell state: a (level-output node, column) pair per channel
/// — columns are gathered lazily with one `gather_cols` tape node per
/// channel per level instead of one `column_at` node per plan node.
#[derive(Clone, Copy)]
struct StateRef {
    g: (NodeId, usize),
    r: (NodeId, usize),
}

/// Flatten `plan` into `out`, returning `(flat index of the root, height)`.
fn flatten<'a>(plan: &'a EncodedPlan, out: &mut Vec<FlatNode<'a>>) -> (usize, usize) {
    // Reserve our slot first; children are pushed after and linked by index.
    let my_idx = out.len();
    out.push(FlatNode { height: 1, children: Vec::new(), encoded: plan });
    let mut child_ids = Vec::new();
    let mut max_child_height = 0;
    for c in &plan.children {
        let (cid, ch) = flatten(c, out);
        child_ids.push(cid);
        max_child_height = max_child_height.max(ch);
    }
    let height = 1 + max_child_height;
    out[my_idx].children = child_ids;
    out[my_idx].height = height;
    (my_idx, height)
}

/// Estimate a batch of encoded plans with level-wise batching.
///
/// Returns `(cost, cardinality)` per plan, in input order, denormalized with
/// `normalization`.  Groups of [`GROUP_SIZE`] plans are estimated in
/// parallel.
pub fn estimate_batch(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    plans: &[EncodedPlan],
) -> Vec<(f64, f64)> {
    let refs: Vec<&EncodedPlan> = plans.iter().collect();
    estimate_batch_refs(model, store, None, normalization, &refs)
}

/// [`estimate_batch`] over plan references (avoids cloning plans when the
/// caller batches a subset, e.g. the trainer's validation split), through
/// [`forward_batch_q`]: with `quant = Some(..)` every quantized weight
/// matrix runs on the int8 tier (the Table-12 Q8 rows), with `None` this is
/// the f32 path.
pub fn estimate_batch_refs(
    model: &TreeModel,
    store: &ParamStore,
    quant: Option<&QuantWeights>,
    normalization: &TargetNormalization,
    plans: &[&EncodedPlan],
) -> Vec<(f64, f64)> {
    if plans.is_empty() {
        return Vec::new();
    }
    let group = |chunk: &[&EncodedPlan]| {
        with_inference_tape(|g| {
            let (cost_out, card_out) = forward_batch_q(model, store, quant, g, chunk);
            denormalize_outputs(g, normalization, cost_out, card_out, chunk.len())
        })
    };
    if plans.len() <= GROUP_SIZE {
        return group(plans);
    }
    let groups: Vec<Vec<(f64, f64)>> = plans.par_chunks(GROUP_SIZE).map(group).collect();
    groups.concat()
}

/// Overflow pool that keeps warm tapes alive across *threads*: a worker
/// thread's tape is parked here when the thread exits (see [`TapeSlot`]) and
/// adopted by the next thread whose thread-local slot is still empty.  Only
/// touched on a thread's first and last use — never per estimate.
///
/// Bounded: a tape is created only when none is parked, so tapes never
/// outnumber the peak count of threads estimating at once (one per hardware
/// thread for a parallel batch, plus each caller's own), and each tape's
/// buffer pool holds at most one pass's high-water mark ([`Graph::reset`]).
static PARKED_TAPES: std::sync::Mutex<Vec<Graph>> = std::sync::Mutex::new(Vec::new());

/// Thread-local tape holder whose `Drop` parks the tape in [`PARKED_TAPES`],
/// so short-lived worker threads (the vendored rayon spawns fresh scoped
/// threads per call) hand their warm buffer pools to their successors.
struct TapeSlot(Option<Graph>);

impl Drop for TapeSlot {
    fn drop(&mut self) {
        if let Some(g) = self.0.take() {
            if let Ok(mut pool) = PARKED_TAPES.lock() {
                pool.push(g);
            }
        }
    }
}

thread_local! {
    static INFERENCE_TAPE: std::cell::RefCell<TapeSlot> = const { std::cell::RefCell::new(TapeSlot(None)) };
}

/// Run `f` on this thread's warm inference tape (reset first).
///
/// Steady-state serving threads touch no lock at all here: the tape lives in
/// a thread-local slot, unlike the old process-wide `Mutex<Vec<Graph>>` pool
/// every concurrent estimator serialized on.  A thread's first call adopts a
/// parked tape from a finished thread (one mutex touch), and its last act is
/// parking the tape back (one more), so the warm buffer pools still survive
/// short-lived worker threads.
pub(crate) fn with_inference_tape<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    INFERENCE_TAPE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let g = slot
            .0
            .get_or_insert_with(|| PARKED_TAPES.lock().ok().and_then(|mut p| p.pop()).unwrap_or_else(Graph::inference));
        g.reset();
        f(g)
    })
}

/// Read the batched head outputs off a tape and denormalize them per plan.
fn denormalize_outputs(
    g: &Graph,
    normalization: &TargetNormalization,
    cost_out: NodeId,
    card_out: NodeId,
    n: usize,
) -> Vec<(f64, f64)> {
    let cost_vals = g.value(cost_out);
    let card_vals = g.value(card_out);
    (0..n)
        .map(|i| {
            (
                normalization.cost.denormalize(cost_vals.get(0, i)),
                normalization.cardinality.denormalize(card_vals.get(0, i)),
            )
        })
        .collect()
}

/// Level-batched forward pass over `plans` on an existing tape, returning the
/// batched `(cost, cardinality)` head outputs (`1 x plans.len()` each, in
/// plan order, normalized space).
///
/// On a train-mode graph this is the forward half of mini-batch training
/// (`Trainer::train` seeds both heads and runs one backward sweep); on an
/// inference-mode graph it is the Table-12 batched estimation path.
///
/// # Panics
/// Panics if `plans` is empty.
pub fn forward_batch(model: &TreeModel, store: &ParamStore, g: &mut Graph, plans: &[&EncodedPlan]) -> (NodeId, NodeId) {
    forward_batch_q(model, store, None, g, plans)
}

/// Tier-aware [`forward_batch`]: every weight matrix present in `quant` runs
/// its matmuls on the int8 tier, dequantizing into the same f32 tape states
/// the full-precision path produces.  With `quant = None` this **is**
/// [`forward_batch`].
pub fn forward_batch_q(
    model: &TreeModel,
    store: &ParamStore,
    quant: Option<&QuantWeights>,
    g: &mut Graph,
    plans: &[&EncodedPlan],
) -> (NodeId, NodeId) {
    assert!(!plans.is_empty(), "forward_batch needs at least one plan");
    let mut flat: Vec<FlatNode> = Vec::new();
    let mut roots = Vec::with_capacity(plans.len());
    let mut max_height = 1;
    for p in plans {
        let (root_idx, h) = flatten(p, &mut flat);
        roots.push(root_idx);
        max_height = max_height.max(h);
    }

    // One-pass level bucketing: levels[h-1] holds the flat indices of all
    // nodes at height h, across every plan in the group.
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_height];
    for (i, n) in flat.iter().enumerate() {
        levels[n.height - 1].push(i);
    }

    let mut states: Vec<Option<StateRef>> = vec![None; flat.len()];
    let zero = model.zero_state_batch(g, 1);
    let zero_ref = StateRef { g: (zero.g, 0), r: (zero.r, 0) };

    for level_nodes in &levels {
        if level_nodes.is_empty() {
            continue;
        }
        // Batched feature embedding for the level: the op/meta/sample
        // embedding layers run once over column-stacked inputs.
        let feats: Vec<&NodeFeatures> = level_nodes.iter().map(|&i| &*flat[i].encoded.features).collect();
        let x_batch = model.embed_nodes_batch_q(g, store, quant, &feats);

        // Batched children states: for each node take its (left, right) child
        // state columns, using zero states for missing children.
        let mut left_g = Vec::with_capacity(level_nodes.len());
        let mut left_r = Vec::with_capacity(level_nodes.len());
        let mut right_g = Vec::with_capacity(level_nodes.len());
        let mut right_r = Vec::with_capacity(level_nodes.len());
        for &i in level_nodes {
            let children = &flat[i].children;
            let left = children.first().and_then(|&c| states[c]).unwrap_or(zero_ref);
            let right = children.get(1).and_then(|&c| states[c]).unwrap_or(zero_ref);
            left_g.push(left.g);
            left_r.push(left.r);
            right_g.push(right.g);
            right_r.push(right.r);
        }
        let left = CellOutput { g: g.gather_cols(&left_g), r: g.gather_cols(&left_r) };
        let right = CellOutput { g: g.gather_cols(&right_g), r: g.gather_cols(&right_r) };

        let out = model.apply_cell_q(g, store, quant, x_batch, left, right);
        for (col, &i) in level_nodes.iter().enumerate() {
            states[i] = Some(StateRef { g: (out.g, col), r: (out.r, col) });
        }
    }

    // Batched estimation heads over all roots at once.
    let root_rs: Vec<(NodeId, usize)> = roots.iter().map(|&r| states[r].expect("root state computed").r).collect();
    let r_batch = g.gather_cols(&root_rs);
    model.estimate_from_representation_q(g, store, quant, r_batch)
}

/// One node of a memoized batch: the root of a memoized subtree, whose
/// cached `(G, R)` state is injected instead of recursing into its
/// children, or a fresh node to embed with its shared features.
enum MemoNode {
    Cached(Arc<SubtreeState>),
    Fresh(Arc<NodeFeatures>),
}

/// Flattened view of one node in a memoized batch.
struct MemoFlatNode {
    height: usize,
    children: Vec<usize>,
    signature: u64,
    node: MemoNode,
}

/// A plan tree [`MemoBatch::flatten`] can walk: an encoded plan, whose
/// features it shares, or a raw plan ([`RawTree`]), whose node is
/// featurized (through the node memo) only when its subtree misses both the
/// batch and the cache.
trait MemoTree: Copy {
    fn signature(self) -> u64;
    /// Plan nodes in the subtree.
    fn size(self) -> usize;
    fn features(self) -> Arc<NodeFeatures>;
    fn children(self) -> impl Iterator<Item = Self>;
}

impl MemoTree for &EncodedPlan {
    fn signature(self) -> u64 {
        self.signature
    }

    fn size(self) -> usize {
        EncodedPlan::size(self)
    }

    fn features(self) -> Arc<NodeFeatures> {
        Arc::clone(&self.features)
    }

    fn children(self) -> impl Iterator<Item = Self> {
        self.children.iter().map(|c| c.as_ref())
    }
}

/// A raw plan node with the pre-order `(signature, subtree size)` records
/// of its subtree ([`signature_walk`]), its own first.
#[derive(Clone, Copy)]
struct RawTree<'a> {
    plan: &'a PlanNode,
    records: &'a [(u64, usize)],
    extractor: &'a FeatureExtractor,
}

impl MemoTree for RawTree<'_> {
    fn signature(self) -> u64 {
        self.records[0].0
    }

    fn size(self) -> usize {
        self.records[0].1
    }

    fn features(self) -> Arc<NodeFeatures> {
        self.extractor.encode_node(self.plan)
    }

    fn children(self) -> impl Iterator<Item = Self> {
        let mut at = 1;
        self.plan.children.iter().map(move |plan| {
            let records = &self.records[at..];
            at += records[0].1;
            RawTree { plan, records, ..self }
        })
    }
}

/// Append the pre-order `(signature, subtree size)` records of `plan`'s
/// subtree to `out`; returns `plan`'s signature.  The signatures are
/// exactly [`PlanNode::signature_hash`] — so equal to
/// [`EncodedPlan::signature`], and the raw and encoded paths share cache
/// entries — and each child is walked lazily while the parent's hasher
/// consumes it, as `signature_hash` itself does.
fn signature_walk(plan: &PlanNode, out: &mut Vec<(u64, usize)>) -> u64 {
    let at = out.len();
    out.push((0, 0));
    let signature = plan.signature_hash_from_children(plan.children.iter().map(|c| signature_walk(c, out)));
    out[at] = (signature, out.len() - at);
    signature
}

/// A memoized batch: its flattened nodes, each plan's root, and the node
/// accounting of the flatten for the cache's serving stats — how many plan
/// nodes were submitted (`seen_nodes`) vs. will actually be embedded
/// (`computed`).
struct MemoBatch {
    flat: Vec<MemoFlatNode>,
    roots: Vec<usize>,
    max_height: usize,
    /// Signature → flat index.  Keyed like the shared caches: signatures
    /// are splitmix-finalized, so the map skips re-hashing, and it lives for
    /// one chunk of at most [`GROUP_SIZE`] plans.
    dedup: HashMap<u64, usize, BuildHasherDefault<IdentityHasher>>,
    seen_nodes: u64,
    computed: u64,
}

impl MemoBatch {
    /// Flatten `plans` top-down against `cache`.
    fn new<T: MemoTree>(plans: impl ExactSizeIterator<Item = T>, cache: &SubtreeStateCache) -> Self {
        let n = plans.len();
        let mut batch = MemoBatch {
            flat: Vec::with_capacity(n),
            roots: Vec::with_capacity(n),
            max_height: 1,
            dedup: HashMap::with_capacity_and_hasher(n, Default::default()),
            seen_nodes: 0,
            computed: 0,
        };
        for plan in plans {
            let (root, height) = batch.flatten(plan, cache);
            batch.roots.push(root);
            batch.max_height = batch.max_height.max(height);
        }
        batch
    }

    /// Flatten `tree`, deduplicating by signature within the batch first (a
    /// DP enumeration's candidates share almost all of their subtrees, and
    /// each distinct subtree must enter the level-batched forward exactly
    /// once), then pruning at memoized subtrees; only a node that misses
    /// both is featurized and descended into.  Returns `(flat index, height)`.
    fn flatten<T: MemoTree>(&mut self, tree: T, cache: &SubtreeStateCache) -> (usize, usize) {
        let signature = tree.signature();
        if let Some(&idx) = self.dedup.get(&signature) {
            // Already flattened for another candidate in this batch: the whole
            // subtree is served by the shared flat node.
            self.seen_nodes += tree.size() as u64;
            return (idx, self.flat[idx].height);
        }
        let idx = self.flat.len();
        self.dedup.insert(signature, idx);
        if let Some(state) = cache.get(signature) {
            self.flat.push(MemoFlatNode { height: 1, children: Vec::new(), signature, node: MemoNode::Cached(state) });
            self.seen_nodes += tree.size() as u64;
            return (idx, 1);
        }
        self.seen_nodes += 1;
        self.computed += 1;
        self.flat.push(MemoFlatNode {
            height: 1,
            children: Vec::new(),
            signature,
            node: MemoNode::Fresh(tree.features()),
        });
        let mut children = Vec::new();
        let mut max_child_height = 0;
        for c in tree.children() {
            let (cid, ch) = self.flatten(c, cache);
            children.push(cid);
            max_child_height = max_child_height.max(ch);
        }
        let height = 1 + max_child_height;
        self.flat[idx].children = children;
        self.flat[idx].height = height;
        (idx, height)
    }

    /// The memoized level loop, shared by both memoized forwards: inject
    /// the cached states, run the level-batched forward over the fresh
    /// fringe exactly as in [`forward_batch`] — plus, per level, lifting the
    /// new state columns off the tape into `cache` — then the heads over
    /// every root.
    fn forward(
        &self,
        model: &TreeModel,
        store: &ParamStore,
        g: &mut Graph,
        cache: &SubtreeStateCache,
    ) -> (NodeId, NodeId) {
        cache.record_nodes(self.seen_nodes, self.computed);
        let hidden = model.config.hidden_dim;
        let flat = &self.flat;

        // Cache-hit states re-enter the tape as two batched input columns;
        // fresh nodes are bucketed by level.
        let mut states: Vec<Option<StateRef>> = vec![None; flat.len()];
        let mut cached: Vec<(usize, &SubtreeState)> = Vec::new();
        let mut levels: Vec<Vec<(usize, &NodeFeatures)>> = vec![Vec::new(); self.max_height];
        for (i, n) in flat.iter().enumerate() {
            match &n.node {
                MemoNode::Cached(state) => cached.push((i, state)),
                MemoNode::Fresh(features) => levels[n.height - 1].push((i, features)),
            }
        }
        if !cached.is_empty() {
            let g_cols: Vec<&[f32]> = cached.iter().map(|(_, s)| s.g.as_slice()).collect();
            let r_cols: Vec<&[f32]> = cached.iter().map(|(_, s)| s.r.as_slice()).collect();
            let inj_g = g.input_columns(hidden, &g_cols);
            let inj_r = g.input_columns(hidden, &r_cols);
            for (col, &(i, _)) in cached.iter().enumerate() {
                states[i] = Some(StateRef { g: (inj_g, col), r: (inj_r, col) });
            }
        }
        let zero = model.zero_state_batch(g, 1);
        let zero_ref = StateRef { g: (zero.g, 0), r: (zero.r, 0) };

        for level in &levels {
            if level.is_empty() {
                continue;
            }
            let feats: Vec<&NodeFeatures> = level.iter().map(|&(_, f)| f).collect();
            let x_batch = model.embed_nodes_batch(g, store, &feats);

            let mut left_g = Vec::with_capacity(level.len());
            let mut left_r = Vec::with_capacity(level.len());
            let mut right_g = Vec::with_capacity(level.len());
            let mut right_r = Vec::with_capacity(level.len());
            for &(i, _) in level {
                let children = &flat[i].children;
                let left = children.first().and_then(|&c| states[c]).unwrap_or(zero_ref);
                let right = children.get(1).and_then(|&c| states[c]).unwrap_or(zero_ref);
                left_g.push(left.g);
                left_r.push(left.r);
                right_g.push(right.g);
                right_r.push(right.r);
            }
            let left = CellOutput { g: g.gather_cols(&left_g), r: g.gather_cols(&left_r) };
            let right = CellOutput { g: g.gather_cols(&right_g), r: g.gather_cols(&right_r) };

            let out = model.apply_cell(g, store, x_batch, left, right);
            for (col, &(i, _)) in level.iter().enumerate() {
                states[i] = Some(StateRef { g: (out.g, col), r: (out.r, col) });
                let mut sg = Vec::with_capacity(hidden);
                let mut sr = Vec::with_capacity(hidden);
                g.extract_column(out.g, col, &mut sg);
                g.extract_column(out.r, col, &mut sr);
                cache.insert(flat[i].signature, Arc::new(SubtreeState { g: sg, r: sr }));
            }
        }

        let root_rs: Vec<(NodeId, usize)> =
            self.roots.iter().map(|&r| states[r].expect("root state computed").r).collect();
        let r_batch = g.gather_cols(&root_rs);
        model.estimate_from_representation(g, store, r_batch)
    }
}

/// [`forward_batch`] with subtree memoization — the serving-layer forward of
/// the optimizer loop.
///
/// Before embedding anything, every sub-plan is deduplicated against the
/// rest of the batch and looked up in `cache` by its 64-bit signature: hits
/// re-enter the tape as injected `(G, R)` input columns
/// ([`Graph::input_columns`]), and only the fringe above them is embedded.
/// After each level's cell runs, the new sub-plans' state columns are lifted
/// off the tape ([`Graph::extract_column`]) and memoized, so a DP
/// enumeration embeds each distinct subtree once no matter how many
/// candidate plans contain it.
///
/// Estimates are **bit-identical** to the memoization-free [`forward_batch`]:
/// injected states are verbatim copies of previously computed columns, and
/// every kernel's per-column result is independent of which other columns
/// share its batch (`memoized_inference_is_bit_identical_*` pins this).
///
/// # Panics
/// Panics if `plans` is empty.
pub fn forward_batch_memo(
    model: &TreeModel,
    store: &ParamStore,
    g: &mut Graph,
    plans: &[&EncodedPlan],
    cache: &SubtreeStateCache,
) -> (NodeId, NodeId) {
    assert!(!plans.is_empty(), "forward_batch_memo needs at least one plan");
    MemoBatch::new(plans.iter().copied(), cache).forward(model, store, g, cache)
}

/// Memoized batched estimation: [`estimate_batch`] through
/// [`forward_batch_memo`], sharing `cache` across calls (and across
/// threads — the cache is sharded and the tape is thread-local, so
/// concurrent serving threads never serialize on a global lock).
///
/// Runs chunks of [`GROUP_SIZE`] plans sequentially on the calling thread:
/// in the serving layer, concurrency comes from the caller's worker threads,
/// and an internal fan-out per request would only fight them for cores.
pub fn estimate_batch_memo(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    plans: &[&EncodedPlan],
    cache: &SubtreeStateCache,
) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(plans.len());
    for chunk in plans.chunks(GROUP_SIZE) {
        out.extend(with_inference_tape(|g| {
            let (cost_out, card_out) = forward_batch_memo(model, store, g, chunk, cache);
            denormalize_outputs(g, normalization, cost_out, card_out, chunk.len())
        }));
    }
    out
}

/// [`estimate_batch_memo`] over **raw plans**, state first, building no
/// [`EncodedPlan`]: per chunk of [`GROUP_SIZE`] plans, one signature walk
/// ([`signature_walk`]), then the memoized flatten, which featurizes a
/// node ([`FeatureExtractor::encode_node`], through the extractor's node
/// memo) only when its subtree is neither earlier in the batch nor in
/// `cache` — a plan whose root state is cached costs one walk and one
/// probe — then the shared level loop.
/// Bit-identical to encoding each plan and calling [`estimate_batch_memo`],
/// and it fills and reads the same cache entries.
pub(crate) fn estimate_plans_memo(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    extractor: &FeatureExtractor,
    plans: &[PlanNode],
    cache: &SubtreeStateCache,
) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(plans.len());
    let mut records = Vec::new();
    let mut starts = Vec::with_capacity(GROUP_SIZE);
    for chunk in plans.chunks(GROUP_SIZE) {
        records.clear();
        starts.clear();
        for plan in chunk {
            starts.push(records.len());
            signature_walk(plan, &mut records);
        }
        let trees = chunk.iter().zip(&starts).map(|(plan, &at)| RawTree { plan, records: &records[at..], extractor });
        let batch = MemoBatch::new(trees, cache);
        out.extend(with_inference_tape(|g| {
            let (cost_out, card_out) = batch.forward(model, store, g, cache);
            denormalize_outputs(g, normalization, cost_out, card_out, chunk.len())
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, TreeModel};
    use crate::trainer::{TrainConfig, Trainer};
    use featurize::{EncodingConfig, FeatureExtractor};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, PlanNode, Predicate};
    use std::sync::Arc;
    use strembed::HashBitmapEncoder;

    fn samples(n: usize) -> (Vec<EncodedPlan>, EncodingConfig) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
        let cost = engine::CostModel::default();
        let mut out = Vec::new();
        for i in 0..n {
            let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(Predicate::atom(
                    "title",
                    "production_year",
                    CompareOp::Gt,
                    Operand::Num((1940 + i * 3) as f64),
                )),
            });
            let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
            let mut join = PlanNode::inner(
                PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
                vec![scan_t, scan_mc],
            );
            engine::execute_plan(&db, &mut join, &cost);
            out.push(fx.encode_plan(&join));
        }
        (out, cfg)
    }

    fn bits((cost, card): (f64, f64)) -> (u64, u64) {
        (cost.to_bits(), card.to_bits())
    }

    #[test]
    fn batched_estimates_match_one_by_one() {
        let (plans, cfg) = samples(10);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let batched = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        assert_eq!(batched.len(), plans.len());
        for (plan, batch) in plans.iter().zip(batched.iter()) {
            assert_eq!(bits(trainer.estimate(plan)), bits(*batch), "per-node and batched estimates diverge");
        }
    }

    #[test]
    fn large_batch_crosses_parallel_group_boundary() {
        // More plans than GROUP_SIZE forces the parallel path; results must
        // stay in input order and match the one-by-one estimates.
        let (plans, cfg) = samples(GROUP_SIZE + 9);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let batched = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        assert_eq!(batched.len(), plans.len());
        for (plan, batch) in plans.iter().zip(batched.iter()) {
            assert_eq!(bits(trainer.estimate(plan)), bits(*batch), "per-node and batched estimates diverge");
        }
    }

    #[test]
    fn train_mode_forward_batch_matches_inference_mode() {
        let (plans, cfg) = samples(6);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let mut train_g = Graph::new();
        let (tc, tk) = forward_batch(&model, &model.params, &mut train_g, &refs);
        let mut infer_g = Graph::inference();
        let (ic, ik) = forward_batch(&model, &model.params, &mut infer_g, &refs);
        // On the scalar path the fused gate sweep is bit-identical to the
        // train-mode libm activations; on the AVX2 path the FMA rational
        // sweep perturbs gate values at ulp level, so the heads only agree
        // within the f32 tier's tolerance contract (docs/perf.md).
        match nn::simd::active_path() {
            nn::simd::DispatchPath::Scalar => {
                assert_eq!(train_g.value(tc), infer_g.value(ic), "cost heads diverge across modes");
                assert_eq!(train_g.value(tk), infer_g.value(ik), "card heads diverge across modes");
            }
            _ => {
                for (head, (t, i)) in [("cost", (tc, ic)), ("card", (tk, ik))] {
                    for (a, b) in train_g.value(t).data().iter().zip(infer_g.value(i).data().iter()) {
                        assert!(
                            (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                            "{head} heads diverge across modes: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_batch_is_bit_identical_to_fresh_and_warm() {
        let (plans, cfg) = samples(14);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let fresh = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);

        let cache = crate::memory::SubtreeStateCache::new();
        let cold = estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &refs, &cache);
        assert_eq!(fresh, cold, "cold memoized estimates must be bit-identical to the fresh path");
        assert!(!cache.is_empty(), "forward pass must populate the subtree cache");

        let warm = estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &refs, &cache);
        assert_eq!(fresh, warm, "warm memoized estimates must be bit-identical to the fresh path");

        // The test plans share their join/scan structure heavily (only the
        // scan predicate constant varies), so the warm pass must serve the
        // bulk of the nodes from cache.
        let (seen, computed) = cache.node_stats();
        assert!(seen > computed, "no node was ever served from cache ({seen} seen, {computed} computed)");
        assert!(cache.node_hit_rate() > 0.0);
    }

    #[test]
    fn memoized_batch_combines_cached_subtrees_at_the_fringe() {
        // Score the two scan sub-plans first, then the joins over them: the
        // second call must only embed the join fringe, re-using both scans.
        let (plans, cfg) = samples(4);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let cache = crate::memory::SubtreeStateCache::new();

        let leaves: Vec<&EncodedPlan> = plans.iter().flat_map(|p| p.children.iter().map(|c| c.as_ref())).collect();
        estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &leaves, &cache);
        let (_, computed_leaves) = cache.node_stats();

        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let fresh = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        let memo = estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &refs, &cache);
        assert_eq!(fresh, memo);
        let (_, computed_total) = cache.node_stats();
        // The second pass embeds exactly one new node per distinct plan (the
        // join root); every scan state is injected from the cache.
        assert_eq!(computed_total - computed_leaves, plans.len() as u64);
    }

    #[test]
    fn quantized_batch_tracks_full_precision() {
        let (plans, cfg) = samples(12);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let quant = QuantWeights::from_store(&trainer.model.params);
        assert!(quant.n_quantized() > 0, "model has weight matrices to quantize");

        let full = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        let quantized =
            estimate_batch_refs(&trainer.model, &trainer.model.params, Some(&quant), &trainer.normalization, &refs);
        assert_eq!(quantized.len(), full.len());
        for ((fc, fk), (qc, qk)) in full.iter().zip(quantized.iter()) {
            // int8 weights are approximate; estimates must stay within a
            // modest log-space band of the f32 tier.
            assert!((fc.ln() - qc.ln()).abs() < 0.5, "quant cost diverged: {fc} vs {qc}");
            assert!((fk.ln() - qk.ln()).abs() < 0.5, "quant card diverged: {fk} vs {qk}");
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let (plans, cfg) = samples(2);
        let model = TreeModel::new(&cfg, ModelConfig::default());
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        assert!(estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &[]).is_empty());
    }

    mod memo_property {
        //! Satellite guard: on randomized planner output (generated queries
        //! expanded into candidate join orders), memoized subtree inference
        //! must be **bit-identical** to fresh inference — from encoded plans
        //! and from raw plans, with a cold cache, a warm cache and across
        //! batch compositions — and fresh inference to the per-node
        //! recursion.

        use super::*;
        use crate::memory::SubtreeStateCache;
        use proptest::prelude::*;
        use std::sync::OnceLock;
        use workloads::{generate_enumeration_workload, EnumerationConfig};

        struct Fixture {
            db: Arc<imdb::Database>,
            fx: FeatureExtractor,
            trainer: Trainer,
        }

        fn fixture() -> &'static Fixture {
            static FIX: OnceLock<Fixture> = OnceLock::new();
            FIX.get_or_init(|| {
                let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
                let cfg = EncodingConfig::from_database(&db, 8, 32);
                let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
                let model = TreeModel::new(
                    &cfg,
                    ModelConfig {
                        feature_embed_dim: 8,
                        hidden_dim: 12,
                        estimation_hidden_dim: 8,
                        ..Default::default()
                    },
                );
                let samples = workloads::generate_workload(
                    &db,
                    workloads::WorkloadConfig { num_queries: 12, ..Default::default() },
                );
                let encoded: Vec<EncodedPlan> = samples.iter().map(|s| fx.encode_plan(&s.plan)).collect();
                let trainer = Trainer::new(model, &encoded, TrainConfig::default());
                Fixture { db, fx, trainer }
            })
        }

        proptest! {
            #[test]
            fn memoized_inference_is_bit_identical_on_randomized_planner_output(seed in 0u64..1_000_000) {
                let fixture = fixture();
                let workload = generate_enumeration_workload(
                    &fixture.db,
                    EnumerationConfig {
                        num_queries: 1,
                        min_joins: 1,
                        max_joins: 3,
                        max_candidates_per_query: 12,
                        seed,
                    },
                );
                prop_assert!(!workload.is_empty(), "no enumerable query for seed {seed}");
                let encoded: Vec<EncodedPlan> =
                    workload[0].candidates.iter().map(|c| fixture.fx.encode_plan(c)).collect();
                let refs: Vec<&EncodedPlan> = encoded.iter().collect();
                let t = &fixture.trainer;

                let fresh = estimate_batch(&t.model, &t.model.params, &t.normalization, &encoded);
                // The per-node recursion shares no code with the level loop:
                // it is the independent oracle for both batched forwards.
                for (plan, batch) in encoded.iter().zip(fresh.iter()) {
                    prop_assert_eq!(bits(t.estimate(plan)), bits(*batch));
                }
                let cache = SubtreeStateCache::new();
                let cold = estimate_batch_memo(&t.model, &t.model.params, &t.normalization, &refs, &cache);
                prop_assert_eq!(&fresh, &cold);
                let warm = estimate_batch_memo(&t.model, &t.model.params, &t.normalization, &refs, &cache);
                prop_assert_eq!(&fresh, &warm);
                // One-at-a-time scoring against the warm cache must also be
                // bit-identical: batch composition cannot leak into columns.
                for (plan, expected) in refs.iter().zip(fresh.iter()) {
                    let single =
                        estimate_batch_memo(&t.model, &t.model.params, &t.normalization, &[plan], &cache);
                    prop_assert_eq!(&single[0], expected);
                }

                // The raw arm: signature walk, state-first flatten and
                // featurize-on-miss, from raw plans.  Cold, warm, then one
                // plan at a time on a fresh cache, so later plans meet the
                // subtrees earlier ones left at their fringe.
                let candidates = &workload[0].candidates;
                let raw = |plans: &[PlanNode], cache: &SubtreeStateCache| {
                    let out = estimate_plans_memo(&t.model, &t.model.params, &t.normalization, &fixture.fx, plans, cache);
                    out.into_iter().map(bits).collect::<Vec<_>>()
                };
                let want: Vec<(u64, u64)> = fresh.iter().map(|&e| bits(e)).collect();
                let raw_cache = SubtreeStateCache::new();
                prop_assert_eq!(&raw(candidates, &raw_cache), &want);
                prop_assert_eq!(&raw(candidates, &raw_cache), &want);
                let single_cache = SubtreeStateCache::new();
                for (plan, expected) in candidates.iter().zip(&want) {
                    prop_assert_eq!(&raw(std::slice::from_ref(plan), &single_cache)[0], expected);
                }
            }
        }
    }

    #[test]
    fn single_leaf_plan_in_batch() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
        let mut scan = PlanNode::leaf(PhysicalOp::SeqScan { table: "keyword".into(), predicate: None });
        engine::execute_plan(&db, &mut scan, &engine::CostModel::default());
        let plan = fx.encode_plan(&scan);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, std::slice::from_ref(&plan), TrainConfig::default());
        let out =
            estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, std::slice::from_ref(&plan));
        assert_eq!(out.len(), 1);
        assert!(out[0].0.is_finite() && out[0].1.is_finite());
    }
}
