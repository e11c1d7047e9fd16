//! Level-wise batched inference (Section 4.3, "Batch Training").
//!
//! Instead of running the representation cell once per node per plan, all
//! nodes at the same tree level (height above the leaves) across a whole
//! batch of plans are packed into one matrix and the cell runs once per
//! level.  The model only needs `D` cell invocations for a batch (where `D`
//! is the maximum tree depth) instead of one per node — the speed-up that
//! Table 12 measures.
//!
//! # One level loop, two head sweeps
//!
//! Every batched forward goes through one f32 level loop
//! (`LevelBatch::embed`).  A `LevelBatch` holds a batch's nodes in
//! pre-order, with the fresh ones bucketed by level; the loop injects the
//! cached states they read as children, then per level embeds the
//! features, gathers the children states and applies the cell.  Two head
//! sweeps read its states:
//!
//! * [`forward_batch`] runs the heads over the roots.  Its batch has no
//!   cache, so every node is fresh and none is deduplicated.  It serves
//!   training (on a train-mode tape; `Trainer::train` seeds both heads and
//!   runs one backward sweep), validation, the fresh oracle
//!   ([`estimate_batch`]) and Table 12's batch row.
//! * The memoized sweep (`estimate_batch_memo`, and `estimate_plans_memo`
//!   for raw plans, behind [`ServingEstimator`]) runs the heads over every
//!   sub-plan embedded fresh, and stores each one's state and denormalized
//!   estimate in the generation's sharded [`SubtreeStateCache`], keyed by
//!   the 64-bit sub-plan signature.  Before that, each sub-plan is
//!   deduplicated by signature within the batch and probed in the cache, so
//!   a DP enumeration embeds each distinct subtree once, re-scores candidate
//!   plans by combining cached states at the fringe, and answers a
//!   candidate whose root is cached from its entry.  A call with nothing
//!   fresh touches no tape.
//!
//! Raw plans enter the memoized sweep **state first** (`estimate_plans_memo`,
//! behind `ServingEstimator::estimate_plans`): one signature walk per plan
//! keys every sub-plan, the batch probes itself and the cache top-down, and
//! only a node that misses both is featurized — no `EncodedPlan` is built, so
//! a plan whose root is cached costs a walk and a lookup.
//!
//! # Hot-path layout
//!
//! * fresh nodes are bucketed by level in **one pass** (`O(N)`), not
//!   re-scanned once per level (`O(D·N)`);
//! * per-node cell state lives in a dense `Vec` indexed by node, not a
//!   `HashMap`;
//! * the feature embedding layers run once per level over column-stacked
//!   inputs ([`TreeModel::embed_nodes_batch`]) instead of once per node;
//! * inference runs on an inference-mode tape ([`Graph::inference`]): no
//!   gradient slots, no op metadata;
//! * tapes are **per-thread** (with a parking pool handing warm tapes from
//!   finished threads to new ones), so concurrent estimators never
//!   serialize on a shared tape lock;
//! * independent groups of plans are estimated in parallel with rayon.
//!
//! The per-node recursion [`TreeModel::forward`] shares no code with the
//! level loop and returns the same bits, so it is the oracle both head
//! sweeps are tested against (and Table 12's one-by-one row).

use crate::api::ServingEstimator;
use crate::memory::SubtreeStateCache;
use crate::model::TreeModel;
use crate::trainer::TargetNormalization;
use featurize::{EncodedPlan, FeatureExtractor, NodeFeatures};
use nn::cells::CellOutput;
use nn::{Graph, NodeId};
use query::{IdentityHasher, PlanNode};
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Plans per parallel group.  Large enough that the per-level matrices fill
/// the blocked-matmul tiles and the per-level tape overhead amortizes,
/// small enough that large batches still split across cores.  Public so
/// harnesses comparing against the batched path can chunk identically.
pub const GROUP_SIZE: usize = 64;

/// Dense per-node cell state: a (level-output node, column) pair per channel
/// — columns are gathered lazily with one `gather_cols` tape node per
/// channel per level instead of one `column_at` node per plan node.
#[derive(Clone, Copy)]
struct StateRef {
    g: (NodeId, usize),
    r: (NodeId, usize),
}

/// Estimate a batch of encoded plans with level-wise batching and no
/// memoization (the fresh oracle).
///
/// Returns `(cost, cardinality)` per plan, in input order, denormalized with
/// `normalization`.  Groups of [`GROUP_SIZE`] plans are estimated in
/// parallel.
pub fn estimate_batch(
    model: &TreeModel,
    normalization: &TargetNormalization,
    plans: &[&EncodedPlan],
) -> Vec<(f64, f64)> {
    if plans.is_empty() {
        return Vec::new();
    }
    let group = |chunk: &[&EncodedPlan]| {
        with_inference_tape(|g| {
            let (cost_out, card_out) = forward_batch(model, g, chunk);
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
/// plan order, normalized space): the level loop, then the heads over the
/// roots.
///
/// On a train-mode graph this is the forward half of mini-batch training
/// (`Trainer::train` seeds both heads and runs one backward sweep); on an
/// inference-mode graph it is the Table-12 batched estimation path.
///
/// # Panics
/// Panics if `plans` is empty.
pub fn forward_batch(model: &TreeModel, g: &mut Graph, plans: &[&EncodedPlan]) -> (NodeId, NodeId) {
    assert!(!plans.is_empty(), "forward_batch needs at least one plan");
    let batch = LevelBatch::new(plans.iter().copied(), None);
    let states = batch.embed(model, g);
    let root_rs: Vec<(NodeId, usize)> =
        batch.roots.iter().map(|&r| states[r].expect("every node of an uncached batch is embedded").r).collect();
    let r_batch = g.gather_cols(&root_rs);
    model.estimate_from_representation(g, r_batch)
}

/// Where a batch node's state comes from: a cached entry — the root of a
/// memoized subtree, pruned there — or the level loop, which embeds the
/// node's shared features.
enum NodeSource {
    /// A cached sub-plan: its stored estimate, which answers it as a plan,
    /// and, once a fresh node reads it as a child, the column its `G‖R`
    /// took in the batch's fringe buffer.
    Cached {
        estimate: (f64, f64),
        column: Option<usize>,
    },
    Fresh(Arc<NodeFeatures>),
}

/// One node of a [`LevelBatch`].
struct BatchNode {
    height: usize,
    children: Vec<usize>,
    signature: u64,
    source: NodeSource,
}

impl BatchNode {
    /// The features the level loop embeds.
    ///
    /// # Panics
    /// Panics on a cached node, which the loop never embeds.
    fn features(&self) -> &NodeFeatures {
        match &self.source {
            NodeSource::Fresh(features) => features,
            NodeSource::Cached { .. } => unreachable!("the level loop embeds fresh nodes only"),
        }
    }
}

/// A plan tree [`LevelBatch::new`] can walk: an encoded plan, whose
/// features it shares, or a raw plan ([`RawTree`]), whose node is
/// featurized (through the node memo) only when its subtree misses both the
/// batch and the cache.
trait PlanTree: Copy {
    fn signature(self) -> u64;
    /// Plan nodes in the subtree.
    fn size(self) -> usize;
    fn features(self) -> Arc<NodeFeatures>;
    fn children(self) -> impl Iterator<Item = Self>;
}

impl PlanTree for &EncodedPlan {
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

impl PlanTree for RawTree<'_> {
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

/// A batch of plans laid out for the level loop: its nodes in pre-order,
/// each plan's root, the fresh nodes bucketed by level, and the node
/// accounting for the cache's serving stats — how many plan nodes were
/// submitted (`seen_nodes`) vs. will actually be embedded (`computed`).
struct LevelBatch {
    nodes: Vec<BatchNode>,
    roots: Vec<usize>,
    /// Fresh node indices by height: `levels[h - 1]` holds those at height
    /// `h`, in node order.  Empty when nothing is fresh.
    levels: Vec<Vec<usize>>,
    /// Signature → node index, filled only with a cache.  Keyed like the
    /// shared caches: signatures are splitmix-finalized, so the map skips
    /// re-hashing, and it lives for one chunk of at most [`GROUP_SIZE`]
    /// plans.
    dedup: HashMap<u64, usize, BuildHasherDefault<IdentityHasher>>,
    /// `G‖R` of each cached node a fresh node reads as a child, copied out
    /// of the cache by its probe: one `2 × hidden` block per fringe column,
    /// `G` first.
    fringe: Vec<f32>,
    /// The node behind each fringe column.
    fringe_nodes: Vec<usize>,
    seen_nodes: u64,
    computed: u64,
}

impl LevelBatch {
    /// Lay out `plans` in pre-order.  With a `cache`, each sub-plan is
    /// deduplicated by signature within the batch and probed in the cache,
    /// top-down.  Without one, every node is fresh and none is
    /// deduplicated: a training batch must keep each plan's nodes apart, or
    /// merged columns would merge their gradient sums.
    fn new<T: PlanTree>(plans: impl ExactSizeIterator<Item = T>, cache: Option<&SubtreeStateCache>) -> Self {
        let n = plans.len();
        let mut batch = LevelBatch {
            nodes: Vec::with_capacity(n),
            roots: Vec::with_capacity(n),
            levels: Vec::new(),
            dedup: HashMap::with_capacity_and_hasher(if cache.is_some() { n } else { 0 }, Default::default()),
            fringe: Vec::new(),
            fringe_nodes: Vec::new(),
            seen_nodes: 0,
            computed: 0,
        };
        let mut max_height = 1;
        for plan in plans {
            let (root, height) = batch.push_tree(plan, cache, false);
            batch.roots.push(root);
            max_height = max_height.max(height);
        }
        if batch.computed > 0 {
            batch.levels = vec![Vec::new(); max_height];
            for (i, node) in batch.nodes.iter().enumerate() {
                if let NodeSource::Fresh(_) = node.source {
                    batch.levels[node.height - 1].push(i);
                }
            }
        }
        batch
    }

    /// Append `tree`'s nodes in pre-order; returns `(node index, height)`.
    /// `child` says whether a fresh node reads `tree` as a child.  With a
    /// `cache`, a sub-plan already in the batch is served by its earlier
    /// node (a DP enumeration's candidates share almost all of their
    /// subtrees, and each distinct subtree must enter the level loop exactly
    /// once), and a cached one is pruned at its root, its probe copying what
    /// its reader needs: a plan's root its estimate, a child its `G‖R` into
    /// the fringe buffer too.  Only a node that misses both is featurized
    /// and descended into.
    fn push_tree<T: PlanTree>(&mut self, tree: T, cache: Option<&SubtreeStateCache>, child: bool) -> (usize, usize) {
        let signature = tree.signature();
        let idx = self.nodes.len();
        if let Some(cache) = cache {
            if let Some(&seen) = self.dedup.get(&signature) {
                if !child || self.readable_as_child(seen, cache) {
                    self.seen_nodes += tree.size() as u64;
                    return (seen, self.nodes[seen].height);
                }
                // `seen` is a cached root whose entry was replaced since its
                // probe: this occurrence is laid out anew below.
            }
            self.dedup.insert(signature, idx);
            let hit = if child { cache.read_state(signature, &mut self.fringe) } else { cache.estimate(signature) };
            if let Some(estimate) = hit {
                let column = child.then(|| self.push_fringe(idx));
                let source = NodeSource::Cached { estimate, column };
                self.nodes.push(BatchNode { height: 1, children: Vec::new(), signature, source });
                self.seen_nodes += tree.size() as u64;
                return (idx, 1);
            }
        }
        self.seen_nodes += 1;
        self.computed += 1;
        let source = NodeSource::Fresh(tree.features());
        self.nodes.push(BatchNode { height: 1, children: Vec::new(), signature, source });
        let mut children = Vec::new();
        let mut max_child_height = 0;
        for c in tree.children() {
            let (cid, ch) = self.push_tree(c, cache, true);
            children.push(cid);
            max_child_height = max_child_height.max(ch);
        }
        let height = 1 + max_child_height;
        self.nodes[idx].children = children;
        self.nodes[idx].height = height;
        (idx, height)
    }

    /// Give node `i`, whose `G‖R` was just appended to the fringe buffer,
    /// the next fringe column.
    fn push_fringe(&mut self, i: usize) -> usize {
        self.fringe_nodes.push(i);
        self.fringe_nodes.len() - 1
    }

    /// Whether node `i` can be read as a fresh node's child: a fresh node
    /// can, and so can a cached one whose `G‖R` is in the fringe buffer.  A
    /// cached node probed only as a plan's root copies its `G‖R` now; false
    /// if its entry was replaced since that probe.
    fn readable_as_child(&mut self, i: usize, cache: &SubtreeStateCache) -> bool {
        if !matches!(self.nodes[i].source, NodeSource::Cached { column: None, .. }) {
            return true;
        }
        if cache.read_state(self.nodes[i].signature, &mut self.fringe).is_none() {
            return false;
        }
        let fringe_column = self.push_fringe(i);
        if let NodeSource::Cached { column, .. } = &mut self.nodes[i].source {
            *column = Some(fringe_column);
        }
        true
    }

    /// The level loop: inject the cached states fresh nodes read as
    /// children (two batched input columns), then per level embed the fresh
    /// nodes' features, gather their children states and apply the cell.
    /// Only a missing child — a leaf's, or a one-child node's right — reads
    /// the zero state.  Returns every node's state, indexed like `nodes`:
    /// the embedded ones and the injected fringe.
    ///
    /// # Panics
    /// Panics if a present child has no state: a cached child left out of
    /// the fringe is a layout fault, and the zero state would hide it.
    fn embed(&self, model: &TreeModel, g: &mut Graph) -> Vec<Option<StateRef>> {
        let mut states: Vec<Option<StateRef>> = vec![None; self.nodes.len()];
        if !self.fringe_nodes.is_empty() {
            let hidden = model.config.hidden_dim;
            let blocks = self.fringe.chunks_exact(2 * hidden);
            let g_cols: Vec<&[f32]> = blocks.clone().map(|s| &s[..hidden]).collect();
            let r_cols: Vec<&[f32]> = blocks.map(|s| &s[hidden..]).collect();
            let inj_g = g.input_columns(hidden, &g_cols);
            let inj_r = g.input_columns(hidden, &r_cols);
            for (col, &i) in self.fringe_nodes.iter().enumerate() {
                states[i] = Some(StateRef { g: (inj_g, col), r: (inj_r, col) });
            }
        }
        let zero = model.zero_state_batch(g, 1);
        let zero_ref = StateRef { g: (zero.g, 0), r: (zero.r, 0) };

        for level in &self.levels {
            if level.is_empty() {
                continue;
            }
            // The op/meta/sample embedding layers run once over
            // column-stacked inputs.
            let feats: Vec<&NodeFeatures> = level.iter().map(|&i| self.nodes[i].features()).collect();
            let x_batch = model.embed_nodes_batch(g, &feats);

            let mut left_g = Vec::with_capacity(level.len());
            let mut left_r = Vec::with_capacity(level.len());
            let mut right_g = Vec::with_capacity(level.len());
            let mut right_r = Vec::with_capacity(level.len());
            for &i in level {
                let children = &self.nodes[i].children;
                let [left, right] = [0, 1]
                    .map(|k| children.get(k).map_or(zero_ref, |&c| states[c].expect("a present child has no state")));
                left_g.push(left.g);
                left_r.push(left.r);
                right_g.push(right.g);
                right_r.push(right.r);
            }
            let left = CellOutput { g: g.gather_cols(&left_g), r: g.gather_cols(&left_r) };
            let right = CellOutput { g: g.gather_cols(&right_g), r: g.gather_cols(&right_r) };

            let out = model.apply_cell(g, x_batch, left, right);
            for (col, &i) in level.iter().enumerate() {
                states[i] = Some(StateRef { g: (out.g, col), r: (out.r, col) });
            }
        }
        states
    }

    /// The memoized estimate: appends one estimate per plan to `out`.  A
    /// cached root answers from its entry; fresh sub-plans are embedded and
    /// scored on a tape ([`LevelBatch::score_fresh`]), which a batch with
    /// nothing fresh never touches.
    fn estimate(&self, serving: &ServingEstimator, out: &mut Vec<(f64, f64)>) {
        serving.cache().record_nodes(self.seen_nodes, self.computed);
        let mut estimates: Vec<(f64, f64)> = self
            .nodes
            .iter()
            .map(|n| match n.source {
                NodeSource::Cached { estimate, .. } => estimate,
                NodeSource::Fresh(_) => (f64::NAN, f64::NAN),
            })
            .collect();
        if self.computed > 0 {
            with_inference_tape(|g| self.score_fresh(serving, g, &mut estimates));
        }
        out.extend(self.roots.iter().map(|&r| estimates[r]));
    }

    /// The level loop, then one heads sweep over every fresh sub-plan, level
    /// by level; each one's `G‖R` is written off the tape straight into its
    /// slot in the generation's cache with its estimate, which also goes
    /// into `estimates`.
    fn score_fresh(&self, serving: &ServingEstimator, g: &mut Graph, estimates: &mut [(f64, f64)]) {
        let model = serving.model();
        let states = self.embed(model, g);
        let mut fresh: Vec<(usize, StateRef)> = Vec::with_capacity(self.computed as usize);
        for level in &self.levels {
            fresh.extend(level.iter().map(|&i| (i, states[i].expect("the level loop embeds every fresh node"))));
        }
        let fresh_rs: Vec<(NodeId, usize)> = fresh.iter().map(|(_, s)| s.r).collect();
        let r_batch = g.gather_cols(&fresh_rs);
        let (cost_out, card_out) = model.estimate_from_representation(g, r_batch);
        let fresh_estimates = denormalize_outputs(g, serving.normalization(), cost_out, card_out, fresh.len());
        let hidden = model.config.hidden_dim;
        for (&(i, s), estimate) in fresh.iter().zip(fresh_estimates) {
            serving.cache().insert(self.nodes[i].signature, estimate, |slot| {
                let (sg, sr) = slot.split_at_mut(hidden);
                g.copy_column(s.g.0, s.g.1, sg);
                g.copy_column(s.r.0, s.r.1, sr);
            });
            estimates[i] = estimate;
        }
    }
}

/// Memoized batched estimation — the serving-layer forward of the optimizer
/// loop, sharing the generation's subtree-state cache across calls (and
/// across threads — the cache is sharded and the tape is thread-local, so
/// concurrent serving threads never serialize on a global lock).
///
/// Before embedding anything, every sub-plan is deduplicated against the
/// rest of the batch and looked up in the cache by its 64-bit signature.  A
/// plan whose root hits is answered from the entry's stored estimate.  A
/// hit below a fresh node re-enters the tape as an injected `(G, R)` input
/// column ([`Graph::input_columns`]), and only the fringe above it is
/// embedded.  One heads sweep then scores every fresh sub-plan, and each
/// one's state columns ([`Graph::copy_column`]) and estimate are memoized,
/// so a DP enumeration embeds each distinct subtree once no matter how many
/// candidate plans contain it.
///
/// Estimates are **bit-identical** to the memoization-free [`estimate_batch`]:
/// injected states and stored estimates are verbatim copies of previously
/// computed values, and every kernel's per-column result — the cell's and
/// the heads' — is independent of which other columns share its batch
/// (`memoized_inference_is_bit_identical_*` pins this).
///
/// Runs chunks of [`GROUP_SIZE`] plans sequentially on the calling thread:
/// in the serving layer, concurrency comes from the caller's worker threads,
/// and an internal fan-out per request would only fight them for cores.
pub(crate) fn estimate_batch_memo(serving: &ServingEstimator, plans: &[&EncodedPlan]) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(plans.len());
    for chunk in plans.chunks(GROUP_SIZE) {
        LevelBatch::new(chunk.iter().copied(), Some(serving.cache())).estimate(serving, &mut out);
    }
    out
}

/// [`estimate_batch_memo`] over **raw plans**, state first, building no
/// [`EncodedPlan`]: per chunk of [`GROUP_SIZE`] plans, one signature walk
/// ([`signature_walk`]), then the memoized layout, which featurizes a node
/// ([`FeatureExtractor::encode_node`], through the extractor's node memo)
/// only when its subtree is neither earlier in the batch nor in the cache — a
/// plan whose root is cached costs one walk and one probe, and touches no
/// tape — then the level loop.
/// Bit-identical to encoding each plan and calling [`estimate_batch_memo`],
/// and it fills and reads the same cache entries.
pub(crate) fn estimate_plans_memo(serving: &ServingEstimator, plans: &[PlanNode]) -> Vec<(f64, f64)> {
    let extractor = serving.extractor();
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
        LevelBatch::new(trees, Some(serving.cache())).estimate(serving, &mut out);
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

    fn samples(n: usize) -> (Vec<EncodedPlan>, Arc<FeatureExtractor>) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = Arc::new(FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8))));
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
        (out, fx)
    }

    fn bits((cost, card): (f64, f64)) -> (u64, u64) {
        (cost.to_bits(), card.to_bits())
    }

    #[test]
    fn batched_estimates_match_one_by_one() {
        let (plans, fx) = samples(10);
        let model = TreeModel::new(
            fx.config(),
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let batched = estimate_batch(&trainer.model, &trainer.normalization, &refs);
        assert_eq!(batched.len(), plans.len());
        for (plan, batch) in plans.iter().zip(batched.iter()) {
            assert_eq!(bits(trainer.estimate(plan)), bits(*batch), "per-node and batched estimates diverge");
        }
    }

    #[test]
    fn large_batch_crosses_parallel_group_boundary() {
        // More plans than GROUP_SIZE forces the parallel path; results must
        // stay in input order and match the one-by-one estimates.
        let (plans, fx) = samples(GROUP_SIZE + 9);
        let model = TreeModel::new(
            fx.config(),
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let batched = estimate_batch(&trainer.model, &trainer.normalization, &refs);
        assert_eq!(batched.len(), plans.len());
        for (plan, batch) in plans.iter().zip(batched.iter()) {
            assert_eq!(bits(trainer.estimate(plan)), bits(*batch), "per-node and batched estimates diverge");
        }
    }

    #[test]
    fn train_mode_forward_batch_matches_inference_mode() {
        let (plans, fx) = samples(6);
        let model = TreeModel::new(
            fx.config(),
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let mut train_g = Graph::new();
        let (tc, tk) = forward_batch(&model, &mut train_g, &refs);
        let mut infer_g = Graph::inference();
        let (ic, ik) = forward_batch(&model, &mut infer_g, &refs);
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
        let (plans, fx) = samples(14);
        let model = TreeModel::new(
            fx.config(),
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let fresh = estimate_batch(&trainer.model, &trainer.normalization, &refs);

        let serving = ServingEstimator::new(&trainer, fx);
        let cache = serving.cache();
        let cold = estimate_batch_memo(&serving, &refs);
        assert_eq!(fresh, cold, "cold memoized estimates must be bit-identical to the fresh path");
        assert!(!cache.is_empty(), "forward pass must populate the subtree cache");

        let warm = estimate_batch_memo(&serving, &refs);
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
        let (plans, fx) = samples(4);
        let model = TreeModel::new(
            fx.config(),
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let serving = ServingEstimator::new(&trainer, fx);
        let cache = serving.cache();

        let leaves: Vec<&EncodedPlan> = plans.iter().flat_map(|p| p.children.iter().map(|c| c.as_ref())).collect();
        estimate_batch_memo(&serving, &leaves);
        let (_, computed_leaves) = cache.node_stats();

        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let fresh = estimate_batch(&trainer.model, &trainer.normalization, &refs);
        let memo = estimate_batch_memo(&serving, &refs);
        assert_eq!(fresh, memo);
        let (_, computed_total) = cache.node_stats();
        // The second pass embeds exactly one new node per distinct plan (the
        // join root); every scan state is injected from the cache.
        assert_eq!(computed_total - computed_leaves, plans.len() as u64);
    }

    #[test]
    fn a_cached_sub_plan_serves_as_root_and_fringe_in_one_chunk() {
        // A cached scan submitted as a plan of its own and read as a child
        // by a fresh join in the same chunk, in both orders: as a root first
        // (its probe copies only the estimate, so the join's read copies its
        // G‖R later) and as a child first (the root reuses the fringe node).
        let (plans, fx) = samples(2);
        let model = TreeModel::new(
            fx.config(),
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let shared_scan = plans[0].children[1].as_ref();
        assert_eq!(shared_scan.signature, plans[1].children[1].signature, "both joins read the same scan");
        let chunks: [Vec<&EncodedPlan>; 2] = [vec![shared_scan, &plans[0]], vec![&plans[1], shared_scan]];
        for (order, chunk) in ["root first", "child first"].iter().zip(&chunks) {
            let serving = ServingEstimator::new(&trainer, Arc::clone(&fx));
            let cache = serving.cache();
            let leaves: Vec<&EncodedPlan> = plans.iter().flat_map(|p| p.children.iter().map(|c| c.as_ref())).collect();
            estimate_batch_memo(&serving, &leaves);
            let (_, computed_leaves) = cache.node_stats();

            let fresh = estimate_batch(&trainer.model, &trainer.normalization, chunk);
            let memo = estimate_batch_memo(&serving, chunk);
            let (fresh, memo): (Vec<_>, Vec<_>) =
                (fresh.into_iter().map(bits).collect(), memo.into_iter().map(bits).collect());
            assert_eq!(fresh, memo, "{order}: memo and fresh diverge");
            assert_eq!(cache.node_stats().1 - computed_leaves, 1, "{order}: only the join is embedded");
        }
    }

    /// A fresh join over a cached scan whose `G‖R` never entered the
    /// fringe: a layout fault.  The join must not read the zero state in
    /// its place, which would serve a wrong estimate silently.
    #[test]
    #[should_panic(expected = "a present child has no state")]
    fn a_present_child_without_a_state_panics_at_its_parent() {
        let (plans, fx) = samples(1);
        let model = TreeModel::new(
            fx.config(),
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let (join, scan) = (&plans[0], &plans[0].children[0]);
        let batch = LevelBatch {
            nodes: vec![
                BatchNode {
                    height: 2,
                    children: vec![1],
                    signature: join.signature,
                    source: NodeSource::Fresh(Arc::clone(&join.features)),
                },
                BatchNode {
                    height: 1,
                    children: Vec::new(),
                    signature: scan.signature,
                    source: NodeSource::Cached { estimate: (1.0, 1.0), column: None },
                },
            ],
            roots: vec![0],
            levels: vec![Vec::new(), vec![0]],
            dedup: HashMap::default(),
            fringe: Vec::new(),
            fringe_nodes: Vec::new(),
            seen_nodes: 2,
            computed: 1,
        };
        batch.embed(&model, &mut Graph::inference());
    }

    #[test]
    fn empty_batch_returns_empty() {
        let (plans, fx) = samples(2);
        let model = TreeModel::new(fx.config(), ModelConfig::default());
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        assert!(estimate_batch(&trainer.model, &trainer.normalization, &[]).is_empty());
    }

    mod memo_property {
        //! Satellite guard: on randomized planner output (generated queries
        //! expanded into candidate join orders), memoized subtree inference
        //! must be **bit-identical** to fresh inference — from encoded plans
        //! and from raw plans, with a cold cache, a warm cache, across batch
        //! compositions and with cached and fresh roots in one chunk — and
        //! fresh inference to the per-node recursion.  Every sub-plan's
        //! stored estimate must be the per-node recursion's answer for that
        //! sub-plan as a plan.

        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;
        use workloads::{generate_enumeration_workload, EnumerationConfig};

        struct Fixture {
            db: Arc<imdb::Database>,
            fx: Arc<FeatureExtractor>,
            trainer: Trainer,
        }

        fn fixture() -> &'static Fixture {
            static FIX: OnceLock<Fixture> = OnceLock::new();
            FIX.get_or_init(|| {
                let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
                let cfg = EncodingConfig::from_database(&db, 8, 32);
                let fx = Arc::new(FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8))));
                let model = TreeModel::new(
                    fx.config(),
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

                let fresh = estimate_batch(&t.model, &t.normalization, &refs);
                // The per-node recursion shares no code with the level loop:
                // it is the independent oracle for both batched forwards.
                for (plan, batch) in encoded.iter().zip(fresh.iter()) {
                    prop_assert_eq!(bits(t.estimate(plan)), bits(*batch));
                }
                // A new generation per arm: each starts with an empty cache.
                let serve = || ServingEstimator::new(t, Arc::clone(&fixture.fx));
                let memo = serve();
                let cold = estimate_batch_memo(&memo, &refs);
                prop_assert_eq!(&fresh, &cold);
                let warm = estimate_batch_memo(&memo, &refs);
                prop_assert_eq!(&fresh, &warm);
                // One-at-a-time scoring against the warm cache must also be
                // bit-identical: batch composition cannot leak into columns.
                for (plan, expected) in refs.iter().zip(fresh.iter()) {
                    let single = estimate_batch_memo(&memo, &[plan]);
                    prop_assert_eq!(&single[0], expected);
                }
                // A mixed chunk: the first half of the candidates is cached,
                // so one call answers cached roots from their entries and
                // embeds the rest over cached children.
                let half = refs.len() / 2;
                let mixed_memo = serve();
                estimate_batch_memo(&mixed_memo, &refs[..half]);
                let mixed = estimate_batch_memo(&mixed_memo, &refs);
                prop_assert_eq!(&fresh, &mixed);

                // The raw arm: signature walk, state-first flatten and
                // featurize-on-miss, from raw plans.  Cold, warm, then one
                // plan at a time on a fresh cache, so later plans meet the
                // subtrees earlier ones left at their fringe.
                let candidates = &workload[0].candidates;
                let raw = |plans: &[PlanNode], memo: &ServingEstimator| {
                    estimate_plans_memo(memo, plans).into_iter().map(bits).collect::<Vec<_>>()
                };
                let want: Vec<(u64, u64)> = fresh.iter().map(|&e| bits(e)).collect();
                let raw_memo = serve();
                let raw_cache = raw_memo.cache();
                prop_assert_eq!(&raw(candidates, &raw_memo), &want);
                // The cold pass left an entry for every sub-plan of every
                // candidate.  A non-root entry answers that sub-plan the
                // first time the optimizer submits it as a candidate, so its
                // estimate must be the per-node recursion's over the
                // sub-plan encoded as its own plan.
                let mut subplans: Vec<&PlanNode> = candidates.iter().collect();
                while let Some(sub) = subplans.pop() {
                    let state = raw_cache.estimate(sub.signature_hash());
                    prop_assert!(state.is_some(), "a sub-plan of a cold pass has no entry");
                    let expected = bits(t.estimate(&fixture.fx.encode_plan(sub)));
                    prop_assert_eq!(bits(state.unwrap()), expected);
                    subplans.extend(&sub.children);
                }
                prop_assert_eq!(&raw(candidates, &raw_memo), &want);
                let mixed_memo = serve();
                raw(&candidates[..half], &mixed_memo);
                prop_assert_eq!(&raw(candidates, &mixed_memo), &want);
                let single_memo = serve();
                for (plan, expected) in candidates.iter().zip(&want) {
                    prop_assert_eq!(&raw(std::slice::from_ref(plan), &single_memo)[0], expected);
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
        let out = estimate_batch(&trainer.model, &trainer.normalization, &[&plan]);
        assert_eq!(out.len(), 1);
        assert!(out[0].0.is_finite() && out[0].1.is_finite());
    }
}
