//! Plan-node feature extraction (Section 4.1).
//!
//! Every plan node is encoded into the four feature groups of the paper —
//! Operation, Metadata, Predicate and Sample Bitmap — and the plan tree is
//! encoded into an [`EncodedPlan`] mirroring its structure, with the true
//! cost/cardinality attached as training targets.
//!
//! Featurization is on the optimizer's critical path (every DP candidate is
//! encoded before it can be priced), so the hot paths are allocation-
//! disciplined and memoized:
//!
//! * the three fixed-width groups of a node are written into **one
//!   contiguous slab** ([`NodeFeatures`]) through the `encode_*_into`
//!   forms, instead of one heap `Vec` per group;
//! * dictionary probes key [`EncodingConfig`]'s maps by the plan's
//!   interned [`query::Name`]s — no `String` per lookup;
//! * whole node encodings are memoized by **operator content** in the
//!   extractor's node memo, shared by every encode path
//!   ([`FeatureExtractor::encode_node`]): a node's features depend on its
//!   own operator alone, optimizer traffic repeats operators far more often
//!   than subtrees, and the inputs (dictionaries, string encoder, table
//!   sample) are immutable per extractor, so entries never go stale.
//!   Encoded plans share the memoized features by `Arc`, so the
//!   sample-bitmap sweep — the single most expensive encode step — runs
//!   once per distinct scan;
//! * whole sub-plan encodings are memoized by structural signature and
//!   annotations in a caller-owned encode cache
//!   ([`FeatureExtractor::encode_plans_cached`]), so DP enumeration encodes
//!   each distinct subtree once while its entry stays.
//!
//! Both memos are a [`SigCache`]: 16 shards of bounded slabs with random
//! replacement, at [`NODE_MEMO_SLOTS_PER_SHARD`] and
//! [`ENCODE_SLOTS_PER_SHARD`] slots per shard.
//!
//! Every memoized path is **bit-identical** to a fresh encode (the node
//! memo switched off with `use_bitmap_memo = false`): encoding is
//! deterministic in the plan and the extractor, and cache keys cover the
//! full content they stand for (a node's operator; a subtree's structure
//! *and* annotations), so a hit can only ever return exactly the bits a
//! miss would have computed.

use crate::config::EncodingConfig;
use imdb::Database;
use query::{AtomPredicate, CompareOp, Name, Operand, PhysicalOp, PlanNode, Predicate, SigCache, SigHasher};
use std::cell::RefCell;
use std::sync::Arc;
use strembed::StringEncoder;

/// Encoded predicate tree: the min/max pooling model consumes the structure,
/// the tree-LSTM predicate variant consumes its DFS linearization.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateEncoding {
    /// No predicate on this node.
    None,
    /// An encoded atomic predicate.
    Atom(Vec<f32>),
    /// Conjunction of two sub-predicates (min pooling).
    And(Box<PredicateEncoding>, Box<PredicateEncoding>),
    /// Disjunction of two sub-predicates (max pooling).
    Or(Box<PredicateEncoding>, Box<PredicateEncoding>),
}

impl PredicateEncoding {
    /// Number of atom vectors in the encoding.
    pub fn num_atoms(&self) -> usize {
        match self {
            PredicateEncoding::None => 0,
            PredicateEncoding::Atom(_) => 1,
            PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => l.num_atoms() + r.num_atoms(),
        }
    }

    /// DFS linearization of the atom vectors (the one-to-one sequence mapping
    /// of Figure 4, without the explicit backtracking padding — structure is
    /// recovered from the tree itself).
    pub fn dfs_atoms(&self) -> Vec<&[f32]> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect<'a>(&'a self, out: &mut Vec<&'a [f32]>) {
        match self {
            PredicateEncoding::None => {}
            PredicateEncoding::Atom(v) => out.push(v),
            PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => {
                l.collect(out);
                r.collect(out);
            }
        }
    }
}

/// The four encoded feature groups of one plan node.
///
/// The three fixed-width groups (operation one-hot ⧺ metadata bitmap ⧺
/// sample bitmap) live in one contiguous slab — a cache-miss node costs one
/// allocation, not three — and are read back through the slice accessors.
/// The variable-shape predicate tree keeps its own structure.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFeatures {
    slab: Vec<f32>,
    meta_off: u32,
    samp_off: u32,
    pub predicate: PredicateEncoding,
}

impl NodeFeatures {
    /// Assemble from the four separately-encoded groups (test/tooling
    /// convenience; the extractor's hot path writes the slab directly).
    pub fn from_groups(
        operation: Vec<f32>,
        metadata: Vec<f32>,
        predicate: PredicateEncoding,
        sample_bitmap: Vec<f32>,
    ) -> Self {
        let meta_off = operation.len() as u32;
        let samp_off = meta_off + metadata.len() as u32;
        let mut slab = operation;
        slab.extend_from_slice(&metadata);
        slab.extend_from_slice(&sample_bitmap);
        NodeFeatures { slab, meta_off, samp_off, predicate }
    }

    /// The operation one-hot.
    pub fn operation(&self) -> &[f32] {
        &self.slab[..self.meta_off as usize]
    }

    /// The metadata bitmap (tables ⧺ columns ⧺ indexes).
    pub fn metadata(&self) -> &[f32] {
        &self.slab[self.meta_off as usize..self.samp_off as usize]
    }

    /// The sample bitmap.
    pub fn sample_bitmap(&self) -> &[f32] {
        &self.slab[self.samp_off as usize..]
    }
}

/// An encoded plan node: features, children and training targets.
/// Features and children are held by `Arc`: every node that shares an
/// operator shares one feature slab with the extractor's node memo, and
/// memoized encoding ([`FeatureExtractor::encode_plans_cached`]) shares
/// cached subtrees instead of deep-copying them into every parent that
/// reuses them — a `Clone` of an `EncodedPlan` is refcount bumps.  The
/// sharing is safe because an encoded plan is immutable after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedPlan {
    pub features: Arc<NodeFeatures>,
    pub children: Vec<Arc<EncodedPlan>>,
    /// True cardinality of this sub-plan (training target).
    pub true_cardinality: f64,
    /// True cumulative cost of this sub-plan (training target).
    pub true_cost: f64,
    /// 64-bit structural signature of the source sub-plan
    /// ([`query::PlanNode::signature_hash`]) — the key under which the
    /// serving layer memoizes this subtree's representation states.
    pub signature: u64,
}

impl EncodedPlan {
    /// Number of nodes in the encoded tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Height of the encoded tree.
    pub fn height(&self) -> usize {
        1 + self.children.iter().map(|c| c.height()).max().unwrap_or(0)
    }
}

/// Slots per node-memo shard: 65,536 node encodings in all, far more
/// distinct operators than any measured working set (optbench `dp_churn`:
/// 7,321).
pub const NODE_MEMO_SLOTS_PER_SHARD: usize = 4 * 1024;

/// Slots per shard of an encode cache
/// ([`FeatureExtractor::encode_plans_cached`]): 32,768 sub-plan encodings in
/// all.  An entry is a whole subtree's `EncodedPlan` tree, so the bound is
/// tighter than the node memo's.
pub const ENCODE_SLOTS_PER_SHARD: usize = 2 * 1024;

thread_local! {
    /// Scratch for per-item string encodings when averaging IN-list members.
    static ATOM_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The feature extractor: encoding configuration + string encoder + database
/// handle (for sample bitmaps).  Cloning is cheap and shares the node memo.
///
/// The node memo maps a node's operator content
/// ([`PhysicalOp::hash_signature`]) and the `use_sample_bitmap` flag to its
/// features.  Its inputs are immutable per extractor, so entries never go
/// stale: they stay valid across refits and hot-swaps, and clones that
/// differ in `use_sample_bitmap` share the memo under distinct keys.
///
/// The memo's switch and accessors keep their `bitmap_memo` names from when
/// the memo held sample bitmaps only: optbench reads them, and optbench
/// changes only in a benchmark change.  They govern the node memo.
#[derive(Clone)]
pub struct FeatureExtractor {
    config: EncodingConfig,
    string_encoder: Arc<dyn StringEncoder>,
    db: Arc<Database>,
    /// When false the sample bitmap is omitted (all zeros) — the `NS`
    /// ("no sample") model variants of Table 6.
    pub use_sample_bitmap: bool,
    /// When false [`FeatureExtractor::encode_node`] featurizes every node
    /// afresh and neither reads, fills nor counts the node memo (the
    /// pre-memo pipeline, bit-identical output) — oracles and bench
    /// baselines flip this on a clone.
    pub use_bitmap_memo: bool,
    node_memo: Arc<SigCache<Arc<NodeFeatures>>>,
}

impl FeatureExtractor {
    /// Create an extractor.
    pub fn new(db: Arc<Database>, config: EncodingConfig, string_encoder: Arc<dyn StringEncoder>) -> Self {
        FeatureExtractor {
            config,
            string_encoder,
            db,
            use_sample_bitmap: true,
            use_bitmap_memo: true,
            node_memo: Arc::new(SigCache::new(NODE_MEMO_SLOTS_PER_SHARD, 0)),
        }
    }

    /// The encoding configuration.
    pub fn config(&self) -> &EncodingConfig {
        &self.config
    }

    /// `(hits, misses)` of the node memo since creation (or the last
    /// [`FeatureExtractor::clear_bitmap_memo`]): one lookup per
    /// [`FeatureExtractor::encode_node`] with the memo on.
    pub fn bitmap_memo_stats(&self) -> (u64, u64) {
        self.node_memo.stats()
    }

    /// Hit rate of the node memo (0 when never probed).
    pub fn bitmap_memo_hit_rate(&self) -> f64 {
        self.node_memo.hit_rate()
    }

    /// Distinct node encodings the node memo holds.
    pub fn bitmap_memo_len(&self) -> usize {
        self.node_memo.len()
    }

    /// Drop every memoized node encoding and reset the counters (bench
    /// baselines; never required for correctness — entries cannot go
    /// stale).  Encoded plans keep the features they already share.
    pub fn clear_bitmap_memo(&self) {
        self.node_memo.clear();
    }

    /// Encode a raw string operand through the extractor's string encoder.
    ///
    /// Exposed so model checkpoints can fingerprint the encoder: two
    /// extractors with identical one-hot dictionaries but different string
    /// encoders (different embedding dictionaries, different rules) produce
    /// different encodings for the same probe strings.
    pub fn encode_string_operand(&self, s: &str, op: CompareOp) -> Vec<f32> {
        self.string_encoder.encode(s, op)
    }

    /// Encode an atomic predicate into
    /// `column one-hot ⧺ operator one-hot ⧺ numeric slot ⧺ string encoding`.
    pub fn encode_atom(&self, atom: &AtomPredicate) -> Vec<f32> {
        let mut v = vec![0.0f32; self.config.atom_dim()];
        self.encode_atom_into(atom, &mut v);
        v
    }

    /// Write an atomic predicate's encoding into a **zeroed** slice of
    /// length [`EncodingConfig::atom_dim`].  Bit-identical to
    /// [`FeatureExtractor::encode_atom`] without its allocation.
    pub fn encode_atom_into(&self, atom: &AtomPredicate, out: &mut [f32]) {
        let cfg = &self.config;
        debug_assert_eq!(out.len(), cfg.atom_dim());
        if let Some(pos) = cfg.column_position(atom.table, atom.column) {
            out[pos] = 1.0;
        }
        let op_base = cfg.column_pos.len();
        out[op_base + atom.op.index()] = 1.0;
        let operand_base = op_base + CompareOp::ALL.len();
        match &atom.operand {
            Operand::Num(x) => {
                out[operand_base] = cfg.normalize_numeric(atom.table, atom.column, *x) as f32;
            }
            Operand::Str(s) => {
                let dst = &mut out[operand_base + 1..operand_base + 1 + cfg.string_dim];
                self.string_encoder.encode_into(s, atom.op, dst);
            }
            Operand::StrList(items) => {
                // IN lists: average the encodings of the list members.
                if !items.is_empty() {
                    let dst = &mut out[operand_base + 1..operand_base + 1 + cfg.string_dim];
                    ATOM_SCRATCH.with(|scratch| {
                        let mut scratch = scratch.borrow_mut();
                        for s in items {
                            scratch.clear();
                            scratch.resize(cfg.string_dim, 0.0);
                            self.string_encoder.encode_into(s, atom.op, &mut scratch);
                            for (d, x) in dst.iter_mut().zip(scratch.iter()) {
                                *d += x;
                            }
                        }
                    });
                    for d in dst.iter_mut() {
                        *d /= items.len() as f32;
                    }
                }
            }
        }
    }

    /// Encode a (possibly compound) predicate into its tree encoding.
    pub fn encode_predicate(&self, predicate: Option<&Predicate>) -> PredicateEncoding {
        match predicate {
            None => PredicateEncoding::None,
            Some(Predicate::Atom(a)) => PredicateEncoding::Atom(self.encode_atom(a)),
            Some(Predicate::And(l, r)) => PredicateEncoding::And(
                Box::new(self.encode_predicate(Some(l))),
                Box::new(self.encode_predicate(Some(r))),
            ),
            Some(Predicate::Or(l, r)) => PredicateEncoding::Or(
                Box::new(self.encode_predicate(Some(l))),
                Box::new(self.encode_predicate(Some(r))),
            ),
        }
    }

    /// Encode the metadata bitmap of a node (tables ⧺ columns ⧺ indexes).
    pub fn encode_metadata(&self, node: &PlanNode) -> Vec<f32> {
        let mut v = vec![0.0f32; self.config.metadata_dim()];
        self.encode_metadata_into(node, &mut v);
        v
    }

    /// Write a node's metadata bitmap into a **zeroed** slice of length
    /// [`EncodingConfig::metadata_dim`].  Bit-identical to
    /// [`FeatureExtractor::encode_metadata`] without its allocation; every
    /// dictionary probe is keyed by the node's names.
    pub fn encode_metadata_into(&self, node: &PlanNode, out: &mut [f32]) {
        let cfg = &self.config;
        debug_assert_eq!(out.len(), cfg.metadata_dim());
        let col_base = cfg.table_pos.len();
        let idx_base = col_base + cfg.column_pos.len();

        let mark_column = |table: Name, column: Name, out: &mut [f32]| {
            if let Some(p) = cfg.column_position(table, column) {
                out[col_base + p] = 1.0;
            }
            if let Some(p) = cfg.index_position(table, column) {
                out[idx_base + p] = 1.0;
            }
        };

        match &node.op {
            PhysicalOp::SeqScan { table, predicate } | PhysicalOp::IndexScan { table, predicate, .. } => {
                if let Some(&p) = cfg.table_pos.get(table) {
                    out[p] = 1.0;
                }
                if let PhysicalOp::IndexScan { index_column, .. } = &node.op {
                    mark_column(*table, *index_column, out);
                }
                if let Some(pred) = predicate {
                    pred.for_each_atom(&mut |atom| mark_column(atom.table, atom.column, out));
                }
            }
            PhysicalOp::HashJoin { condition }
            | PhysicalOp::MergeJoin { condition }
            | PhysicalOp::NestedLoopJoin { condition } => {
                for (t, c) in
                    [(condition.left_table, condition.left_column), (condition.right_table, condition.right_column)]
                {
                    if let Some(&p) = cfg.table_pos.get(&t) {
                        out[p] = 1.0;
                    }
                    mark_column(t, c, out);
                }
            }
            PhysicalOp::Sort { table, columns } => {
                if let Some(&p) = cfg.table_pos.get(table) {
                    out[p] = 1.0;
                }
                for &c in columns {
                    mark_column(*table, c, out);
                }
            }
            PhysicalOp::Aggregate { .. } => {}
        }
    }

    /// Encode the sample bitmap of a node: bit `i` is 1 when sampled row `i`
    /// of the scanned table satisfies the node's predicate.
    pub fn encode_sample_bitmap(&self, node: &PlanNode) -> Vec<f32> {
        let mut bits = vec![0.0; self.config.sample_dim()];
        self.encode_sample_bitmap_into(node, &mut bits);
        bits
    }

    /// Write a node's sample bitmap into a **zeroed** slice of length
    /// [`EncodingConfig::sample_dim`]: one sweep of the scan predicate over
    /// the table sample.  Bit-identical to
    /// [`FeatureExtractor::encode_sample_bitmap`] without its allocation.
    pub fn encode_sample_bitmap_into(&self, node: &PlanNode, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.config.sample_dim());
        if !self.use_sample_bitmap {
            return;
        }
        let (table, predicate) = match &node.op {
            PhysicalOp::SeqScan { table, predicate } | PhysicalOp::IndexScan { table, predicate, .. } => {
                (table.as_str(), predicate.as_ref())
            }
            _ => return,
        };
        let Some(pred) = predicate else { return };
        let (Some(sample), Some(tab)) = (self.db.sample(table), self.db.table(table)) else {
            return;
        };
        for (i, &row) in sample.rows().iter().enumerate() {
            if i >= out.len() {
                break;
            }
            if pred.matches_row(tab, row) {
                out[i] = 1.0;
            }
        }
    }

    /// Encode one node's four feature groups, shared by `Arc`.
    ///
    /// The groups depend on the node's operator alone, so with
    /// `use_bitmap_memo` on (the default) they are memoized by operator
    /// content ([`PhysicalOp::hash_signature`]) and the `use_sample_bitmap`
    /// flag: a hit costs one key hash, one probe and one refcount bump, a
    /// miss featurizes the node and inserts it.  Either way the bits are
    /// those of a fresh encode.
    pub fn encode_node(&self, node: &PlanNode) -> Arc<NodeFeatures> {
        let mut op = SigHasher::new();
        node.op.hash_signature(&mut op);
        self.encode_node_hashed(node, op)
    }

    /// [`FeatureExtractor::encode_node`] with the operator's content already
    /// hashed into `op`, a fresh hasher fed [`PhysicalOp::hash_signature`] —
    /// the plan encoders open the node's signature with the same state.
    fn encode_node_hashed(&self, node: &PlanNode, mut op: SigHasher) -> Arc<NodeFeatures> {
        if !self.use_bitmap_memo {
            return Arc::new(self.featurize_node(node));
        }
        op.write_u8(self.use_sample_bitmap as u8);
        let key = op.finish();
        if let Some(hit) = self.node_memo.get(key) {
            return hit;
        }
        let features = Arc::new(self.featurize_node(node));
        self.node_memo.insert(key, Arc::clone(&features), |_| {});
        features
    }

    /// Featurize one node afresh: the three fixed-width groups go into one
    /// contiguous slab, the predicate tree keeps its shape.
    fn featurize_node(&self, node: &PlanNode) -> NodeFeatures {
        let cfg = &self.config;
        let meta_off = cfg.operation_dim();
        let samp_off = meta_off + cfg.metadata_dim();
        let mut slab = vec![0.0f32; samp_off + cfg.sample_dim()];
        slab[node.op.one_hot_index()] = 1.0;
        self.encode_metadata_into(node, &mut slab[meta_off..samp_off]);
        self.encode_sample_bitmap_into(node, &mut slab[samp_off..]);
        NodeFeatures {
            slab,
            meta_off: meta_off as u32,
            samp_off: samp_off as u32,
            predicate: self.encode_predicate(node.op.predicate()),
        }
    }

    /// Encode a whole (annotated) plan tree.  The plan must have been
    /// executed (or estimated) so that `true_cardinality`/`true_cost` are
    /// present; missing annotations become 0.
    pub fn encode_plan(&self, plan: &PlanNode) -> EncodedPlan {
        let children: Vec<Arc<EncodedPlan>> = plan.children.iter().map(|c| Arc::new(self.encode_plan(c))).collect();
        // Hash the operator once: it keys the node memo and opens the
        // signature, which composes the already-encoded children's hashes
        // instead of re-walking each subtree once per ancestor.
        let mut op = SigHasher::new();
        plan.op.hash_signature(&mut op);
        let signature = PlanNode::signature_hash_from_op(op, children.iter().map(|c| c.signature));
        EncodedPlan {
            features: self.encode_node_hashed(plan, op),
            children,
            true_cardinality: plan.annotations.true_cardinality.unwrap_or(0.0),
            true_cost: plan.annotations.true_cost.unwrap_or(0.0),
            signature,
        }
    }

    /// Memoized [`FeatureExtractor::encode_plan`] of a batch against a
    /// caller-owned encode cache (a `CostEstimator` keeps one, of
    /// [`ENCODE_SLOTS_PER_SHARD`] slots per shard, for as long as its
    /// extractor): each distinct subtree is encoded at most once per cache,
    /// across batches, sessions and rounds, while its entry stays, and a hit
    /// returns the shared `Arc<EncodedPlan>` without touching the plan's
    /// nodes again.
    ///
    /// The memo key mixes the structural signature with the subtree's
    /// annotations (targets are part of an `EncodedPlan`), so structurally
    /// identical plans with different training targets never alias — the
    /// result is bit-identical to a fresh encode for *any* plan, annotated
    /// or not.
    pub fn encode_plans_cached(&self, plans: &[PlanNode], cache: &SigCache<Arc<EncodedPlan>>) -> Vec<Arc<EncodedPlan>> {
        let mut stack = Vec::new();
        plans
            .iter()
            .map(|p| {
                self.encode_cached_rec(p, cache, &mut stack);
                stack.pop().expect("encode_cached_rec pushes exactly one root entry").0
            })
            .collect()
    }

    /// Pushes the encoded subtree and its memo key onto `stack` (exactly one
    /// entry per call).  The stack is threaded through the recursion instead
    /// of collecting a per-node `Vec` of children, so a fully warm pass —
    /// every node a cache hit — performs no heap allocation at all: just
    /// signature hashing, one probe per node and `Arc` refcount traffic.
    fn encode_cached_rec(
        &self,
        plan: &PlanNode,
        cache: &SigCache<Arc<EncodedPlan>>,
        stack: &mut Vec<(Arc<EncodedPlan>, u64)>,
    ) {
        let base = stack.len();
        for c in &plan.children {
            self.encode_cached_rec(c, cache, stack);
        }
        let mut op = SigHasher::new();
        plan.op.hash_signature(&mut op);
        let signature = PlanNode::signature_hash_from_op(op, stack[base..].iter().map(|(c, _)| c.signature));
        // The memo key: structural signature ⧺ this node's annotations ⧺
        // the children's memo keys.  Child keys cover the children's own
        // annotations recursively, so two trees share a key only when their
        // entire content — and therefore their entire encoding — agrees.
        let mut h = SigHasher::new();
        h.write_u64(signature);
        match plan.annotations.true_cardinality {
            Some(v) => {
                h.write_u8(1);
                h.write_f64(v);
            }
            None => h.write_u8(0),
        }
        match plan.annotations.true_cost {
            Some(v) => {
                h.write_u8(1);
                h.write_f64(v);
            }
            None => h.write_u8(0),
        }
        for (_, child_key) in &stack[base..] {
            h.write_u64(*child_key);
        }
        let key = h.finish();
        if let Some(hit) = cache.get(key) {
            stack.truncate(base);
            stack.push((hit, key));
            return;
        }
        let encoded = Arc::new(EncodedPlan {
            features: self.encode_node_hashed(plan, op),
            children: stack.drain(base..).map(|(c, _)| c).collect(),
            true_cardinality: plan.annotations.true_cardinality.unwrap_or(0.0),
            true_cost: plan.annotations.true_cost.unwrap_or(0.0),
            signature,
        });
        cache.insert(key, Arc::clone(&encoded), |_| {});
        stack.push((encoded, key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{execute_plan, CostModel};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate};
    use strembed::HashBitmapEncoder;

    fn extractor() -> FeatureExtractor {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 32, 64);
        FeatureExtractor::new(db, cfg, Arc::new(HashBitmapEncoder::new(32)))
    }

    fn scan_with_pred() -> PlanNode {
        PlanNode::leaf(PhysicalOp::SeqScan {
            table: "movie_companies".into(),
            predicate: Some(
                Predicate::atom("movie_companies", "note", CompareOp::Like, Operand::Str("%(co-production)%".into()))
                    .or(Predicate::atom(
                        "movie_companies",
                        "note",
                        CompareOp::Like,
                        Operand::Str("%(presents)%".into()),
                    )),
            ),
        })
    }

    #[test]
    fn operation_one_hot_is_exclusive() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        assert_eq!(feats.operation().iter().sum::<f32>(), 1.0);
        assert_eq!(feats.operation()[0], 1.0); // SeqScan
    }

    #[test]
    fn metadata_marks_table_and_columns() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        let table_bits: f32 = feats.metadata()[..fx.config().table_pos.len()].iter().sum();
        assert_eq!(table_bits, 1.0);
        let col_bits: f32 = feats.metadata()[fx.config().table_pos.len()..].iter().sum();
        assert!(col_bits >= 1.0);
    }

    #[test]
    fn node_slab_groups_have_configured_widths() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        assert_eq!(feats.operation().len(), fx.config().operation_dim());
        assert_eq!(feats.metadata().len(), fx.config().metadata_dim());
        assert_eq!(feats.sample_bitmap().len(), fx.config().sample_dim());
        // The groups are one contiguous slab; from_groups round-trips them.
        let rebuilt = NodeFeatures::from_groups(
            feats.operation().to_vec(),
            feats.metadata().to_vec(),
            feats.predicate.clone(),
            feats.sample_bitmap().to_vec(),
        );
        assert_eq!(rebuilt, *feats);
    }

    #[test]
    fn predicate_encoding_mirrors_structure() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        match &feats.predicate {
            PredicateEncoding::Or(l, r) => {
                assert!(matches!(**l, PredicateEncoding::Atom(_)));
                assert!(matches!(**r, PredicateEncoding::Atom(_)));
            }
            other => panic!("expected OR encoding, got {other:?}"),
        }
        assert_eq!(feats.predicate.num_atoms(), 2);
        assert_eq!(feats.predicate.dfs_atoms().len(), 2);
        for atom in feats.predicate.dfs_atoms() {
            assert_eq!(atom.len(), fx.config().atom_dim());
        }
    }

    #[test]
    fn atom_encoding_contains_string_embedding() {
        let fx = extractor();
        let atom = AtomPredicate::new("movie_companies", "note", CompareOp::Like, Operand::Str("%(presents)%".into()));
        let v = fx.encode_atom(&atom);
        let str_base = fx.config().column_pos.len() + 9 + 1;
        assert!(v[str_base..].iter().any(|&x| x != 0.0), "string slots all zero");
        // Column one-hot set exactly once.
        assert_eq!(v[..fx.config().column_pos.len()].iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn in_list_atom_averages_member_encodings() {
        let fx = extractor();
        let items = vec!["(presents)".to_string(), "(co-production)".to_string()];
        let listed = fx.encode_atom(&AtomPredicate::new(
            "movie_companies",
            "note",
            CompareOp::In,
            Operand::StrList(items.clone()),
        ));
        let singles: Vec<Vec<f32>> = items
            .iter()
            .map(|s| {
                fx.encode_atom(&AtomPredicate::new("movie_companies", "note", CompareOp::In, Operand::Str(s.clone())))
            })
            .collect();
        let str_base = fx.config().column_pos.len() + 9 + 1;
        for i in str_base..fx.config().atom_dim() {
            let mean = (singles[0][i] + singles[1][i]) / 2.0;
            assert_eq!(listed[i].to_bits(), mean.to_bits(), "slot {i} is not the member average");
        }
    }

    #[test]
    fn numeric_atom_sets_numeric_slot() {
        let fx = extractor();
        let atom = AtomPredicate::new("title", "production_year", CompareOp::Gt, Operand::Num(2000.0));
        let v = fx.encode_atom(&atom);
        let num_slot = fx.config().column_pos.len() + 9;
        assert!(v[num_slot] > 0.0 && v[num_slot] <= 1.0);
    }

    #[test]
    fn sample_bitmap_reflects_selectivity() {
        let fx = extractor();
        let all = fx.encode_sample_bitmap(&PlanNode::leaf(PhysicalOp::SeqScan {
            table: "movie_companies".into(),
            predicate: Some(Predicate::atom("movie_companies", "id", CompareOp::Gt, Operand::Num(0.0))),
        }));
        let none = fx.encode_sample_bitmap(&PlanNode::leaf(PhysicalOp::SeqScan {
            table: "movie_companies".into(),
            predicate: Some(Predicate::atom("movie_companies", "id", CompareOp::Lt, Operand::Num(-5.0))),
        }));
        assert!(all.iter().sum::<f32>() > 0.9 * 64.0);
        assert_eq!(none.iter().sum::<f32>(), 0.0);
    }

    #[test]
    fn sample_bitmap_disabled_is_zero() {
        let mut fx = extractor();
        fx.use_sample_bitmap = false;
        let bits = fx.encode_sample_bitmap(&scan_with_pred());
        assert_eq!(bits.iter().sum::<f32>(), 0.0);
        assert_eq!(bits.len(), 64);
    }

    #[test]
    fn bitmap_memo_hits_on_repeated_predicates_with_identical_bits() {
        let fx = extractor();
        let node = scan_with_pred();
        let slab_bits = |f: &NodeFeatures| {
            [f.operation(), f.metadata(), f.sample_bitmap()].concat().iter().map(|b| b.to_bits()).collect::<Vec<_>>()
        };
        let first = fx.encode_node(&node);
        assert_eq!(fx.bitmap_memo_stats(), (0, 1), "first encode must miss the memo");
        assert!(first.sample_bitmap().iter().any(|&b| b != 0.0), "the scan's sweep must set sample bits");
        let second = fx.encode_node(&node);
        assert_eq!(fx.bitmap_memo_stats(), (1, 1), "a repeated operator must hit");
        assert!(Arc::ptr_eq(&first, &second), "a hit must share the memoized encoding");
        assert_eq!(slab_bits(&first), slab_bits(&second));

        // The same predicate behind a different scan operator is its own
        // entry: its operation one-hot and metadata differ.
        let index_scan = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "id".into(),
            predicate: node.op.predicate().cloned(),
        });
        let third = fx.encode_node(&index_scan);
        assert_eq!(fx.bitmap_memo_stats(), (1, 2), "an IndexScan must not share the SeqScan's entry");
        assert_eq!(fx.bitmap_memo_len(), 2);
        assert_ne!(first.operation(), third.operation());
        assert_eq!(first.sample_bitmap(), third.sample_bitmap());

        // With the memo off, encodes neither read nor count it, and return
        // the memoized bits.
        let mut off = fx.clone();
        off.use_bitmap_memo = false;
        let fresh = off.encode_node(&node);
        assert_eq!(fx.bitmap_memo_stats(), (1, 2), "a memo-off encode must leave the stats unchanged");
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!(slab_bits(&first), slab_bits(&fresh));
        assert_eq!(first.predicate, fresh.predicate);

        fx.clear_bitmap_memo();
        assert_eq!(fx.bitmap_memo_stats(), (0, 0));
        assert_eq!(fx.bitmap_memo_len(), 0);
    }

    fn executed_join(db: &Arc<Database>, year: f64) -> PlanNode {
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "title".into(),
            predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(year))),
        });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let mut join = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_t, scan_mc],
        );
        execute_plan(db, &mut join, &CostModel::default());
        join
    }

    #[test]
    fn encoded_plan_mirrors_tree_and_targets() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(16)));
        let join = executed_join(&db, 2000.0);
        let encoded = fx.encode_plan(&join);
        assert_eq!(encoded.size(), 3);
        assert_eq!(encoded.height(), 2);
        assert_eq!(encoded.signature, join.signature_hash());
        assert_eq!(encoded.children[0].signature, join.children[0].signature_hash());
        assert_ne!(encoded.signature, encoded.children[0].signature);
        assert!(encoded.true_cardinality > 0.0);
        assert!(encoded.true_cost > 0.0);
        assert_eq!(encoded.children.len(), 2);
        assert!(matches!(encoded.children[1].features.predicate, PredicateEncoding::None));
    }

    #[test]
    fn encode_plans_dedups_and_matches_fresh_encoding() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(16)));
        // Two identical plans plus one sharing only the scan subtrees.
        let plans = vec![executed_join(&db, 2000.0), executed_join(&db, 2000.0), executed_join(&db, 1980.0)];
        let fresh: Vec<EncodedPlan> = plans.iter().map(|p| fx.encode_plan(p)).collect();
        let cache = SigCache::new(ENCODE_SLOTS_PER_SHARD, 0);
        let arcs = fx.encode_plans_cached(&plans, &cache);
        let batched: Vec<EncodedPlan> = arcs.iter().map(|a| EncodedPlan::clone(a)).collect();
        assert_eq!(batched, fresh, "batched memoized encode must equal fresh per-plan encode");

        // The two identical roots share one Arc.
        assert!(Arc::ptr_eq(&arcs[0], &arcs[1]), "identical plans must dedup to one cached encoding");
        assert!(!Arc::ptr_eq(&arcs[0], &arcs[2]));
        // 3 distinct subtrees per plan; the second is fully shared, the
        // third shares only the un-annotated predicate-free mc scan (its
        // annotated title scan differs by year, and executed annotations
        // differ per plan).
        assert!(cache.len() < 9, "cache holds fewer entries than total nodes ({})", cache.len());
        assert_eq!(EncodedPlan::clone(&arcs[2]), fresh[2]);
    }

    #[test]
    fn annotated_twins_never_alias_in_the_encode_cache() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(16)));
        let executed = executed_join(&db, 2000.0);
        fn clear_annotations(node: &mut PlanNode) {
            node.annotations = Default::default();
            for c in &mut node.children {
                clear_annotations(c);
            }
        }
        let mut bare = executed.clone();
        clear_annotations(&mut bare);
        assert_eq!(executed.signature_hash(), bare.signature_hash(), "twins must collide structurally");
        let cache = SigCache::new(ENCODE_SLOTS_PER_SHARD, 0);
        let [a, b]: [Arc<EncodedPlan>; 2] =
            fx.encode_plans_cached(&[executed, bare.clone()], &cache).try_into().expect("two plans in, two out");
        assert!(a.true_cost > 0.0);
        assert_eq!(b.true_cost, 0.0, "un-annotated twin must not inherit cached targets");
        assert_eq!(EncodedPlan::clone(&b), fx.encode_plan(&bare));
    }
}
