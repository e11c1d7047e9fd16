//! Physical plan trees — the input of the cost estimator.
//!
//! Each node carries a physical operator (Table 1 of the paper), the tables
//! it produces, and optional annotations: the traditional estimator's
//! estimates and the executor's true cost/cardinality (the training targets).

use crate::logical::JoinPredicate;
use crate::name::Name;
use crate::predicate::Predicate;
use crate::sighash::{SigHasher, Words};
use std::fmt;

/// Identifier of a node within one plan (pre-order position).
pub type PlanNodeId = usize;

/// Physical operator of a plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalOp {
    /// Full scan of a table, optionally filtering with a predicate.
    SeqScan { table: Name, predicate: Option<Predicate> },
    /// Index lookup on `index_column` (driven by a join key or an equality
    /// predicate), with an optional residual filter.
    IndexScan { table: Name, index_column: Name, predicate: Option<Predicate> },
    /// Hash join on an equi-join predicate; left child is the build side.
    HashJoin { condition: JoinPredicate },
    /// Sort-merge join on an equi-join predicate.
    MergeJoin { condition: JoinPredicate },
    /// Nested-loop join (index nested loop when the inner child is an
    /// [`PhysicalOp::IndexScan`]).
    NestedLoopJoin { condition: JoinPredicate },
    /// Sort on a set of columns.
    Sort { table: Name, columns: Vec<Name> },
    /// Aggregation (plain or hash) over the child.
    Aggregate { hash: bool, group_columns: Vec<Name> },
}

impl PhysicalOp {
    /// Short operator name (used in displays and the operation one-hot).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::SeqScan { .. } => "Seq Scan",
            PhysicalOp::IndexScan { .. } => "Index Scan",
            PhysicalOp::HashJoin { .. } => "Hash Join",
            PhysicalOp::MergeJoin { .. } => "Merge Join",
            PhysicalOp::NestedLoopJoin { .. } => "Nested Loop",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::Aggregate { .. } => "Aggregate",
        }
    }

    /// Index of the operator in the operation one-hot encoding.
    pub fn one_hot_index(&self) -> usize {
        match self {
            PhysicalOp::SeqScan { .. } => 0,
            PhysicalOp::IndexScan { .. } => 1,
            PhysicalOp::HashJoin { .. } => 2,
            PhysicalOp::MergeJoin { .. } => 3,
            PhysicalOp::NestedLoopJoin { .. } => 4,
            PhysicalOp::Sort { .. } => 5,
            PhysicalOp::Aggregate { .. } => 6,
        }
    }

    /// Number of distinct physical operators (width of the one-hot).
    pub const NUM_OPS: usize = 7;

    /// True for scan operators.
    pub fn is_scan(&self) -> bool {
        matches!(self, PhysicalOp::SeqScan { .. } | PhysicalOp::IndexScan { .. })
    }

    /// True for join operators.
    pub fn is_join(&self) -> bool {
        matches!(self, PhysicalOp::HashJoin { .. } | PhysicalOp::MergeJoin { .. } | PhysicalOp::NestedLoopJoin { .. })
    }

    /// The filter predicate attached to this node, if any.
    pub fn predicate(&self) -> Option<&Predicate> {
        match self {
            PhysicalOp::SeqScan { predicate, .. } | PhysicalOp::IndexScan { predicate, .. } => predicate.as_ref(),
            _ => None,
        }
    }

    /// The scanned table, for scan operators.
    pub fn scan_table(&self) -> Option<Name> {
        match self {
            PhysicalOp::SeqScan { table, .. }
            | PhysicalOp::IndexScan { table, .. }
            | PhysicalOp::Sort { table, .. } => Some(*table),
            _ => None,
        }
    }

    /// Feed the operator's content — kind, tables, columns, full predicate
    /// tree — into `h`: the one definition of what a node contributes on
    /// its own, apart from its children.  [`PlanNode::signature_hash`]
    /// composes it with the children's signatures, and the featurizer keys
    /// its per-node memo by it (a node's features depend on nothing else).
    ///
    /// The content goes in as paired words (see [`crate::sighash`]): a tag
    /// word (the kind, whether a predicate follows, how many columns follow)
    /// XORed into the first name, the other names, then the predicate's
    /// words, with an odd last word fed alone.
    pub fn hash_signature(&self, h: &mut SigHasher) {
        let mut words = Words::new(h);
        let kind = self.one_hot_index() as u64;
        let listed = |columns: &[Name]| (columns.len() as u64) << 32;
        match self {
            PhysicalOp::SeqScan { table, predicate } => {
                words.push(table.sig_hash() ^ kind ^ (predicate.is_some() as u64) << 8);
                if let Some(p) = predicate {
                    p.hash_signature(&mut words);
                }
            }
            PhysicalOp::IndexScan { table, index_column, predicate } => {
                words.push(table.sig_hash() ^ kind ^ (predicate.is_some() as u64) << 8);
                words.push(index_column.sig_hash());
                if let Some(p) = predicate {
                    p.hash_signature(&mut words);
                }
            }
            PhysicalOp::HashJoin { condition }
            | PhysicalOp::MergeJoin { condition }
            | PhysicalOp::NestedLoopJoin { condition } => {
                words.push(condition.left_table.sig_hash() ^ kind);
                words.push(condition.left_column.sig_hash());
                words.push(condition.right_table.sig_hash());
                words.push(condition.right_column.sig_hash());
            }
            PhysicalOp::Sort { table, columns } => {
                words.push(table.sig_hash() ^ kind ^ listed(columns));
                columns.iter().for_each(|c| words.push(c.sig_hash()));
            }
            PhysicalOp::Aggregate { hash, group_columns } => {
                words.push(kind ^ (*hash as u64) << 8 ^ listed(group_columns));
                group_columns.iter().for_each(|c| words.push(c.sig_hash()));
            }
        }
        words.flush();
    }
}

/// Per-node annotations produced by the ground-truth executor and the
/// traditional estimator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeAnnotations {
    /// True output cardinality measured by executing the plan.
    pub true_cardinality: Option<f64>,
    /// True cost (work units, used as "real execution time").
    pub true_cost: Option<f64>,
    /// Cardinality estimated by the traditional (PostgreSQL-style) estimator.
    pub estimated_cardinality: Option<f64>,
    /// Cost estimated by the traditional estimator.
    pub estimated_cost: Option<f64>,
}

/// A node of a physical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    pub op: PhysicalOp,
    pub children: Vec<PlanNode>,
    pub annotations: NodeAnnotations,
}

impl PlanNode {
    /// A leaf node.
    pub fn leaf(op: PhysicalOp) -> Self {
        PlanNode { op, children: Vec::new(), annotations: NodeAnnotations::default() }
    }

    /// An inner node with children (left = first).
    pub fn inner(op: PhysicalOp, children: Vec<PlanNode>) -> Self {
        PlanNode { op, children, annotations: NodeAnnotations::default() }
    }

    /// Number of nodes in the subtree rooted here.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Height of the subtree (a leaf has height 1).
    pub fn height(&self) -> usize {
        1 + self.children.iter().map(|c| c.height()).max().unwrap_or(0)
    }

    /// Tables produced by this subtree (union of scanned tables), sorted
    /// by name.
    pub fn tables(&self) -> Vec<Name> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_tables(&self, out: &mut Vec<Name>) {
        if let Some(t) = self.op.scan_table() {
            out.push(t);
        }
        for c in &self.children {
            c.collect_tables(out);
        }
    }

    /// Visit all nodes in pre-order (the DFS order used by the plan
    /// encoding), calling `f(node, depth)`.
    pub fn visit_preorder<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode, usize)) {
        self.visit_inner(f, 0);
    }

    fn visit_inner<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode, usize), depth: usize) {
        f(self, depth);
        for c in &self.children {
            c.visit_inner(f, depth + 1);
        }
    }

    /// Visit all nodes mutably in post-order (children before parents), the
    /// order in which the executor and estimators annotate the plan.
    pub fn visit_postorder_mut(&mut self, f: &mut impl FnMut(&mut PlanNode)) {
        for c in &mut self.children {
            c.visit_postorder_mut(f);
        }
        f(self);
    }

    /// All nodes in pre-order, flattened.
    pub fn nodes_preorder(&self) -> Vec<&PlanNode> {
        let mut out = Vec::with_capacity(self.size());
        self.visit_preorder(&mut |n, _| out.push(n));
        out
    }

    /// A stable textual signature of the subtree structure: the readable
    /// form of [`PlanNode::signature_hash`].  Besides debugging and tests,
    /// it orders plans by content where an order must not depend on the
    /// hash function: the refresh controller's sampling frame sorts by it.
    pub fn signature(&self) -> String {
        let mut sig = String::new();
        self.signature_inner(&mut sig);
        sig
    }

    fn signature_inner(&self, out: &mut String) {
        out.push('(');
        out.push_str(self.op.name());
        match &self.op {
            PhysicalOp::SeqScan { table, predicate } => {
                out.push(':');
                out.push_str(table);
                if let Some(p) = predicate {
                    out.push(':');
                    out.push_str(&p.to_string());
                }
            }
            PhysicalOp::IndexScan { table, index_column, predicate } => {
                out.push(':');
                out.push_str(table);
                out.push(':');
                out.push_str(index_column);
                if let Some(p) = predicate {
                    out.push(':');
                    out.push_str(&p.to_string());
                }
            }
            PhysicalOp::HashJoin { condition }
            | PhysicalOp::MergeJoin { condition }
            | PhysicalOp::NestedLoopJoin { condition } => {
                out.push(':');
                out.push_str(&condition.to_string());
            }
            PhysicalOp::Sort { table, columns } => {
                out.push(':');
                out.push_str(table);
                for c in columns {
                    out.push(':');
                    out.push_str(c);
                }
            }
            PhysicalOp::Aggregate { hash, group_columns } => {
                out.push(':');
                out.push_str(if *hash { "hash" } else { "plain" });
                for c in group_columns {
                    out.push(':');
                    out.push_str(c);
                }
            }
        }
        for c in &self.children {
            c.signature_inner(out);
        }
        out.push(')');
    }

    /// Allocation-free 64-bit structural signature of the subtree rooted
    /// here — the key of the subtree-state cache (Section 3's
    /// representation memory pool) in the optimizer-in-the-loop serving
    /// path.
    ///
    /// Covers the same content as [`PlanNode::signature`] (operator, tables,
    /// columns, full predicate trees, children order) but streams it through
    /// [`crate::sighash::SigHasher`] instead of building a `String`, and
    /// composes bottom-up so each node hashes its children's sub-signatures
    /// rather than re-walking their subtrees.  Two sub-plans with equal
    /// textual signatures always have equal hashes; distinct sub-plans
    /// collide only with 64-bit birthday probability (see the collision
    /// posture notes in [`crate::sighash`]).
    pub fn signature_hash(&self) -> u64 {
        self.signature_hash_from_children(self.children.iter().map(|c| c.signature_hash()))
    }

    /// [`PlanNode::signature_hash`] with the children's sub-signatures
    /// supplied by the caller — the bottom-up composition step, exposed so
    /// encoders that already hold each child's signature (e.g.
    /// `FeatureExtractor::encode_plan`) don't re-walk the subtrees.
    ///
    /// `child_hashes` must yield the children's signatures in order.
    pub fn signature_hash_from_children(&self, child_hashes: impl IntoIterator<Item = u64>) -> u64 {
        let mut op = SigHasher::new();
        self.op.hash_signature(&mut op);
        Self::signature_hash_from_op(op, child_hashes)
    }

    /// The last step of [`PlanNode::signature_hash_from_children`]: `op` is
    /// a fresh [`SigHasher`] fed this node's [`PhysicalOp::hash_signature`],
    /// and the children's signatures are appended to it, two per fold.
    /// Exposed so a caller that also keys something by the operator alone
    /// (the featurizer's node memo) hashes its content once.
    pub fn signature_hash_from_op(mut op: SigHasher, child_hashes: impl IntoIterator<Item = u64>) -> u64 {
        let mut children = Words::new(&mut op);
        child_hashes.into_iter().for_each(|ch| children.push(ch));
        children.flush();
        op.finish()
    }

    /// Indented textual rendering, similar to `EXPLAIN` output.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.visit_preorder(&mut |n, depth| {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("-> {}", n.op.name()));
            if let Some(t) = n.op.scan_table() {
                out.push_str(&format!(" on {t}"));
            }
            if let (Some(est), Some(real)) = (n.annotations.estimated_cardinality, n.annotations.true_cardinality) {
                out.push_str(&format!(" (rows est={est:.0} real={real:.0})"));
            }
            out.push('\n');
        });
        out
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompareOp, Operand, Predicate};

    fn sample_plan() -> PlanNode {
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "title".into(),
            predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2010.0))),
        });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let join = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_mc, scan_t],
        );
        PlanNode::inner(PhysicalOp::Aggregate { hash: false, group_columns: vec![] }, vec![join])
    }

    /// A plan over every operator kind but the two joins `sample_plan`
    /// leaves out, with a compound predicate and string operands.
    fn compound_plan() -> PlanNode {
        let note =
            Predicate::atom("movie_companies", "note", CompareOp::Like, Operand::Str("%(co-production)%".into()))
                .or(Predicate::atom("movie_companies", "company_type_id", CompareOp::Eq, Operand::Num(2.0)))
                .and(Predicate::atom(
                    "movie_companies",
                    "note",
                    CompareOp::In,
                    Operand::StrList(vec!["(presents)".into(), "(as Metro-Goldwyn-Mayer Pictures)".into()]),
                ));
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: Some(note) });
        let scan_t = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "title".into(),
            index_column: "id".into(),
            predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2005.0))),
        });
        let join = PlanNode::inner(
            PhysicalOp::NestedLoopJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_mc, scan_t],
        );
        let sort = PlanNode::inner(
            PhysicalOp::Sort { table: "title".into(), columns: vec!["production_year".into(), "kind_id".into()] },
            vec![join],
        );
        PlanNode::inner(PhysicalOp::Aggregate { hash: true, group_columns: vec!["kind_id".into()] }, vec![sort])
    }

    /// The subtree-state cache, the node memo and the feedback log are
    /// keyed by these values.  Keys move only on purpose: a change that
    /// moves one here changes the signature scheme, and re-pins all three
    /// in the same change.  Nothing persists a key, so a move costs one
    /// cold cache and no estimate.
    #[test]
    fn signature_hashes_are_pinned() {
        let sample = sample_plan();
        assert_eq!(sample.signature_hash(), 0xec95_3997_1f1c_7824);
        let compound = compound_plan();
        assert_eq!(compound.signature_hash(), 0x5e1d_f22f_94a2_f6b4);
        let mut op = crate::sighash::SigHasher::new();
        compound.children[0].children[0].children[0].op.hash_signature(&mut op);
        assert_eq!(op.finish(), 0xc208_eab2_ac2c_080f);
        assert_eq!(
            compound.signature(),
            "(Aggregate:hash:kind_id(Sort:title:production_year:kind_id(Nested Loop:movie_companies.movie_id = \
             title.id(Seq Scan:movie_companies:((movie_companies.note LIKE '%(co-production)%' OR \
             movie_companies.company_type_id = 2) AND movie_companies.note IN ('(presents)', '(as \
             Metro-Goldwyn-Mayer Pictures)')))(Index Scan:title:id:title.production_year > 2005))))"
        );
        assert_eq!(
            format!("{:?}", compound.children[0].children[0].op),
            "NestedLoopJoin { condition: JoinPredicate { left_table: \"movie_companies\", left_column: \
             \"movie_id\", right_table: \"title\", right_column: \"id\" } }"
        );
    }

    /// A candidate plan is mostly nodes: names are 8-byte handles, so a
    /// node is 160 bytes (224 with a `String` per name).  A field that
    /// regrows the node fails here.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn plan_node_layout_is_pinned() {
        assert!(std::mem::size_of::<PlanNode>() <= 160, "PlanNode is {} bytes", std::mem::size_of::<PlanNode>());
        assert!(std::mem::size_of::<PhysicalOp>() <= 72, "PhysicalOp is {} bytes", std::mem::size_of::<PhysicalOp>());
    }

    #[test]
    fn size_height_tables() {
        let p = sample_plan();
        assert_eq!(p.size(), 4);
        assert_eq!(p.height(), 3);
        assert_eq!(p.tables(), vec!["movie_companies".to_string(), "title".to_string()]);
    }

    #[test]
    fn preorder_visits_root_first() {
        let p = sample_plan();
        let nodes = p.nodes_preorder();
        assert_eq!(nodes[0].op.name(), "Aggregate");
        assert_eq!(nodes[1].op.name(), "Hash Join");
        assert_eq!(nodes[2].op.name(), "Seq Scan");
    }

    #[test]
    fn postorder_annotation() {
        let mut p = sample_plan();
        let mut order = Vec::new();
        p.visit_postorder_mut(&mut |n| {
            order.push(n.op.name());
            n.annotations.true_cardinality = Some(1.0);
        });
        assert_eq!(order.last(), Some(&"Aggregate"));
        assert!(p.annotations.true_cardinality.is_some());
    }

    #[test]
    fn signature_distinguishes_plans() {
        let a = sample_plan();
        let mut b = sample_plan();
        // Change the predicate in b.
        if let PhysicalOp::SeqScan { predicate, .. } = &mut b.children[0].children[1].op {
            *predicate = Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(1990.0)));
        }
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), sample_plan().signature());
    }

    #[test]
    fn signature_hash_tracks_textual_signature() {
        let a = sample_plan();
        let mut b = sample_plan();
        if let PhysicalOp::SeqScan { predicate, .. } = &mut b.children[0].children[1].op {
            *predicate = Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(1990.0)));
        }
        // Equal plans hash equal, distinct plans hash distinct.
        assert_eq!(a.signature_hash(), sample_plan().signature_hash());
        assert_ne!(a.signature_hash(), b.signature_hash());
        // Children order matters, exactly as in the textual signature.
        let l = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        let r = PlanNode::leaf(PhysicalOp::SeqScan { table: "keyword".into(), predicate: None });
        let cond = JoinPredicate::new("a", "x", "b", "y");
        let lr = PlanNode::inner(PhysicalOp::HashJoin { condition: cond }, vec![l.clone(), r.clone()]);
        let rl = PlanNode::inner(PhysicalOp::HashJoin { condition: cond }, vec![r, l]);
        assert_ne!(lr.signature_hash(), rl.signature_hash());
    }

    /// Names are single words in the signature, each its text's key, so the
    /// scheme must keep their positions apart: the same names in swapped
    /// places hash apart.
    #[test]
    fn names_swapped_between_positions_hash_apart() {
        for text in ["title", "kind_id", "a name interned by this test"] {
            let mut h = crate::SigHasher::new();
            h.write_str(text);
            assert_eq!(Name::new(text).sig_hash(), h.finish(), "{text:?}");
        }
        let leaf = |op| PlanNode::leaf(op).signature_hash();
        let scan = |table: &str| PlanNode::leaf(PhysicalOp::SeqScan { table: table.into(), predicate: None });
        let join = |condition| {
            PlanNode::inner(PhysicalOp::HashJoin { condition }, vec![scan("title"), scan("movie_companies")])
                .signature_hash()
        };
        assert_ne!(
            join(JoinPredicate::new("movie_companies", "movie_id", "title", "id")),
            join(JoinPredicate::new("title", "id", "movie_companies", "movie_id")),
            "join sides"
        );
        let filtered = |table: &str, column: &str| {
            leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(Predicate::atom(table, column, CompareOp::Eq, Operand::Num(1.0))),
            })
        };
        assert_ne!(filtered("title", "kind_id"), filtered("kind_id", "title"), "table and column of an atom");
        let indexed = |index_column: &str, column: &str| {
            leaf(PhysicalOp::IndexScan {
                table: "title".into(),
                index_column: index_column.into(),
                predicate: Some(Predicate::atom("title", column, CompareOp::Eq, Operand::Num(1.0))),
            })
        };
        assert_ne!(indexed("id", "kind_id"), indexed("kind_id", "id"), "index column and atom column");
    }

    /// Collision sanity for the 64-bit subplan signature (the key of the
    /// serving caches): over well beyond 1e5 structurally distinct generated
    /// sub-plans — scans sweeping tables/columns/operators/constants, string
    /// and compound predicates, join trees over distinct scan pairs and
    /// operators — every textually distinct plan must hash to a distinct
    /// 64-bit signature.  At this scale the birthday bound predicts ~4e-10
    /// collision probability, so a failure here means a broken hasher, not
    /// bad luck; the collision *posture* (what a collision would cost) is
    /// documented in `query::sighash`.
    #[test]
    fn signature_collision_free_over_1e5_subplans() {
        let tables = ["title", "movie_companies", "movie_info", "cast_info", "movie_keyword"];
        let columns = ["id", "production_year", "kind_id", "movie_id", "info_type_id"];
        let ops = [CompareOp::Eq, CompareOp::Gt, CompareOp::Lt, CompareOp::Ne];
        let mut plans: Vec<PlanNode> = Vec::new();

        // 5*5*4*800 = 80_000 predicate scans.
        for t in tables {
            for c in columns {
                for op in ops {
                    for k in 0..800 {
                        plans.push(PlanNode::leaf(PhysicalOp::SeqScan {
                            table: t.into(),
                            predicate: Some(Predicate::atom(t, c, op, Operand::Num(k as f64))),
                        }));
                    }
                }
            }
        }
        // 20_000 compound AND/OR predicates (structure varies with parity).
        for k in 0..20_000 {
            let a = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(k as f64));
            let b = Predicate::atom("title", "kind_id", CompareOp::Eq, Operand::Num((k % 7) as f64));
            let p = if k % 2 == 0 { a.and(b) } else { a.or(b) };
            plans.push(PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(p) }));
        }
        // 10_000 string predicates.
        for k in 0..10_000 {
            plans.push(PlanNode::leaf(PhysicalOp::SeqScan {
                table: "movie_companies".into(),
                predicate: Some(Predicate::atom(
                    "movie_companies",
                    "note",
                    CompareOp::Like,
                    Operand::Str(format!("%pattern-{k}%")),
                )),
            }));
        }
        // 3 * 6_000 = 18_000 join trees over distinct scan pairs.
        for (i, join_op) in [0usize, 1, 2].into_iter().enumerate() {
            for k in 0..6_000 {
                let l = PlanNode::leaf(PhysicalOp::SeqScan {
                    table: "title".into(),
                    predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(k as f64))),
                });
                let r = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
                let condition = JoinPredicate::new("movie_companies", "movie_id", "title", "id");
                let op = match join_op {
                    0 => PhysicalOp::HashJoin { condition },
                    1 => PhysicalOp::MergeJoin { condition },
                    _ => PhysicalOp::NestedLoopJoin { condition },
                };
                let children = if i % 2 == 0 { vec![l, r] } else { vec![r, l] };
                plans.push(PlanNode::inner(op, children));
            }
        }

        assert!(plans.len() >= 100_000, "need at least 1e5 sub-plans, built {}", plans.len());
        let mut textual = std::collections::HashSet::with_capacity(plans.len());
        let mut hashes = std::collections::HashSet::with_capacity(plans.len());
        for p in &plans {
            // Only count structurally distinct plans (the generators above
            // are constructed to be distinct; this guards the test itself).
            if textual.insert(p.signature()) {
                assert!(hashes.insert(p.signature_hash()), "64-bit signature collision on {}", p.signature());
            }
        }
        assert!(textual.len() >= 100_000, "only {} distinct sub-plans generated", textual.len());
        assert_eq!(textual.len(), hashes.len());
    }

    #[test]
    fn one_hot_indexes_are_unique_and_bounded() {
        let ops = [
            PhysicalOp::SeqScan { table: "t".into(), predicate: None },
            PhysicalOp::IndexScan { table: "t".into(), index_column: "id".into(), predicate: None },
            PhysicalOp::HashJoin { condition: JoinPredicate::new("a", "x", "b", "y") },
            PhysicalOp::MergeJoin { condition: JoinPredicate::new("a", "x", "b", "y") },
            PhysicalOp::NestedLoopJoin { condition: JoinPredicate::new("a", "x", "b", "y") },
            PhysicalOp::Sort { table: "t".into(), columns: vec![] },
            PhysicalOp::Aggregate { hash: true, group_columns: vec![] },
        ];
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            let idx = op.one_hot_index();
            assert!(idx < PhysicalOp::NUM_OPS);
            assert!(seen.insert(idx));
        }
    }

    #[test]
    fn explain_contains_operators() {
        let p = sample_plan();
        let text = p.explain();
        assert!(text.contains("Hash Join"));
        assert!(text.contains("Seq Scan on title"));
        assert!(p.to_string().contains("Aggregate"));
    }

    #[test]
    fn scan_and_join_classification() {
        let p = sample_plan();
        assert!(p.children[0].op.is_join());
        assert!(p.children[0].children[0].op.is_scan());
        assert!(!p.op.is_join());
        assert!(p.children[0].children[1].op.predicate().is_some());
    }
}
