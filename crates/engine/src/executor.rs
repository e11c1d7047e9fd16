//! Ground-truth plan execution.
//!
//! Executes a physical plan against the in-memory [`Database`], producing the
//! *true* per-node output cardinality and the *true* cumulative cost (the
//! cost-model formulas of [`crate::cost`] applied to the true cardinalities).
//! The resulting annotated plan is exactly the training triple of the paper:
//! `<plan, real cost, real cardinality>` for the root and for every sub-plan.
//!
//! Two execution modes share the scan layer but differ in how joins produce
//! cardinalities:
//!
//! * [`ExecMode::Count`] (the default) never materializes join tuples.  An
//!   intermediate relation is kept *factorized*: one selection vector per
//!   base table plus the join conditions applied so far.  Each join node's
//!   cardinality is obtained by propagating per-key match counts up the
//!   (acyclic) join tree — `O(Σ |selected rows|)` per node instead of
//!   `O(|output tuples|)`, so skewed star joins whose outputs reach `1e8+`
//!   tuples count in milliseconds with zero tuple storage.
//! * [`ExecMode::Materialize`] materializes every intermediate tuple in
//!   columnar form (one row-id vector per bound base table) and is kept as
//!   the brute-force oracle the counting path is tested against.
//!
//! Counting handles every plan the [`crate::planner`] emits (distinct base
//! tables, binary equi-joins).  Pathological hand-built shapes (the same
//! table scanned twice, non-binary joins) fall back to the materializing
//! path, so `execute_plan` is exact for every input.

use crate::cost::CostModel;
use imdb::{Database, ValueRef};
use query::{CompareOp, JoinPredicate, Name, Operand, PhysicalOp, PlanNode, Predicate};
use std::collections::{HashMap, HashSet};

/// How plan execution produces intermediate cardinalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Propagate per-key match counts; never materialize join tuples.
    #[default]
    Count,
    /// Materialize every intermediate tuple (columnar row-id vectors).
    Materialize,
}

/// Result of executing a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionResult {
    /// Output cardinality of the root node.
    pub cardinality: f64,
    /// Cumulative cost of the root node (work units).
    pub cost: f64,
}

/// Execute `plan` against `db`, annotating every node's
/// `annotations.true_cardinality` and `annotations.true_cost` in place, and
/// return the root's result.  Uses the counting mode (with a materializing
/// fallback for plan shapes the counting executor does not model).
pub fn execute_plan(db: &Database, plan: &mut PlanNode, model: &CostModel) -> ExecutionResult {
    execute_plan_mode(db, plan, model, ExecMode::Count)
}

/// Execute `plan` in an explicit [`ExecMode`].
pub fn execute_plan_mode(db: &Database, plan: &mut PlanNode, model: &CostModel, mode: ExecMode) -> ExecutionResult {
    match mode {
        ExecMode::Count if plan_is_countable(plan) => {
            let (rel, cost) = exec_count(db, plan, model);
            ExecutionResult { cardinality: rel.card, cost }
        }
        _ => {
            let (rel, cost) = exec_materialize(db, plan, model);
            ExecutionResult { cardinality: rel.len as f64, cost }
        }
    }
}

/// Execute a batch of independent plans in parallel, annotating each in
/// place; results come back in input order.  This is the ground-truth
/// counterpart of the estimator's level-batched inference: workload
/// generation and the bench harnesses execute whole query batches through it.
pub fn execute_plans(db: &Database, plans: &mut [PlanNode], model: &CostModel) -> Vec<ExecutionResult> {
    execute_plans_mode(db, plans, model, ExecMode::Count)
}

/// Batch execution in an explicit [`ExecMode`].
pub fn execute_plans_mode(
    db: &Database,
    plans: &mut [PlanNode],
    model: &CostModel,
    mode: ExecMode,
) -> Vec<ExecutionResult> {
    use rayon::prelude::*;
    plans.par_iter_mut().map(|plan| execute_plan_mode(db, plan, model, mode)).collect()
}

// --------------------------------------------------------------------------
// Scan layer (shared by both modes)
// --------------------------------------------------------------------------

/// Row ids of `table` matching `predicate` via a full filter scan.
fn filter_rows(db: &Database, table: &str, predicate: Option<&Predicate>) -> Vec<usize> {
    let t = match db.table(table) {
        Some(t) => t,
        None => return Vec::new(),
    };
    match predicate {
        None => (0..t.n_rows()).collect(),
        Some(p) => (0..t.n_rows()).filter(|&r| p.matches_row(t, r)).collect(),
    }
}

/// Split a predicate into its top-level AND conjuncts.
fn conjuncts(p: &Predicate) -> Vec<&Predicate> {
    fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
        match p {
            Predicate::And(l, r) => {
                walk(l, out);
                walk(r, out);
            }
            _ => out.push(p),
        }
    }
    let mut out = Vec::new();
    walk(p, &mut out);
    out
}

/// The integer key of an equality conjunct `table.column = <int>` usable to
/// probe the hash index on `column`.  Non-integral constants cannot match an
/// integer column, so they are left to the filter path.
fn index_probe_key(conjunct: &Predicate, table: Name, column: Name) -> Option<i64> {
    let Predicate::Atom(a) = conjunct else { return None };
    if a.table != table || a.column != column || a.op != CompareOp::Eq {
        return None;
    }
    let Operand::Num(v) = &a.operand else { return None };
    // Out-of-range constants must not saturate into a real key: the filter
    // path would reject every row, so the index path must too.
    (v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64).then_some(*v as i64)
}

/// Row ids for an index scan: an equality conjunct on the index column
/// probes the hash index, and the remaining conjuncts are applied row-wise.
/// Falls back to a full filter scan when no usable equality conjunct exists
/// (e.g. the equality sits under an OR) — the result set is identical either
/// way, only the access path differs.
fn index_scan_rows(db: &Database, table: Name, index_column: Name, predicate: Option<&Predicate>) -> Vec<usize> {
    let (Some(t), Some(index), Some(pred)) = (db.table(&table), db.index(&table, &index_column), predicate) else {
        return filter_rows(db, &table, predicate);
    };
    let parts = conjuncts(pred);
    let Some(pos) = parts.iter().position(|c| index_probe_key(c, table, index_column).is_some()) else {
        return filter_rows(db, &table, predicate);
    };
    let key = index_probe_key(parts[pos], table, index_column).expect("position checked");
    let residual: Vec<&Predicate> = parts.iter().enumerate().filter(|&(i, _)| i != pos).map(|(_, p)| *p).collect();
    index.lookup(key).iter().copied().filter(|&r| residual.iter().all(|p| p.matches_row(t, r))).collect()
}

/// Execute a scan operator: `(table, surviving rows, cost)`.
fn exec_scan(db: &Database, op: &PhysicalOp, model: &CostModel) -> (Name, Vec<usize>, f64) {
    match op {
        PhysicalOp::SeqScan { table, predicate } => {
            let rows = filter_rows(db, table, predicate.as_ref());
            let n_atoms = predicate.as_ref().map(|p| p.num_atoms()).unwrap_or(0);
            let cost = model.seq_scan(db.table_rows(table) as f64, n_atoms);
            (*table, rows, cost)
        }
        PhysicalOp::IndexScan { table, index_column, predicate } => {
            let rows = index_scan_rows(db, *table, *index_column, predicate.as_ref());
            let n_atoms = predicate.as_ref().map(|p| p.num_atoms()).unwrap_or(0);
            let cost = model.index_scan(db.table_rows(table) as f64, rows.len() as f64, n_atoms);
            (*table, rows, cost)
        }
        _ => unreachable!("exec_scan called on a non-scan operator"),
    }
}

/// Join cost shared by both modes; `right_cost` is the right child's
/// cumulative cost (the rescan cost of a nested loop's inner side).
fn join_cost(model: &CostModel, op: &PhysicalOp, l: f64, r: f64, o: f64, right_cost: f64) -> f64 {
    match op {
        PhysicalOp::HashJoin { .. } => model.hash_join(l, r, o),
        PhysicalOp::MergeJoin { .. } => model.merge_join(l, r, o),
        PhysicalOp::NestedLoopJoin { .. } => model.nested_loop(l, right_cost, o),
        _ => unreachable!("join_cost called on a non-join operator"),
    }
}

// --------------------------------------------------------------------------
// Counting mode
// --------------------------------------------------------------------------

/// A factorized intermediate relation: per-table selection vectors plus the
/// join conditions applied so far.  `card` is the exact tuple count of the
/// (never materialized) join result.
struct CountRel {
    tables: Vec<Name>,
    sel: Vec<Vec<usize>>,
    /// Resolved join edges: `(table idx, column, table idx, column)`.
    edges: Vec<(usize, Name, usize, Name)>,
    card: f64,
    /// Set when a join condition could not be resolved against the bound
    /// tables (or an aggregate erased the tuple structure); every enclosing
    /// join then produces zero rows, mirroring the materializing executor.
    dead: bool,
}

/// True when the counting executor models this plan exactly: scans are
/// leaves over pairwise-distinct base tables, joins are binary, and
/// Sort/Aggregate are unary.  Join conditions connecting two disjoint
/// subtrees then always form a tree over the base tables, which is what the
/// per-key count propagation requires.
fn plan_is_countable(plan: &PlanNode) -> bool {
    fn walk(node: &PlanNode, seen: &mut HashSet<Name>) -> bool {
        match &node.op {
            PhysicalOp::SeqScan { table, .. } | PhysicalOp::IndexScan { table, .. } => {
                node.children.is_empty() && seen.insert(*table)
            }
            PhysicalOp::HashJoin { .. } | PhysicalOp::MergeJoin { .. } | PhysicalOp::NestedLoopJoin { .. } => {
                node.children.len() == 2 && node.children.iter().all(|c| walk(c, seen))
            }
            PhysicalOp::Sort { .. } | PhysicalOp::Aggregate { .. } => {
                node.children.len() == 1 && walk(&node.children[0], seen)
            }
        }
    }
    walk(plan, &mut HashSet::new())
}

/// Exact cardinality of the factorized relation by per-key match-count
/// propagation over its join tree (Yannakakis-style counting): the tree is
/// rooted at table 0; every table folds each child into its per-row weights
/// through a `key -> matched-count` map; the total is the sum of the root's
/// weights.  Runs in `O(Σ |selected rows|)` — independent of the (possibly
/// enormous) number of join tuples.
fn count_join_tree(db: &Database, rel: &CountRel) -> f64 {
    let n = rel.tables.len();
    if n == 0 {
        return 0.0;
    }
    // Adjacency: (neighbor, own column, neighbor column).
    let mut adj: Vec<Vec<(usize, Name, Name)>> = vec![Vec::new(); n];
    for &(ti, ci, tj, cj) in &rel.edges {
        adj[ti].push((tj, ci, cj));
        adj[tj].push((ti, cj, ci));
    }
    // BFS order from the root; the relation is connected by construction
    // (every join merges two disjoint subtrees with one edge).
    let mut order = Vec::with_capacity(n);
    let mut parent = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    visited[0] = true;
    order.push(0);
    let mut head = 0;
    while head < order.len() {
        let t = order[head];
        head += 1;
        for &(nb, _, _) in &adj[t] {
            if !visited[nb] {
                visited[nb] = true;
                parent[nb] = t;
                order.push(nb);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "factorized relation must be connected");
    if order.len() < n {
        return 0.0;
    }
    // Upward sweep, children before parents.
    let mut weights: Vec<Option<Vec<f64>>> = rel.sel.iter().map(|s| Some(vec![1.0; s.len()])).collect();
    for &t in order.iter().rev() {
        for &(child, own_col, child_col) in &adj[t] {
            if parent[child] != t {
                continue;
            }
            let w_child = weights[child].take().expect("each child folds exactly once");
            let mut by_key: HashMap<ValueRef<'_>, f64> = HashMap::new();
            if let Some(col) = db.table(&rel.tables[child]).and_then(|tb| tb.column_by_name(&child_col)) {
                for (i, &row) in rel.sel[child].iter().enumerate() {
                    *by_key.entry(col.value_ref(row)).or_insert(0.0) += w_child[i];
                }
            }
            let w_t = weights[t].as_mut().expect("parent folds after its children");
            match db.table(&rel.tables[t]).and_then(|tb| tb.column_by_name(&own_col)) {
                Some(col) => {
                    for (i, &row) in rel.sel[t].iter().enumerate() {
                        w_t[i] *= by_key.get(&col.value_ref(row)).copied().unwrap_or(0.0);
                    }
                }
                // A missing join column never matches (cf. `Predicate`):
                // every tuple drops.
                None => w_t.iter_mut().for_each(|w| *w = 0.0),
            }
        }
    }
    weights[0].take().expect("root weights remain").iter().sum()
}

fn exec_count(db: &Database, node: &mut PlanNode, model: &CostModel) -> (CountRel, f64) {
    let (relation, cost): (CountRel, f64) = match &node.op {
        PhysicalOp::SeqScan { .. } | PhysicalOp::IndexScan { .. } => {
            let (table, rows, cost) = exec_scan(db, &node.op, model);
            let card = rows.len() as f64;
            (CountRel { tables: vec![table], sel: vec![rows], edges: Vec::new(), card, dead: false }, cost)
        }
        PhysicalOp::HashJoin { condition }
        | PhysicalOp::MergeJoin { condition }
        | PhysicalOp::NestedLoopJoin { condition } => {
            let condition = *condition;
            let op_kind = node.op.clone();
            assert_eq!(node.children.len(), 2, "join node must have two children");
            let (left, left_cost) = exec_count(db, &mut node.children[0], model);
            let (right, right_cost) = exec_count(db, &mut node.children[1], model);
            let (l, r) = (left.card, right.card);

            let mut rel = merge_count_rels(left, right, &condition);
            rel.card = if rel.dead { 0.0 } else { count_join_tree(db, &rel) };
            let own_cost = join_cost(model, &op_kind, l, r, rel.card, right_cost);
            (rel, left_cost + right_cost + own_cost)
        }
        PhysicalOp::Sort { .. } => {
            assert_eq!(node.children.len(), 1, "sort node must have one child");
            let (rel, child_cost) = exec_count(db, &mut node.children[0], model);
            let own = model.sort(rel.card);
            (rel, child_cost + own)
        }
        PhysicalOp::Aggregate { hash, group_columns } => {
            let hash = *hash;
            let n_group_cols = group_columns.len();
            assert_eq!(node.children.len(), 1, "aggregate node must have one child");
            let (rel, child_cost) = exec_count(db, &mut node.children[0], model);
            let input = rel.card;
            // Without GROUP BY the aggregate produces a single row; the
            // workloads only use global MIN/MAX/COUNT aggregates.
            let out_rows = if n_group_cols == 0 { 1.0 } else { input.max(1.0).sqrt().ceil() };
            let own = model.aggregate(input, out_rows, hash);
            // The aggregate erases the tuple structure; mark the relation
            // dead so an (unsupported) join above it matches the
            // materializing executor's empty result.
            let out = CountRel { tables: Vec::new(), sel: Vec::new(), edges: Vec::new(), card: out_rows, dead: true };
            (out, child_cost + own)
        }
    };

    node.annotations.true_cardinality = Some(relation.card);
    node.annotations.true_cost = Some(cost);
    (relation, cost)
}

/// Merge two factorized relations with the join condition as a new edge.
/// When the condition cannot be oriented (one side in `left`, the other in
/// `right`) the merged relation is dead: the materializing executor finds no
/// key matches in that case and produces zero rows.
fn merge_count_rels(left: CountRel, right: CountRel, condition: &JoinPredicate) -> CountRel {
    let offset = left.tables.len();
    let mut tables = left.tables;
    tables.extend(right.tables);
    let mut sel = left.sel;
    sel.extend(right.sel);
    let mut edges = left.edges;
    edges.extend(right.edges.into_iter().map(|(ti, ci, tj, cj)| (ti + offset, ci, tj + offset, cj)));

    let in_left = |t: Name| tables[..offset].iter().position(|&x| x == t);
    let in_right = |t: Name| tables[offset..].iter().position(|&x| x == t).map(|p| p + offset);
    let oriented = match (in_left(condition.left_table), in_right(condition.right_table)) {
        (Some(li), Some(ri)) => Some((li, condition.left_column, ri, condition.right_column)),
        _ => match (in_left(condition.right_table), in_right(condition.left_table)) {
            (Some(li), Some(ri)) => Some((li, condition.right_column, ri, condition.left_column)),
            _ => None,
        },
    };
    let mut dead = left.dead || right.dead;
    match oriented {
        Some((li, lc, ri, rc)) => edges.push((li, lc, ri, rc)),
        None => dead = true,
    }
    CountRel { tables, sel, edges, card: 0.0, dead }
}

// --------------------------------------------------------------------------
// Materializing mode (the oracle)
// --------------------------------------------------------------------------

/// A materialized intermediate relation in columnar form: `cols[t][i]` is
/// the base-table row id of table `tables[t]` in output tuple `i`.
struct MatRel {
    tables: Vec<Name>,
    cols: Vec<Vec<usize>>,
    len: usize,
}

fn exec_materialize(db: &Database, node: &mut PlanNode, model: &CostModel) -> (MatRel, f64) {
    let (relation, cost): (MatRel, f64) = match &node.op {
        PhysicalOp::SeqScan { .. } | PhysicalOp::IndexScan { .. } => {
            let (table, rows, cost) = exec_scan(db, &node.op, model);
            let len = rows.len();
            (MatRel { tables: vec![table], cols: vec![rows], len }, cost)
        }
        PhysicalOp::HashJoin { condition }
        | PhysicalOp::MergeJoin { condition }
        | PhysicalOp::NestedLoopJoin { condition } => {
            let condition = *condition;
            let op_kind = node.op.clone();
            assert_eq!(node.children.len(), 2, "join node must have two children");
            let (left, left_cost) = exec_materialize(db, &mut node.children[0], model);
            let (right, right_cost) = exec_materialize(db, &mut node.children[1], model);

            // Determine which side holds which join column (as the original
            // executor did: orientation follows the left child).
            let (build_tab, build_col, probe_tab, probe_col) = if left.tables.contains(&condition.left_table) {
                (condition.left_table, condition.left_column, condition.right_table, condition.right_column)
            } else {
                (condition.right_table, condition.right_column, condition.left_table, condition.left_column)
            };

            // Build on the left child, probe with the right; keys borrow
            // from the column storage, so no per-row allocation.
            let mut build: HashMap<ValueRef<'_>, Vec<usize>> = HashMap::new();
            let build_side = left
                .tables
                .iter()
                .position(|&t| t == build_tab)
                .and_then(|p| db.table(&build_tab).and_then(|t| t.column_by_name(&build_col)).map(|c| (p, c)));
            if let Some((pos, col)) = build_side {
                for (i, &row) in left.cols[pos].iter().enumerate() {
                    build.entry(col.value_ref(row)).or_default().push(i);
                }
            }
            let n_cols = left.tables.len() + right.tables.len();
            let mut out_cols: Vec<Vec<usize>> = vec![Vec::new(); n_cols];
            let probe_side = right
                .tables
                .iter()
                .position(|&t| t == probe_tab)
                .and_then(|p| db.table(&probe_tab).and_then(|t| t.column_by_name(&probe_col)).map(|c| (p, c)));
            if let Some((pos, col)) = probe_side {
                for (j, &row) in right.cols[pos].iter().enumerate() {
                    if let Some(matches) = build.get(&col.value_ref(row)) {
                        for &i in matches {
                            for (c, lc) in left.cols.iter().enumerate() {
                                out_cols[c].push(lc[i]);
                            }
                            for (c, rc) in right.cols.iter().enumerate() {
                                out_cols[left.cols.len() + c].push(rc[j]);
                            }
                        }
                    }
                }
            }
            let mut tables = left.tables;
            tables.extend(right.tables);
            let len = out_cols.first().map(|c| c.len()).unwrap_or(0);
            let own_cost = join_cost(model, &op_kind, left.len as f64, right.len as f64, len as f64, right_cost);
            (MatRel { tables, cols: out_cols, len }, left_cost + right_cost + own_cost)
        }
        PhysicalOp::Sort { .. } => {
            assert_eq!(node.children.len(), 1, "sort node must have one child");
            let (rel, child_cost) = exec_materialize(db, &mut node.children[0], model);
            let own = model.sort(rel.len as f64);
            (rel, child_cost + own)
        }
        PhysicalOp::Aggregate { hash, group_columns } => {
            let hash = *hash;
            let n_group_cols = group_columns.len();
            assert_eq!(node.children.len(), 1, "aggregate node must have one child");
            let (rel, child_cost) = exec_materialize(db, &mut node.children[0], model);
            let input = rel.len as f64;
            let out_rows = if n_group_cols == 0 { 1.0 } else { input.max(1.0).sqrt().ceil() };
            let own = model.aggregate(input, out_rows, hash);
            let out = MatRel { tables: Vec::new(), cols: Vec::new(), len: out_rows as usize };
            (out, child_cost + own)
        }
    };

    node.annotations.true_cardinality = Some(relation.len as f64);
    node.annotations.true_cost = Some(cost);
    (relation, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Name, Operand, PhysicalOp, PlanNode, Predicate};

    fn db() -> Database {
        generate_imdb(GeneratorConfig::tiny())
    }

    #[test]
    fn seq_scan_without_predicate_returns_all_rows() {
        let db = db();
        let mut plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        let res = execute_plan(&db, &mut plan, &CostModel::default());
        assert_eq!(res.cardinality, db.table_rows("title") as f64);
        assert!(plan.annotations.true_cost.expect("cost set") > 0.0);
    }

    #[test]
    fn seq_scan_with_predicate_filters() {
        let db = db();
        let pred = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2010.0));
        let mut plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(pred.clone()) });
        let res = execute_plan(&db, &mut plan, &CostModel::default());
        let title = db.table("title").expect("exists");
        let expected = (0..title.n_rows()).filter(|&r| pred.matches_row(title, r)).count();
        assert_eq!(res.cardinality, expected as f64);
        assert!(res.cardinality < db.table_rows("title") as f64);
    }

    #[test]
    fn join_cardinality_matches_manual_count() {
        let db = db();
        let scan_ct = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "company_type".into(),
            predicate: Some(Predicate::atom(
                "company_type",
                "kind",
                CompareOp::Eq,
                Operand::Str("production companies".into()),
            )),
        });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let mut join = PlanNode::inner(
            PhysicalOp::HashJoin {
                condition: JoinPredicate::new("movie_companies", "company_type_id", "company_type", "id"),
            },
            vec![scan_ct, scan_mc],
        );
        let res = execute_plan(&db, &mut join, &CostModel::default());

        // Manual count: movie_companies rows with company_type_id == 1.
        let mc = db.table("movie_companies").expect("exists");
        let expected = (0..mc.n_rows()).filter(|&r| mc.int("company_type_id", r) == Some(1)).count();
        assert_eq!(res.cardinality, expected as f64);
        // Children annotated too.
        assert!(join.children[0].annotations.true_cardinality.is_some());
        assert!(join.children[1].annotations.true_cardinality.is_some());
    }

    #[test]
    fn join_operators_agree_on_cardinality_but_not_cost() {
        let db = db();
        let mk_plan = |op: fn(JoinPredicate) -> PhysicalOp| {
            PlanNode::inner(
                op(JoinPredicate::new("movie_info_idx", "movie_id", "title", "id")),
                vec![
                    PlanNode::leaf(PhysicalOp::SeqScan {
                        table: "title".into(),
                        predicate: Some(Predicate::atom(
                            "title",
                            "production_year",
                            CompareOp::Lt,
                            Operand::Num(1950.0),
                        )),
                    }),
                    PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_info_idx".into(), predicate: None }),
                ],
            )
        };
        let model = CostModel::default();
        let mut hash = mk_plan(|c| PhysicalOp::HashJoin { condition: c });
        let mut merge = mk_plan(|c| PhysicalOp::MergeJoin { condition: c });
        let mut nl = mk_plan(|c| PhysicalOp::NestedLoopJoin { condition: c });
        let rh = execute_plan(&db, &mut hash, &model);
        let rm = execute_plan(&db, &mut merge, &model);
        let rn = execute_plan(&db, &mut nl, &model);
        assert_eq!(rh.cardinality, rm.cardinality);
        assert_eq!(rh.cardinality, rn.cardinality);
        assert!(rh.cost < rn.cost, "hash join should be cheaper than nested loop here");
    }

    #[test]
    fn aggregate_produces_single_row() {
        let db = db();
        let scan = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let mut agg = PlanNode::inner(PhysicalOp::Aggregate { hash: false, group_columns: vec![] }, vec![scan]);
        let res = execute_plan(&db, &mut agg, &CostModel::default());
        assert_eq!(res.cardinality, 1.0);
        // Cumulative cost grows from child to parent.
        let child_cost = agg.children[0].annotations.true_cost.expect("cost");
        assert!(res.cost > child_cost);
    }

    #[test]
    fn empty_result_propagates_zero_cardinality() {
        let db = db();
        let pred = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(3000.0));
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(pred) });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let mut join = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_t, scan_mc],
        );
        let res = execute_plan(&db, &mut join, &CostModel::default());
        assert_eq!(res.cardinality, 0.0);
        assert!(res.cost > 0.0);
    }

    #[test]
    fn three_way_join_executes() {
        let db = db();
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "title".into(),
            predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2005.0))),
        });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let scan_mii = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_info_idx".into(), predicate: None });
        let join1 = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_t, scan_mc],
        );
        let mut join2 = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_info_idx", "movie_id", "title", "id") },
            vec![join1, scan_mii],
        );
        let res = execute_plan(&db, &mut join2, &CostModel::default());
        assert!(res.cardinality > 0.0);
        assert!(res.cost > 0.0);
        // Every node is annotated.
        let mut count = 0;
        join2.visit_preorder(&mut |n, _| {
            assert!(n.annotations.true_cardinality.is_some());
            assert!(n.annotations.true_cost.is_some());
            count += 1;
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn index_scan_uses_index_and_matches_seq_scan() {
        let db = db();
        let mc = db.table("movie_companies").expect("exists");
        let key = mc.int("movie_id", 3).expect("int");
        let pred = Predicate::atom("movie_companies", "movie_id", CompareOp::Eq, Operand::Num(key as f64))
            .and(Predicate::atom("movie_companies", "company_type_id", CompareOp::Gt, Operand::Num(1.0)));
        let model = CostModel::default();
        let mut idx = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "movie_id".into(),
            predicate: Some(pred.clone()),
        });
        let mut seq =
            PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: Some(pred.clone()) });
        let ri = execute_plan(&db, &mut idx, &model);
        let rs = execute_plan(&db, &mut seq, &model);
        assert_eq!(ri.cardinality, rs.cardinality, "index path must return the filter-scan result");
        // Manual count through the index.
        let index = db.index("movie_companies", "movie_id").expect("index exists");
        let expected = index.lookup(key).iter().filter(|&&r| mc.int("company_type_id", r).expect("int") > 1).count();
        assert_eq!(ri.cardinality, expected as f64);
        assert!(ri.cost < rs.cost, "selective index probe should be cheaper than a seq scan");
    }

    #[test]
    fn index_scan_with_or_predicate_falls_back_to_filter_semantics() {
        let db = db();
        // The equality on the index column sits under an OR, so it is not a
        // conjunct and must not drive the index probe.
        let pred = Predicate::atom("movie_companies", "movie_id", CompareOp::Eq, Operand::Num(5.0))
            .or(Predicate::atom("movie_companies", "company_type_id", CompareOp::Eq, Operand::Num(2.0)));
        let model = CostModel::default();
        let mut idx = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "movie_id".into(),
            predicate: Some(pred.clone()),
        });
        let mut seq = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: Some(pred) });
        let ri = execute_plan(&db, &mut idx, &model);
        let rs = execute_plan(&db, &mut seq, &model);
        assert_eq!(ri.cardinality, rs.cardinality);
        assert!(ri.cardinality > 0.0);
    }

    #[test]
    fn index_scan_non_integral_equality_matches_nothing() {
        let db = db();
        let pred = Predicate::atom("movie_companies", "movie_id", CompareOp::Eq, Operand::Num(7.5));
        let mut idx = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "movie_id".into(),
            predicate: Some(pred),
        });
        let res = execute_plan(&db, &mut idx, &CostModel::default());
        assert_eq!(res.cardinality, 0.0);
    }

    /// The heart of this PR: the counting executor must agree exactly with
    /// the materializing oracle, node by node, on randomized planner output.
    #[test]
    fn counting_agrees_with_materializing_oracle_on_random_plans() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let db = db();
        let model = CostModel::default();
        let edges: Vec<JoinPredicate> = db
            .schema()
            .join_edges()
            .into_iter()
            .map(|e| JoinPredicate::new(&e.fk_table, &e.fk_column, &e.pk_table, &e.pk_column))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut join_plans = 0usize;
        for _ in 0..60 {
            // Random connected join set (0..=4 joins) walked from a random
            // edge, then a random left-deep plan over it.
            let mut shuffled = edges.clone();
            shuffled.shuffle(&mut rng);
            let n_joins = rng.gen_range(0..=4usize);
            let mut tables: Vec<Name> = Vec::new();
            let mut joins: Vec<JoinPredicate> = Vec::new();
            if n_joins == 0 {
                tables.push(Name::new(
                    ["title", "movie_companies", "movie_info", "cast_info"].choose(&mut rng).expect("non-empty"),
                ));
            } else {
                tables.push(shuffled[0].left_table);
                tables.push(shuffled[0].right_table);
                joins.push(shuffled[0]);
                while joins.len() < n_joins {
                    let next =
                        shuffled.iter().find(|e| tables.contains(&e.left_table) != tables.contains(&e.right_table));
                    match next {
                        Some(&e) => {
                            if !tables.contains(&e.left_table) {
                                tables.push(e.left_table);
                            }
                            if !tables.contains(&e.right_table) {
                                tables.push(e.right_table);
                            }
                            joins.push(e);
                        }
                        None => break,
                    }
                }
            }
            // Random predicates: numeric ranges on year-ish columns plus an
            // occasional string LIKE.
            let mut filters = std::collections::HashMap::new();
            for &t in &tables {
                if t == "title" && rng.gen_bool(0.7) {
                    let year = rng.gen_range(1940..2015) as f64;
                    let op = *[CompareOp::Gt, CompareOp::Lt, CompareOp::Ne].choose(&mut rng).expect("ops");
                    filters.insert(t, Predicate::atom("title", "production_year", op, Operand::Num(year)));
                }
                if t == "movie_companies" && rng.gen_bool(0.5) {
                    let p = Predicate::atom(
                        "movie_companies",
                        "company_type_id",
                        CompareOp::Eq,
                        Operand::Num(rng.gen_range(1..4) as f64),
                    );
                    let p = if rng.gen_bool(0.4) {
                        p.or(Predicate::atom(
                            "movie_companies",
                            "note",
                            CompareOp::Like,
                            Operand::Str("%(co-production)%".into()),
                        ))
                    } else {
                        p
                    };
                    filters.insert(t, p);
                }
            }
            let query = query::LogicalQuery { projections: vec![], tables: tables.clone(), joins, filters };
            let plan = crate::planner::plan_query(&db, &query, &crate::planner::PlannerConfig::default());
            if plan.size() > 1 {
                join_plans += 1;
            }

            let mut counted = plan.clone();
            let mut materialized = plan.clone();
            let rc = execute_plan_mode(&db, &mut counted, &model, ExecMode::Count);
            let rm = execute_plan_mode(&db, &mut materialized, &model, ExecMode::Materialize);
            assert_eq!(rc.cardinality, rm.cardinality, "root cardinality diverged for {}", plan.explain());
            assert!((rc.cost - rm.cost).abs() < 1e-6 * rm.cost.max(1.0), "root cost diverged");
            // Every sub-plan must agree exactly as well.
            let cn = counted.nodes_preorder();
            let mn = materialized.nodes_preorder();
            assert_eq!(cn.len(), mn.len());
            for (c, m) in cn.iter().zip(mn.iter()) {
                assert_eq!(
                    c.annotations.true_cardinality,
                    m.annotations.true_cardinality,
                    "node cardinality diverged for {}",
                    plan.explain()
                );
            }
        }
        assert!(join_plans > 20, "randomized suite degenerated to single scans");
    }

    #[test]
    fn duplicate_table_plan_falls_back_to_the_oracle() {
        let db = db();
        // Self-join shape the counting executor does not model: title ⋈ title.
        let scan_a = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        let scan_b = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        let mut join = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("title", "id", "title", "id") },
            vec![scan_a, scan_b],
        );
        assert!(!plan_is_countable(&join));
        // Count mode silently uses the materializing path, which joins every
        // title row with itself on the unique id.
        let res = execute_plan(&db, &mut join, &CostModel::default());
        assert_eq!(res.cardinality, db.table_rows("title") as f64);
    }

    #[test]
    fn counting_star_join_stays_factorized_on_hot_keys() {
        // A 3-fact star join over the hottest movies: the counting path's
        // work is linear in the selected rows even though the tuple output
        // is the product of the per-table fan-outs.
        let db = db();
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let scan_mk = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_keyword".into(), predicate: None });
        let scan_ci = PlanNode::leaf(PhysicalOp::SeqScan { table: "cast_info".into(), predicate: None });
        let j1 = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_t, scan_mc],
        );
        let j2 = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_keyword", "movie_id", "title", "id") },
            vec![j1, scan_mk],
        );
        let mut j3 = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("cast_info", "movie_id", "title", "id") },
            vec![j2, scan_ci],
        );
        let res = execute_plan(&db, &mut j3, &CostModel::default());
        // Exact expected count: sum over movies of the product of fan-outs.
        let count_by = |table: &str| {
            let t = db.table(table).expect("exists");
            let mut c = vec![0f64; db.table_rows("title")];
            for r in 0..t.n_rows() {
                c[t.int("movie_id", r).expect("int") as usize - 1] += 1.0;
            }
            c
        };
        let (mc, mk, ci) = (count_by("movie_companies"), count_by("movie_keyword"), count_by("cast_info"));
        let expected: f64 = (0..db.table_rows("title")).map(|m| mc[m] * mk[m] * ci[m]).sum();
        assert_eq!(res.cardinality, expected);
        assert!(res.cardinality > 1e5, "star join should be large: {}", res.cardinality);
    }
}
