//! Ground-truth plan execution.
//!
//! Executes a physical plan against the in-memory [`Database`], producing the
//! *true* per-node output cardinality, then runs the one cost pass,
//! [`crate::cost::annotate_costs`], over those cardinalities for the *true*
//! cumulative cost.  The resulting annotated plan is exactly the training
//! triple of the paper: `<plan, real cost, real cardinality>` for the root
//! and for every sub-plan.
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

use crate::cost::{annotate_costs, Annotation};
use imdb::{Database, ValueRef};
use query::{CompareOp, JoinPredicate, Name, Operand, PhysicalOp, PlanNode, Predicate};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

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
pub fn execute_plan(db: &Database, plan: &mut PlanNode) -> ExecutionResult {
    execute_plan_mode(db, plan, ExecMode::Count)
}

/// Execute `plan` in an explicit [`ExecMode`].
pub fn execute_plan_mode(db: &Database, plan: &mut PlanNode, mode: ExecMode) -> ExecutionResult {
    let cardinality = match mode {
        ExecMode::Count if plan_is_countable(plan) => exec_count(db, plan).card,
        _ => exec_materialize(db, plan).len as f64,
    };
    let cost = annotate_costs(plan, Annotation::True, &|table| db.table_rows(&table) as f64);
    ExecutionResult { cardinality, cost }
}

/// Execute a batch of independent plans in parallel, annotating each in
/// place: one scoped worker per available core pulls the next plan from a
/// shared queue until none is left.  Workload generation labels whole query
/// batches through it.
pub fn execute_plans(db: &Database, plans: &mut [PlanNode]) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(plans.len());
    let queue = Mutex::new(plans.iter_mut());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some(plan) = queue.lock().expect("no worker panics while it holds the queue").next() else { break };
                execute_plan(db, plan);
            });
        }
    });
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

/// Execute a scan operator: `(table, surviving rows)`.
fn exec_scan(db: &Database, op: &PhysicalOp) -> (Name, Vec<usize>) {
    match op {
        PhysicalOp::SeqScan { table, predicate } => (*table, filter_rows(db, table, predicate.as_ref())),
        PhysicalOp::IndexScan { table, index_column, predicate } => {
            (*table, index_scan_rows(db, *table, *index_column, predicate.as_ref()))
        }
        _ => unreachable!("exec_scan called on a non-scan operator"),
    }
}

/// Output rows of an aggregate over `input` rows: one row without GROUP BY
/// (the workloads only use global MIN/MAX/COUNT aggregates).
fn aggregate_rows(input: f64, group_columns: &[Name]) -> f64 {
    if group_columns.is_empty() {
        1.0
    } else {
        input.max(1.0).sqrt().ceil()
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

fn exec_count(db: &Database, node: &mut PlanNode) -> CountRel {
    let relation = match &node.op {
        PhysicalOp::SeqScan { .. } | PhysicalOp::IndexScan { .. } => {
            let (table, rows) = exec_scan(db, &node.op);
            let card = rows.len() as f64;
            CountRel { tables: vec![table], sel: vec![rows], edges: Vec::new(), card, dead: false }
        }
        PhysicalOp::HashJoin { condition }
        | PhysicalOp::MergeJoin { condition }
        | PhysicalOp::NestedLoopJoin { condition } => {
            let condition = *condition;
            assert_eq!(node.children.len(), 2, "join node must have two children");
            let left = exec_count(db, &mut node.children[0]);
            let right = exec_count(db, &mut node.children[1]);
            let mut rel = merge_count_rels(left, right, &condition);
            rel.card = if rel.dead { 0.0 } else { count_join_tree(db, &rel) };
            rel
        }
        PhysicalOp::Sort { .. } => {
            assert_eq!(node.children.len(), 1, "sort node must have one child");
            exec_count(db, &mut node.children[0])
        }
        PhysicalOp::Aggregate { group_columns, .. } => {
            assert_eq!(node.children.len(), 1, "aggregate node must have one child");
            let card = aggregate_rows(exec_count(db, &mut node.children[0]).card, group_columns);
            // The aggregate erases the tuple structure; mark the relation
            // dead so an (unsupported) join above it matches the
            // materializing executor's empty result.
            CountRel { tables: Vec::new(), sel: Vec::new(), edges: Vec::new(), card, dead: true }
        }
    };

    node.annotations.true_cardinality = Some(relation.card);
    relation
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

fn exec_materialize(db: &Database, node: &mut PlanNode) -> MatRel {
    let relation = match &node.op {
        PhysicalOp::SeqScan { .. } | PhysicalOp::IndexScan { .. } => {
            let (table, rows) = exec_scan(db, &node.op);
            let len = rows.len();
            MatRel { tables: vec![table], cols: vec![rows], len }
        }
        PhysicalOp::HashJoin { condition }
        | PhysicalOp::MergeJoin { condition }
        | PhysicalOp::NestedLoopJoin { condition } => {
            let condition = *condition;
            assert_eq!(node.children.len(), 2, "join node must have two children");
            let left = exec_materialize(db, &mut node.children[0]);
            let right = exec_materialize(db, &mut node.children[1]);

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
            MatRel { tables, cols: out_cols, len }
        }
        PhysicalOp::Sort { .. } => {
            assert_eq!(node.children.len(), 1, "sort node must have one child");
            exec_materialize(db, &mut node.children[0])
        }
        PhysicalOp::Aggregate { group_columns, .. } => {
            assert_eq!(node.children.len(), 1, "aggregate node must have one child");
            let input = exec_materialize(db, &mut node.children[0]).len as f64;
            MatRel { tables: Vec::new(), cols: Vec::new(), len: aggregate_rows(input, group_columns) as usize }
        }
    };

    node.annotations.true_cardinality = Some(relation.len as f64);
    relation
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
        let res = execute_plan(&db, &mut plan);
        assert_eq!(res.cardinality, db.table_rows("title") as f64);
        assert!(plan.annotations.true_cost.expect("cost set") > 0.0);
    }

    #[test]
    fn seq_scan_with_predicate_filters() {
        let db = db();
        let pred = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2010.0));
        let mut plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(pred.clone()) });
        let res = execute_plan(&db, &mut plan);
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
        let res = execute_plan(&db, &mut join);

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
        let mut hash = mk_plan(|c| PhysicalOp::HashJoin { condition: c });
        let mut merge = mk_plan(|c| PhysicalOp::MergeJoin { condition: c });
        let mut nl = mk_plan(|c| PhysicalOp::NestedLoopJoin { condition: c });
        let rh = execute_plan(&db, &mut hash);
        let rm = execute_plan(&db, &mut merge);
        let rn = execute_plan(&db, &mut nl);
        assert_eq!(rh.cardinality, rm.cardinality);
        assert_eq!(rh.cardinality, rn.cardinality);
        assert!(rh.cost < rn.cost, "hash join should be cheaper than nested loop here");
    }

    #[test]
    fn aggregate_produces_single_row() {
        let db = db();
        let scan = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let mut agg = PlanNode::inner(PhysicalOp::Aggregate { hash: false, group_columns: vec![] }, vec![scan]);
        let res = execute_plan(&db, &mut agg);
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
        let res = execute_plan(&db, &mut join);
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
        let res = execute_plan(&db, &mut join2);
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
        let mut idx = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "movie_id".into(),
            predicate: Some(pred.clone()),
        });
        let mut seq =
            PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: Some(pred.clone()) });
        let ri = execute_plan(&db, &mut idx);
        let rs = execute_plan(&db, &mut seq);
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
        let mut idx = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "movie_id".into(),
            predicate: Some(pred.clone()),
        });
        let mut seq = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: Some(pred) });
        let ri = execute_plan(&db, &mut idx);
        let rs = execute_plan(&db, &mut seq);
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
        let res = execute_plan(&db, &mut idx);
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
            let rc = execute_plan_mode(&db, &mut counted, ExecMode::Count);
            let rm = execute_plan_mode(&db, &mut materialized, ExecMode::Materialize);
            assert_eq!(rc.cardinality, rm.cardinality, "root cardinality diverged for {}", plan.explain());
            assert_eq!(rc.cost.to_bits(), rm.cost.to_bits(), "root cost diverged for {}", plan.explain());
            // Every sub-plan must agree exactly as well: both modes run the
            // one cost pass over equal cardinalities, so costs match bit
            // for bit.
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
                assert_eq!(
                    c.annotations.true_cost.map(f64::to_bits),
                    m.annotations.true_cost.map(f64::to_bits),
                    "node cost diverged for {}",
                    plan.explain()
                );
            }
        }
        assert!(join_plans > 20, "randomized suite degenerated to single scans");
    }

    /// Hand-built plans that reach every arm of the cost pass: a two-atom
    /// SeqScan, an IndexScan, hash, merge and index nested-loop joins, a Sort,
    /// and an Aggregate without and with GROUP BY.  The planner emits neither
    /// a Sort nor a grouped Aggregate.
    fn every_operator_plans() -> [PlanNode; 2] {
        let scan = |table: &str, predicate| PlanNode::leaf(PhysicalOp::SeqScan { table: table.into(), predicate });
        let num = |table: &str, column: &str, op, v| Predicate::atom(table, column, op, Operand::Num(v));
        let on = |fk: &str, column: &str, pk: &str| JoinPredicate::new(fk, column, pk, "id");
        let two_atoms =
            num("title", "production_year", CompareOp::Gt, 1990.0).and(num("title", "kind_id", CompareOp::Lt, 3.0));
        let hash = PlanNode::inner(
            PhysicalOp::HashJoin { condition: on("movie_companies", "movie_id", "title") },
            vec![scan("title", Some(two_atoms)), scan("movie_companies", None)],
        );
        let merge = PlanNode::inner(
            PhysicalOp::MergeJoin { condition: on("movie_info_idx", "movie_id", "title") },
            vec![hash, scan("movie_info_idx", None)],
        );
        let sort = PlanNode::inner(
            PhysicalOp::Sort { table: "title".into(), columns: vec!["production_year".into()] },
            vec![merge],
        );
        let kind = Predicate::atom("company_type", "kind", CompareOp::Eq, Operand::Str("production companies".into()));
        let probe = PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "company_type_id".into(),
            predicate: Some(num("movie_companies", "company_type_id", CompareOp::Eq, 1.0)),
        };
        let index_nested_loop = PlanNode::inner(
            PhysicalOp::NestedLoopJoin { condition: on("movie_companies", "company_type_id", "company_type") },
            vec![scan("company_type", Some(kind)), PlanNode::leaf(probe)],
        );
        [
            PlanNode::inner(PhysicalOp::Aggregate { hash: false, group_columns: vec![] }, vec![sort]),
            PlanNode::inner(
                PhysicalOp::Aggregate { hash: true, group_columns: vec!["company_id".into()] },
                vec![index_nested_loop],
            ),
        ]
    }

    #[test]
    fn every_operator_keeps_its_true_cost_bits() {
        // Per-node `true_cost` bits in pre-order: any change to a formula,
        // a constant or the order of a cumulative sum moves them.
        let expected: [&[u64]; 2] = [
            &[
                0x406c43a6af215bf2,
                0x406bd22190690a06,
                0x406a61574ac34c1e,
                0x40564147ae147ae1,
                0x4039000000000000,
                0x4044800000000000,
                0x403f000000000000,
            ],
            &[0x4082a99b9309db8b, 0x408263e3411e566c, 0x3ff0cccccccccccd, 0x40722e49a784bcd2],
        ];
        let db = db();
        for (plan, bits) in every_operator_plans().into_iter().zip(expected) {
            for mode in [ExecMode::Count, ExecMode::Materialize] {
                let mut plan = plan.clone();
                execute_plan_mode(&db, &mut plan, mode);
                let got: Vec<u64> = plan
                    .nodes_preorder()
                    .iter()
                    .map(|n| n.annotations.true_cost.expect("annotated").to_bits())
                    .collect();
                assert_eq!(got, bits, "{mode:?}: {}", plan.explain());
            }
        }
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
        let res = execute_plan(&db, &mut join);
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
        let res = execute_plan(&db, &mut j3);
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
