//! A heuristic cost-based planner.
//!
//! Plays the role of the PostgreSQL optimizer that produced the paper's
//! training plans: it turns a [`LogicalQuery`] into a physical [`PlanNode`]
//! tree by (1) choosing a scan operator per table, (2) ordering joins
//! greedily by estimated input size, and (3) picking a join operator per
//! join.  The estimates used here are deliberately crude (table sizes times
//! fixed per-atom selectivities) — the point is only to produce realistic,
//! varied plan shapes; the *learned* estimator then works on whatever plans
//! come out, exactly as in the paper.

use imdb::Database;
use query::{CompareOp, JoinPredicate, LogicalQuery, Name, PhysicalOp, PlanNode, Predicate};

/// Planner tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Default selectivity assumed per predicate atom.
    pub atom_selectivity: f64,
    /// Outer-cardinality threshold below which an index nested-loop join is
    /// chosen over a hash join when the inner side exposes an index.
    pub nested_loop_threshold: f64,
    /// When true, a final Aggregate node is added if the query projects
    /// aggregates.
    pub add_aggregate: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { atom_selectivity: 0.2, nested_loop_threshold: 200.0, add_aggregate: true }
    }
}

/// Rough cardinality guess for a scan of `table` under `filter`.
fn guess_scan_rows(db: &Database, table: Name, filter: Option<&Predicate>, cfg: &PlannerConfig) -> f64 {
    let rows = db.table_rows(&table) as f64;
    match filter {
        None => rows,
        Some(p) => {
            let atoms = p.num_atoms() as f64;
            (rows * cfg.atom_selectivity.powf(atoms.min(3.0))).max(1.0)
        }
    }
}

/// True when the filter contains an equality atom on an indexed column of
/// the table (the case where an index scan is chosen).
fn equality_on_indexed_column(db: &Database, table: Name, filter: Option<&Predicate>) -> Option<Name> {
    let filter = filter?;
    let def = db.schema().table(&table)?;
    for atom in filter.atoms() {
        if atom.table == table && atom.op == CompareOp::Eq {
            if let Some(col) = def.column(&atom.column) {
                if col.indexed {
                    return Some(atom.column);
                }
            }
        }
    }
    None
}

/// Build the scan node for a table.
fn build_scan(db: &Database, table: Name, filter: Option<&Predicate>) -> PlanNode {
    if let Some(index_column) = equality_on_indexed_column(db, table, filter) {
        PlanNode::leaf(PhysicalOp::IndexScan { table, index_column, predicate: filter.cloned() })
    } else {
        PlanNode::leaf(PhysicalOp::SeqScan { table, predicate: filter.cloned() })
    }
}

/// Pick the join operator for joining an outer plan of `outer_rows` with a
/// scan of `inner_table` (`inner_rows`): index nested loop for a tiny outer
/// over an indexed inner key, merge join when both inputs are large and
/// similar, hash join otherwise.  Shared by the greedy planner and the
/// candidate enumerator so a given (prefix, table) pair always gets the
/// same operator.
fn choose_join_op(
    db: &Database,
    inner_table: Name,
    join_pred: JoinPredicate,
    outer_rows: f64,
    inner_rows: f64,
    cfg: &PlannerConfig,
) -> PhysicalOp {
    let inner_indexed = db
        .schema()
        .table(&inner_table)
        .and_then(|d| join_pred.column_for(inner_table).and_then(|c| d.column(&c)))
        .map(|c| c.indexed)
        .unwrap_or(false);
    if outer_rows <= cfg.nested_loop_threshold && inner_indexed {
        PhysicalOp::NestedLoopJoin { condition: join_pred }
    } else if outer_rows > 1000.0 && inner_rows > 1000.0 && (outer_rows / inner_rows).max(inner_rows / outer_rows) < 2.0
    {
        PhysicalOp::MergeJoin { condition: join_pred }
    } else {
        PhysicalOp::HashJoin { condition: join_pred }
    }
}

/// Enumerate candidate left-deep join orders for a query, as a DP plan
/// enumerator would: every permutation of the joined tables whose prefixes
/// stay connected in the join graph yields one candidate
/// `((t1 ⋈ t2) ⋈ t3) ⋈ …` tree, capped at `max_candidates` (DFS order, so
/// the kept candidates share long prefixes).  Scan choice and join-operator
/// selection are deterministic per prefix (the greedy planner's rules), so
/// two candidates extending the same table sequence share that entire
/// subtree — the heavy subtree overlap the estimator's serving-layer
/// memoization amortizes.  No final aggregate is attached: candidates are
/// join orders, not complete query plans.
///
/// Single-table queries yield their one scan.  Returns at least one
/// candidate for every connected query.
///
/// # Panics
/// Panics if the query references no tables or `max_candidates` is zero.
pub fn enumerate_join_orders(
    db: &Database,
    query: &LogicalQuery,
    cfg: &PlannerConfig,
    max_candidates: usize,
) -> Vec<PlanNode> {
    assert!(!query.tables.is_empty(), "query must reference at least one table");
    assert!(max_candidates > 0, "max_candidates must be positive");
    let scans: Vec<(Name, PlanNode, f64)> = query
        .tables
        .iter()
        .map(|&t| {
            let filter = query.filter(&t);
            (t, build_scan(db, t, filter), guess_scan_rows(db, t, filter, cfg))
        })
        .collect();
    if scans.len() == 1 {
        return vec![scans.into_iter().next().expect("one scan").1];
    }

    struct Dfs<'a> {
        db: &'a Database,
        query: &'a LogicalQuery,
        cfg: &'a PlannerConfig,
        scans: &'a [(Name, PlanNode, f64)],
        max_candidates: usize,
        out: Vec<PlanNode>,
    }

    impl Dfs<'_> {
        fn extend(&mut self, used: &mut Vec<bool>, joined: &mut Vec<Name>, current: PlanNode, current_rows: f64) {
            if self.out.len() >= self.max_candidates {
                return;
            }
            if joined.len() == self.scans.len() {
                self.out.push(current);
                return;
            }
            for i in 0..self.scans.len() {
                if used[i] {
                    continue;
                }
                let (table, ref scan, scan_rows) = self.scans[i];
                // The next table must connect to the joined prefix; for a
                // connected query some unused table always does.
                let Some(&join_pred) =
                    self.query.joins.iter().find(|j| j.involves(table) && joined.iter().any(|&jt| j.involves(jt)))
                else {
                    continue;
                };
                let op = choose_join_op(self.db, table, join_pred, current_rows, scan_rows, self.cfg);
                // Children stay in enumeration order (prefix first): two
                // candidates sharing a table prefix share the whole subtree.
                let next = PlanNode::inner(op, vec![current.clone(), scan.clone()]);
                let next_rows = (current_rows.max(scan_rows) * 1.2).max(1.0);
                used[i] = true;
                joined.push(table);
                self.extend(used, joined, next, next_rows);
                joined.pop();
                used[i] = false;
                if self.out.len() >= self.max_candidates {
                    return;
                }
            }
        }
    }

    let mut dfs = Dfs { db, query, cfg, scans: &scans, max_candidates, out: Vec::new() };
    for i in 0..scans.len() {
        let (table, ref scan, rows) = scans[i];
        let mut used = vec![false; scans.len()];
        used[i] = true;
        let mut joined = vec![table];
        dfs.extend(&mut used, &mut joined, scan.clone(), rows);
        if dfs.out.len() >= max_candidates {
            break;
        }
    }
    dfs.out
}

/// Plan a logical query into a physical plan tree.
///
/// # Panics
/// Panics if the query references no tables.
pub fn plan_query(db: &Database, query: &LogicalQuery, cfg: &PlannerConfig) -> PlanNode {
    assert!(!query.tables.is_empty(), "query must reference at least one table");

    // Scans with their rough cardinality guesses.
    let mut pending: Vec<(Name, PlanNode, f64)> = query
        .tables
        .iter()
        .map(|&t| {
            let filter = query.filter(&t);
            (t, build_scan(db, t, filter), guess_scan_rows(db, t, filter, cfg))
        })
        .collect();

    // Greedy left-deep join ordering: start from the smallest estimated scan,
    // repeatedly join with the cheapest connected table.
    pending.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite estimates"));
    let (mut joined_tables, mut current, mut current_rows) = {
        let (t, node, rows) = pending.remove(0);
        (vec![t], node, rows)
    };
    let mut remaining_joins: Vec<JoinPredicate> = query.joins.clone();

    while !pending.is_empty() {
        // Find a pending table connected to the joined set.
        let mut chosen: Option<(usize, JoinPredicate)> = None;
        for (i, &(t, _, rows)) in pending.iter().enumerate() {
            if let Some(&j) =
                remaining_joins.iter().find(|j| j.involves(t) && joined_tables.iter().any(|&jt| j.involves(jt)))
            {
                match chosen {
                    Some((best_i, _)) if pending[best_i].2 <= rows => {}
                    _ => chosen = Some((i, j)),
                }
            }
        }
        let (idx, join_pred) = match chosen {
            Some(c) => c,
            // Disconnected query (should not happen for generated workloads):
            // fall back to joining with the first pending table on a cross
            // product expressed as a hash join over the first remaining join.
            None => (
                0,
                remaining_joins
                    .first()
                    .copied()
                    .unwrap_or_else(|| JoinPredicate::new(&joined_tables[0], "id", &pending[0].0, "id")),
            ),
        };
        let (table, scan, scan_rows) = pending.remove(idx);
        remaining_joins.retain(|j| j != &join_pred);

        // Estimate output as the larger input times a fixed fan-out guess.
        let out_rows = (current_rows.max(scan_rows) * 1.2).max(1.0);

        let op = choose_join_op(db, table, join_pred, current_rows, scan_rows, cfg);

        // Build side (left child) is the smaller input.
        let children = if current_rows <= scan_rows { vec![current, scan] } else { vec![scan, current] };
        current = PlanNode::inner(op, children);
        current_rows = out_rows;
        joined_tables.push(table);
    }

    // Final aggregate when the query projects aggregates.
    let has_aggregate = query.projections.iter().any(|p| p.aggregate != query::Aggregate::None);
    if cfg.add_aggregate && has_aggregate {
        current = PlanNode::inner(PhysicalOp::Aggregate { hash: false, group_columns: vec![] }, vec![current]);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{Aggregate, Operand, Projection};
    use std::collections::HashMap;

    fn db() -> Database {
        generate_imdb(GeneratorConfig::tiny())
    }

    fn job_light_style_query() -> LogicalQuery {
        let mut filters = HashMap::new();
        filters
            .insert("title".into(), Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2000.0)));
        filters.insert(
            "company_type".into(),
            Predicate::atom("company_type", "kind", CompareOp::Eq, Operand::Str("production companies".into())),
        );
        LogicalQuery {
            tables: vec!["title".into(), "movie_companies".into(), "company_type".into()],
            joins: vec![
                JoinPredicate::new("movie_companies", "movie_id", "title", "id"),
                JoinPredicate::new("movie_companies", "company_type_id", "company_type", "id"),
            ],
            filters,
            projections: vec![Projection { table: "title".into(), column: "id".into(), aggregate: Aggregate::Count }],
        }
    }

    #[test]
    fn plan_covers_all_tables_and_joins() {
        let db = db();
        let q = job_light_style_query();
        let plan = plan_query(&db, &q, &PlannerConfig::default());
        let tables = plan.tables();
        assert_eq!(tables.len(), 3);
        // 3 scans + 2 joins + 1 aggregate
        assert_eq!(plan.size(), 6);
        assert!(matches!(plan.op, PhysicalOp::Aggregate { .. }));
    }

    #[test]
    fn single_table_plan_is_a_scan() {
        let db = db();
        let q = LogicalQuery::single_table(
            "movie_companies",
            Some(Predicate::atom("movie_companies", "note", CompareOp::Like, Operand::Str("%(presents)%".into()))),
        );
        let plan = plan_query(&db, &q, &PlannerConfig::default());
        // Aggregate on top of the scan (COUNT projection).
        assert!(matches!(plan.op, PhysicalOp::Aggregate { .. }));
        assert!(plan.children[0].op.is_scan());
    }

    #[test]
    fn equality_on_pk_uses_index_scan() {
        let db = db();
        let q = LogicalQuery::single_table(
            "title",
            Some(Predicate::atom("title", "id", CompareOp::Eq, Operand::Num(10.0))),
        );
        let plan = plan_query(&db, &q, &PlannerConfig { add_aggregate: false, ..Default::default() });
        assert!(matches!(plan.op, PhysicalOp::IndexScan { .. }), "expected index scan, got {}", plan.op.name());
    }

    #[test]
    fn planned_plan_executes_end_to_end() {
        let db = db();
        let q = job_light_style_query();
        let mut plan = plan_query(&db, &q, &PlannerConfig::default());
        let res = crate::executor::execute_plan(&db, &mut plan);
        assert!(res.cost > 0.0);
        assert_eq!(res.cardinality, 1.0, "aggregate plan must return one row");
        // The join below the aggregate has a real cardinality.
        assert!(plan.children[0].annotations.true_cardinality.expect("annotated") >= 0.0);
    }

    #[test]
    fn enumeration_covers_all_connected_orders() {
        let db = db();
        let q = job_light_style_query();
        let candidates = enumerate_join_orders(&db, &q, &PlannerConfig::default(), 1000);
        // Join graph: title—movie_companies—company_type.  Connected
        // left-deep orders: (t,mc,ct), (mc,t,ct), (mc,ct,t), (ct,mc,t).
        assert_eq!(candidates.len(), 4);
        let mut signatures = std::collections::HashSet::new();
        for c in &candidates {
            assert_eq!(c.size(), 5, "3 scans + 2 joins, no aggregate");
            assert_eq!(c.tables().len(), 3);
            assert!(c.op.is_join());
            assert!(signatures.insert(c.signature_hash()), "duplicate candidate emitted");
        }
    }

    #[test]
    fn enumeration_candidates_share_subtrees() {
        let db = db();
        let mut q = job_light_style_query();
        // Widen to a 4-table chain: subtree overlap grows with table count.
        q.tables.push("movie_info_idx".into());
        q.joins.push(JoinPredicate::new("movie_info_idx", "movie_id", "title", "id"));
        let candidates = enumerate_join_orders(&db, &q, &PlannerConfig::default(), 1000);
        assert_eq!(candidates.len(), 8, "a 4-table chain has 2^3 connected left-deep orders");
        // Count distinct sub-plan signatures across all candidate nodes: the
        // whole point of the enumeration workload is that this is far below
        // the total node count (shared scans and shared join prefixes).
        let mut total = 0usize;
        let mut distinct = std::collections::HashSet::new();
        for c in &candidates {
            for n in c.nodes_preorder() {
                total += 1;
                distinct.insert(n.signature_hash());
            }
        }
        assert!(
            distinct.len() * 2 < total + 1,
            "expected heavy subtree overlap, got {} distinct of {total} nodes",
            distinct.len()
        );
    }

    #[test]
    fn enumeration_respects_cap_and_single_table() {
        let db = db();
        let q = job_light_style_query();
        let capped = enumerate_join_orders(&db, &q, &PlannerConfig::default(), 2);
        assert_eq!(capped.len(), 2);
        let single = LogicalQuery::single_table("title", None);
        let only = enumerate_join_orders(&db, &single, &PlannerConfig::default(), 10);
        assert_eq!(only.len(), 1);
        assert!(only[0].op.is_scan());
    }

    #[test]
    fn enumerated_candidates_execute() {
        // Every candidate must be a valid physical plan for the query.
        let db = db();
        let q = job_light_style_query();
        for mut plan in enumerate_join_orders(&db, &q, &PlannerConfig::default(), 8) {
            let res = crate::executor::execute_plan(&db, &mut plan);
            assert!(res.cost > 0.0);
        }
    }

    #[test]
    fn greedy_plan_is_among_enumerated_shapes() {
        // The greedy planner's join tree (modulo its build-side swapping and
        // the aggregate) covers the same tables; sanity-check the enumerator
        // agrees on table coverage.
        let db = db();
        let q = job_light_style_query();
        let greedy = plan_query(&db, &q, &PlannerConfig { add_aggregate: false, ..Default::default() });
        let candidates = enumerate_join_orders(&db, &q, &PlannerConfig::default(), 1000);
        assert!(candidates.iter().all(|c| c.tables() == greedy.tables()));
    }

    #[test]
    fn plans_are_deterministic() {
        let db = db();
        let q = job_light_style_query();
        let a = plan_query(&db, &q, &PlannerConfig::default());
        let b = plan_query(&db, &q, &PlannerConfig::default());
        assert_eq!(a.signature(), b.signature());
    }
}
