//! Deterministic work-unit cost model.
//!
//! The constants mirror PostgreSQL's defaults (`seq_page_cost = 1.0`,
//! `random_page_cost = 4.0`, `cpu_tuple_cost = 0.01`, `cpu_operator_cost =
//! 0.0025`) so that the *shape* of the cost landscape — scans linear in table
//! size, index lookups logarithmic plus per-match random pages, hash joins
//! linear, nested loops multiplicative — matches the engine the paper
//! measured.
//!
//! [`annotate_costs`] is the one pass that applies the formulas to a plan.
//! Run over *true* cardinalities it defines the "real cost" used as the
//! training target ([`crate::executor`]); run over the traditional
//! estimator's cardinalities it is that estimator's cost output (`PGCost`).

use query::{Name, PhysicalOp, PlanNode, Predicate};

/// Tuples per page used to convert row counts into page counts.
const TUPLES_PER_PAGE: f64 = 64.0;
const SEQ_PAGE_COST: f64 = 1.0;
const RANDOM_PAGE_COST: f64 = 4.0;
const CPU_TUPLE_COST: f64 = 0.01;
const CPU_OPERATOR_COST: f64 = 0.0025;
const HASH_BUILD_COST: f64 = 0.015;

/// Which of a node's two annotation pairs a cost pass reads cardinalities
/// from and writes costs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annotation {
    /// `true_cardinality` in, `true_cost` out: the executor's labels.
    True,
    /// `estimated_cardinality` in, `estimated_cost` out: the traditional
    /// estimator's.
    Estimated,
}

/// Write every node's cumulative cost from its own cardinality and its
/// children's, and return the root's.
///
/// A join costs `left + right + own`, a Sort or Aggregate `child + own`, and
/// a scan its own cost; a nested loop pays its inner side's cumulative cost
/// once per outer row.  The pass visits a join's first two children and the
/// first child of a Sort or Aggregate, and expects each visited node's
/// cardinality to be annotated.  `table_rows` gives a scanned table's row
/// count.
pub fn annotate_costs(node: &mut PlanNode, pair: Annotation, table_rows: &impl Fn(Name) -> f64) -> f64 {
    let card = |n: &PlanNode| {
        match pair {
            Annotation::True => n.annotations.true_cardinality,
            Annotation::Estimated => n.annotations.estimated_cardinality,
        }
        .expect("the cost pass reads an annotated cardinality")
    };
    let out = card(node);
    let PlanNode { op, children, annotations } = node;
    let cost = match &*op {
        PhysicalOp::SeqScan { table, predicate } => seq_scan(table_rows(*table), atoms(predicate)),
        PhysicalOp::IndexScan { table, predicate, .. } => index_scan(table_rows(*table), out, atoms(predicate)),
        PhysicalOp::HashJoin { .. } | PhysicalOp::MergeJoin { .. } | PhysicalOp::NestedLoopJoin { .. } => {
            let left_cost = annotate_costs(&mut children[0], pair, table_rows);
            let right_cost = annotate_costs(&mut children[1], pair, table_rows);
            let (l, r) = (card(&children[0]), card(&children[1]));
            let own = match &*op {
                PhysicalOp::HashJoin { .. } => hash_join(l, r, out),
                PhysicalOp::MergeJoin { .. } => merge_join(l, r, out),
                _ => nested_loop(l, right_cost, out),
            };
            left_cost + right_cost + own
        }
        PhysicalOp::Sort { .. } => annotate_costs(&mut children[0], pair, table_rows) + sort(card(&children[0])),
        PhysicalOp::Aggregate { hash, .. } => {
            annotate_costs(&mut children[0], pair, table_rows) + aggregate(card(&children[0]), out, *hash)
        }
    };
    match pair {
        Annotation::True => annotations.true_cost = Some(cost),
        Annotation::Estimated => annotations.estimated_cost = Some(cost),
    }
    cost
}

fn atoms(predicate: &Option<Predicate>) -> usize {
    predicate.as_ref().map_or(0, Predicate::num_atoms)
}

/// Cost of a sequential scan over `table_rows` rows evaluating
/// `n_predicate_atoms` predicate atoms per row.
fn seq_scan(table_rows: f64, n_predicate_atoms: usize) -> f64 {
    let pages = (table_rows / TUPLES_PER_PAGE).ceil();
    pages * SEQ_PAGE_COST + table_rows * CPU_TUPLE_COST + table_rows * n_predicate_atoms as f64 * CPU_OPERATOR_COST
}

/// Cost of an index scan returning `matched_rows` of a table with
/// `table_rows` rows, plus residual predicate evaluation.
fn index_scan(table_rows: f64, matched_rows: f64, n_predicate_atoms: usize) -> f64 {
    let descent = (table_rows.max(2.0)).log2() * CPU_OPERATOR_COST * 50.0;
    descent
        + matched_rows * RANDOM_PAGE_COST / TUPLES_PER_PAGE.sqrt()
        + matched_rows * CPU_TUPLE_COST
        + matched_rows * n_predicate_atoms as f64 * CPU_OPERATOR_COST
}

/// Cost of a hash join with `build_rows` on the build side, `probe_rows`
/// on the probe side and `output_rows` results.
fn hash_join(build_rows: f64, probe_rows: f64, output_rows: f64) -> f64 {
    build_rows * HASH_BUILD_COST + probe_rows * CPU_TUPLE_COST + output_rows * CPU_TUPLE_COST
}

/// Cost of a sort-merge join (includes sorting both inputs).
fn merge_join(left_rows: f64, right_rows: f64, output_rows: f64) -> f64 {
    sort(left_rows) + sort(right_rows) + (left_rows + right_rows + output_rows) * CPU_TUPLE_COST
}

/// Cost of a (possibly index-driven) nested-loop join.
///
/// `inner_rescan_cost` is the cost of one scan of the inner child; it is
/// paid once per outer row.
fn nested_loop(outer_rows: f64, inner_rescan_cost: f64, output_rows: f64) -> f64 {
    outer_rows * inner_rescan_cost.max(CPU_TUPLE_COST) + output_rows * CPU_TUPLE_COST
}

/// Cost of sorting `rows` rows.
fn sort(rows: f64) -> f64 {
    let r = rows.max(2.0);
    r * r.log2() * CPU_OPERATOR_COST * 2.0
}

/// Cost of aggregating `input_rows` rows into `output_rows` groups.
fn aggregate(input_rows: f64, output_rows: f64, hash: bool) -> f64 {
    let per_row = if hash { CPU_OPERATOR_COST * 2.0 } else { CPU_OPERATOR_COST };
    input_rows * (CPU_TUPLE_COST + per_row) + output_rows * CPU_TUPLE_COST
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_linear_in_rows() {
        let small = seq_scan(1_000.0, 1);
        let large = seq_scan(10_000.0, 1);
        assert!(large > small * 8.0 && large < small * 12.0);
    }

    #[test]
    fn index_scan_cheaper_than_seq_scan_for_selective_lookup() {
        let seq = seq_scan(100_000.0, 1);
        let idx = index_scan(100_000.0, 10.0, 1);
        assert!(idx < seq / 10.0, "index scan {idx} not much cheaper than seq scan {seq}");
    }

    #[test]
    fn index_scan_degrades_with_matches() {
        assert!(index_scan(100_000.0, 50_000.0, 0) > index_scan(100_000.0, 10.0, 0));
    }

    #[test]
    fn hash_join_beats_nested_loop_on_large_inputs() {
        let hash = hash_join(50_000.0, 80_000.0, 100_000.0);
        let inner_scan = seq_scan(50_000.0, 0);
        let nl = nested_loop(80_000.0, inner_scan, 100_000.0);
        assert!(hash < nl / 100.0);
    }

    #[test]
    fn nested_loop_with_index_is_cheap_for_small_outer() {
        let inner_index = index_scan(100_000.0, 2.0, 0);
        let nl = nested_loop(10.0, inner_index, 20.0);
        let hash = hash_join(100_000.0, 10.0, 20.0);
        assert!(nl < hash, "index NL {nl} should beat hash join {hash} for tiny outer");
    }

    #[test]
    fn sort_superlinear() {
        assert!(sort(20_000.0) > 2.0 * sort(10_000.0));
    }

    #[test]
    fn aggregate_hash_costs_more_per_row() {
        assert!(aggregate(1000.0, 10.0, true) > aggregate(1000.0, 10.0, false));
    }

    #[test]
    fn costs_are_positive_and_finite() {
        for c in [
            seq_scan(0.0, 0),
            index_scan(0.0, 0.0, 0),
            hash_join(0.0, 0.0, 0.0),
            merge_join(0.0, 0.0, 0.0),
            nested_loop(0.0, 0.0, 0.0),
            sort(0.0),
            aggregate(0.0, 0.0, true),
        ] {
            assert!(c.is_finite() && c >= 0.0);
        }
    }
}
