//! Deterministic work-unit cost model.
//!
//! The constants mirror PostgreSQL's defaults (`seq_page_cost = 1.0`,
//! `random_page_cost = 4.0`, `cpu_tuple_cost = 0.01`, `cpu_operator_cost =
//! 0.0025`) so that the *shape* of the cost landscape — scans linear in table
//! size, index lookups logarithmic plus per-match random pages, hash joins
//! linear, nested loops multiplicative — matches the engine the paper
//! measured.  Applied to true cardinalities this model defines the "real
//! cost" used as the training target; applied to estimated cardinalities it
//! is the traditional estimator's cost output (`PGCost`).

/// Tuples per page used to convert row counts into page counts.
const TUPLES_PER_PAGE: f64 = 64.0;

/// Cost-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    pub seq_page_cost: f64,
    pub random_page_cost: f64,
    pub cpu_tuple_cost: f64,
    pub cpu_operator_cost: f64,
    pub hash_build_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_operator_cost: 0.0025,
            hash_build_cost: 0.015,
        }
    }
}

impl CostModel {
    /// Cost of a sequential scan over `table_rows` rows evaluating
    /// `n_predicate_atoms` predicate atoms per row.
    pub fn seq_scan(&self, table_rows: f64, n_predicate_atoms: usize) -> f64 {
        let pages = (table_rows / TUPLES_PER_PAGE).ceil();
        pages * self.seq_page_cost
            + table_rows * self.cpu_tuple_cost
            + table_rows * n_predicate_atoms as f64 * self.cpu_operator_cost
    }

    /// Cost of an index scan returning `matched_rows` of a table with
    /// `table_rows` rows, plus residual predicate evaluation.
    pub fn index_scan(&self, table_rows: f64, matched_rows: f64, n_predicate_atoms: usize) -> f64 {
        let descent = (table_rows.max(2.0)).log2() * self.cpu_operator_cost * 50.0;
        descent
            + matched_rows * self.random_page_cost / TUPLES_PER_PAGE.sqrt()
            + matched_rows * self.cpu_tuple_cost
            + matched_rows * n_predicate_atoms as f64 * self.cpu_operator_cost
    }

    /// Cost of a hash join with `build_rows` on the build side, `probe_rows`
    /// on the probe side and `output_rows` results.
    pub fn hash_join(&self, build_rows: f64, probe_rows: f64, output_rows: f64) -> f64 {
        build_rows * self.hash_build_cost + probe_rows * self.cpu_tuple_cost + output_rows * self.cpu_tuple_cost
    }

    /// Cost of a sort-merge join (includes sorting both inputs).
    pub fn merge_join(&self, left_rows: f64, right_rows: f64, output_rows: f64) -> f64 {
        self.sort(left_rows) + self.sort(right_rows) + (left_rows + right_rows + output_rows) * self.cpu_tuple_cost
    }

    /// Cost of a (possibly index-driven) nested-loop join.
    ///
    /// `inner_rescan_cost` is the cost of one scan of the inner child; it is
    /// paid once per outer row.
    pub fn nested_loop(&self, outer_rows: f64, inner_rescan_cost: f64, output_rows: f64) -> f64 {
        outer_rows * inner_rescan_cost.max(self.cpu_tuple_cost) + output_rows * self.cpu_tuple_cost
    }

    /// Cost of sorting `rows` rows.
    pub fn sort(&self, rows: f64) -> f64 {
        let r = rows.max(2.0);
        r * r.log2() * self.cpu_operator_cost * 2.0
    }

    /// Cost of aggregating `input_rows` rows into `output_rows` groups.
    pub fn aggregate(&self, input_rows: f64, output_rows: f64, hash: bool) -> f64 {
        let per_row = if hash { self.cpu_operator_cost * 2.0 } else { self.cpu_operator_cost };
        input_rows * (self.cpu_tuple_cost + per_row) + output_rows * self.cpu_tuple_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_linear_in_rows() {
        let m = CostModel::default();
        let small = m.seq_scan(1_000.0, 1);
        let large = m.seq_scan(10_000.0, 1);
        assert!(large > small * 8.0 && large < small * 12.0);
    }

    #[test]
    fn index_scan_cheaper_than_seq_scan_for_selective_lookup() {
        let m = CostModel::default();
        let seq = m.seq_scan(100_000.0, 1);
        let idx = m.index_scan(100_000.0, 10.0, 1);
        assert!(idx < seq / 10.0, "index scan {idx} not much cheaper than seq scan {seq}");
    }

    #[test]
    fn index_scan_degrades_with_matches() {
        let m = CostModel::default();
        assert!(m.index_scan(100_000.0, 50_000.0, 0) > m.index_scan(100_000.0, 10.0, 0));
    }

    #[test]
    fn hash_join_beats_nested_loop_on_large_inputs() {
        let m = CostModel::default();
        let hash = m.hash_join(50_000.0, 80_000.0, 100_000.0);
        let inner_scan = m.seq_scan(50_000.0, 0);
        let nl = m.nested_loop(80_000.0, inner_scan, 100_000.0);
        assert!(hash < nl / 100.0);
    }

    #[test]
    fn nested_loop_with_index_is_cheap_for_small_outer() {
        let m = CostModel::default();
        let inner_index = m.index_scan(100_000.0, 2.0, 0);
        let nl = m.nested_loop(10.0, inner_index, 20.0);
        let hash = m.hash_join(100_000.0, 10.0, 20.0);
        assert!(nl < hash, "index NL {nl} should beat hash join {hash} for tiny outer");
    }

    #[test]
    fn sort_superlinear() {
        let m = CostModel::default();
        assert!(m.sort(20_000.0) > 2.0 * m.sort(10_000.0));
    }

    #[test]
    fn aggregate_hash_costs_more_per_row() {
        let m = CostModel::default();
        assert!(m.aggregate(1000.0, 10.0, true) > m.aggregate(1000.0, 10.0, false));
    }

    #[test]
    fn costs_are_positive_and_finite() {
        let m = CostModel::default();
        for c in [
            m.seq_scan(0.0, 0),
            m.index_scan(0.0, 0.0, 0),
            m.hash_join(0.0, 0.0, 0.0),
            m.merge_join(0.0, 0.0, 0.0),
            m.nested_loop(0.0, 0.0, 0.0),
            m.sort(0.0),
            m.aggregate(0.0, 0.0, true),
        ] {
            assert!(c.is_finite() && c >= 0.0);
        }
    }
}
