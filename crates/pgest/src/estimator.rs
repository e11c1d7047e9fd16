//! Plan-level traditional estimation (`PGCard` / `PGCost`).
//!
//! Estimates cardinality bottom-up over the physical plan: scans use
//! histogram selectivities, joins use `|L| * |R| / max(ndv, ndv)`, aggregates
//! produce one row.  Costs are computed with the same work-unit cost model as
//! the ground truth but fed with the *estimated* cardinalities — so cost
//! errors are driven by cardinality errors, matching the finding of Leis et
//! al. that the paper cites.

use crate::histogram::ColumnStats;
use crate::selectivity::{predicate_selectivity, TableStats};
use engine::CostModel;
use imdb::Database;
use query::{Name, PhysicalOp, PlanNode};
use std::collections::HashMap;

/// The traditional estimator: per-table column statistics plus the cost model.
#[derive(Debug, Clone)]
pub struct TraditionalEstimator {
    stats: HashMap<Name, TableStats>,
    table_rows: HashMap<Name, f64>,
    model: CostModel,
}

impl TraditionalEstimator {
    /// "ANALYZE" the database: build statistics for every column of every table.
    pub fn analyze(db: &Database) -> Self {
        let mut stats = HashMap::new();
        let mut table_rows = HashMap::new();
        for def in &db.schema().tables {
            let Some(table) = db.table(&def.name) else { continue };
            let name = Name::new(&def.name);
            table_rows.insert(name, table.n_rows() as f64);
            let mut per_table = TableStats::new();
            for col in &def.columns {
                if let Some(cs) = ColumnStats::build(table, &col.name) {
                    per_table.insert(Name::new(&col.name), cs);
                }
            }
            stats.insert(name, per_table);
        }
        TraditionalEstimator { stats, table_rows, model: CostModel::default() }
    }

    /// Number of distinct values of a column (1 when unknown).
    fn ndv(&self, table: Name, column: Name) -> f64 {
        self.stats.get(&table).and_then(|t| t.get(&column)).map(|c| c.n_distinct() as f64).unwrap_or(1.0).max(1.0)
    }

    /// Number of rows of a base table.
    fn rows(&self, table: Name) -> f64 {
        self.table_rows.get(&table).copied().unwrap_or(1.0)
    }

    /// Estimate a whole plan, writing `estimated_cardinality` and
    /// `estimated_cost` into every node's annotations, and return the root
    /// estimates `(cardinality, cost)`.
    pub fn estimate_plan(&self, plan: &mut PlanNode) -> (f64, f64) {
        self.estimate_node(plan)
    }

    fn estimate_node(&self, node: &mut PlanNode) -> (f64, f64) {
        let (card, cost) = match &node.op {
            PhysicalOp::SeqScan { table, predicate } => {
                let rows = self.rows(*table);
                let sel = predicate
                    .as_ref()
                    .map(|p| self.stats.get(table).map(|s| predicate_selectivity(s, p)).unwrap_or(0.33))
                    .unwrap_or(1.0);
                let out = (rows * sel).max(1.0);
                let n_atoms = predicate.as_ref().map(|p| p.num_atoms()).unwrap_or(0);
                (out, self.model.seq_scan(rows, n_atoms))
            }
            PhysicalOp::IndexScan { table, predicate, .. } => {
                let rows = self.rows(*table);
                let sel = predicate
                    .as_ref()
                    .map(|p| self.stats.get(table).map(|s| predicate_selectivity(s, p)).unwrap_or(0.33))
                    .unwrap_or(1.0);
                let out = (rows * sel).max(1.0);
                let n_atoms = predicate.as_ref().map(|p| p.num_atoms()).unwrap_or(0);
                (out, self.model.index_scan(rows, out, n_atoms))
            }
            PhysicalOp::HashJoin { condition }
            | PhysicalOp::MergeJoin { condition }
            | PhysicalOp::NestedLoopJoin { condition } => {
                let condition = *condition;
                let op = node.op.clone();
                let (lc, lcost) = self.estimate_node(&mut node.children[0]);
                let (rc, rcost) = self.estimate_node(&mut node.children[1]);
                // Classic equi-join estimate with the independence assumption.
                let ndv = self
                    .ndv(condition.left_table, condition.left_column)
                    .max(self.ndv(condition.right_table, condition.right_column));
                let out = (lc * rc / ndv).max(1.0);
                let own = match op {
                    PhysicalOp::HashJoin { .. } => self.model.hash_join(lc, rc, out),
                    PhysicalOp::MergeJoin { .. } => self.model.merge_join(lc, rc, out),
                    PhysicalOp::NestedLoopJoin { .. } => self.model.nested_loop(lc, rcost, out),
                    _ => unreachable!("join arm"),
                };
                (out, lcost + rcost + own)
            }
            PhysicalOp::Sort { .. } => {
                let (c, cost) = self.estimate_node(&mut node.children[0]);
                (c, cost + self.model.sort(c))
            }
            PhysicalOp::Aggregate { hash, group_columns } => {
                let hash = *hash;
                let groups = group_columns.len();
                let (c, cost) = self.estimate_node(&mut node.children[0]);
                let out = if groups == 0 { 1.0 } else { c.sqrt().max(1.0) };
                (out, cost + self.model.aggregate(c, out, hash))
            }
        };
        node.annotations.estimated_cardinality = Some(card);
        node.annotations.estimated_cost = Some(cost);
        (card, cost)
    }
}

impl estimator_core::Estimator for TraditionalEstimator {
    fn capabilities(&self) -> estimator_core::EstimatorCapabilities {
        // Histograms estimate both targets; there is no learned state to
        // persist — "training" is ANALYZE, which rebuilds from the database
        // in milliseconds, so checkpointing would save nothing.
        estimator_core::EstimatorCapabilities { cost: true, cardinality: true, checkpointable: false }
    }

    /// Nothing iterative to train: the statistics were built by
    /// [`TraditionalEstimator::analyze`].  Returns no epochs.
    fn fit_plans(&mut self, _plans: &[PlanNode]) -> Vec<metrics::EpochStats> {
        Vec::new()
    }

    fn is_fitted(&self) -> bool {
        true
    }

    /// Each plan through [`TraditionalEstimator::estimate_plan`] on a copy,
    /// so the caller's plans stay unannotated.
    fn estimate_many(&self, plans: &[PlanNode]) -> Vec<estimator_core::PlanEstimate> {
        plans
            .iter()
            .map(|plan| {
                let (card, cost) = self.estimate_plan(&mut plan.clone());
                estimator_core::PlanEstimate::both(cost, card)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::execute_plan;
    use imdb::{generate_imdb, GeneratorConfig};
    use metrics::q_error;
    use query::{CompareOp, JoinPredicate, Operand, Predicate};

    fn db() -> Database {
        generate_imdb(GeneratorConfig::tiny())
    }

    #[test]
    fn scan_estimate_close_to_truth_for_simple_range() {
        let db = db();
        let est = TraditionalEstimator::analyze(&db);
        let pred = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2000.0));
        let mut plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(pred) });
        let (card, cost) = est.estimate_plan(&mut plan);
        let mut real_plan = plan.clone();
        let res = execute_plan(&db, &mut real_plan, &CostModel::default());
        // Histograms are good at single-column ranges: q-error should be small.
        assert!(q_error(card, res.cardinality) < 2.0, "card {card} vs {}", res.cardinality);
        assert!(cost > 0.0);
    }

    #[test]
    fn correlated_conjunction_is_underestimated() {
        // The generator correlates note = '(co-production)' with
        // production-companies rows and recent years; independence multiplies
        // the marginals and underestimates the conjunction.
        let db = db();
        let est = TraditionalEstimator::analyze(&db);
        let pred =
            Predicate::atom("movie_companies", "note", CompareOp::Like, Operand::Str("%(co-production)%".into()))
                .and(Predicate::atom("movie_companies", "company_type_id", CompareOp::Eq, Operand::Num(1.0)));
        let mut plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: Some(pred) });
        let (card, _) = est.estimate_plan(&mut plan);
        let mut real_plan = plan.clone();
        let res = execute_plan(&db, &mut real_plan, &CostModel::default());
        assert!(res.cardinality > 0.0);
        assert!(card < res.cardinality, "expected underestimate: est {card} vs real {}", res.cardinality);
    }

    #[test]
    fn join_estimates_annotate_all_nodes() {
        let db = db();
        let est = TraditionalEstimator::analyze(&db);
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "title".into(),
            predicate: Some(Predicate::atom("title", "production_year", CompareOp::Lt, Operand::Num(1960.0))),
        });
        let scan_mii = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_info_idx".into(), predicate: None });
        let mut join = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_info_idx", "movie_id", "title", "id") },
            vec![scan_t, scan_mii],
        );
        est.estimate_plan(&mut join);
        join.visit_preorder(&mut |n, _| {
            assert!(n.annotations.estimated_cardinality.is_some());
            assert!(n.annotations.estimated_cost.is_some());
        });
    }

    #[test]
    fn multi_join_error_grows_with_join_count() {
        // The paper's motivation: traditional estimates degrade as more joins
        // (with correlated keys) are added.
        let db = db();
        let est = TraditionalEstimator::analyze(&db);
        let model = CostModel::default();

        let pred = Predicate::atom("title", "production_year", CompareOp::Lt, Operand::Num(1975.0));
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(pred) });
        let scan_mii = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "movie_info_idx".into(),
            predicate: Some(Predicate::atom("movie_info_idx", "info_type_id", CompareOp::Eq, Operand::Num(1.0))),
        });
        let join1 = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_info_idx", "movie_id", "title", "id") },
            vec![scan_t, scan_mii],
        );
        let scan_mk = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_keyword".into(), predicate: None });
        let join2 = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_keyword", "movie_id", "title", "id") },
            vec![join1, scan_mk],
        );

        let mut one_join = join2.children[0].clone();
        let mut two_join = join2;

        let (est1, _) = est.estimate_plan(&mut one_join);
        let real1 = execute_plan(&db, &mut one_join.clone(), &model).cardinality;
        let (est2, _) = est.estimate_plan(&mut two_join);
        let real2 = execute_plan(&db, &mut two_join.clone(), &model).cardinality;

        let q1 = q_error(est1, real1);
        let q2 = q_error(est2, real2);
        assert!(q2 >= q1 * 0.8, "error did not grow with joins: q1={q1:.2} q2={q2:.2}");
    }

    #[test]
    fn trait_driven_estimation_fills_both_slots() {
        use estimator_core::Estimator;
        let db = db();
        let mut est = TraditionalEstimator::analyze(&db);
        assert!(est.is_fitted());
        assert!(est.fit_plans(&[]).is_empty());
        let caps = est.capabilities();
        assert!(caps.cost && caps.cardinality && !caps.checkpointable);

        let pred = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(1990.0));
        let plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(pred) });
        let one = est.estimate_many(std::slice::from_ref(&plan))[0];
        // Trait estimates agree with the inherent (annotating) path, and the
        // input plan is left unannotated.
        let (card, cost) = est.estimate_plan(&mut plan.clone());
        assert_eq!(one.cost, Some(cost));
        assert_eq!(one.cardinality, Some(card));
        assert!(plan.annotations.estimated_cardinality.is_none());
        // Checkpointing is a typed refusal, not a panic.
        assert!(matches!(
            est.save_checkpoint_to(std::path::Path::new("/tmp/pg.ckpt")),
            Err(estimator_core::CheckpointError::Unsupported(_))
        ));
    }

    #[test]
    fn aggregate_estimates_one_row() {
        let db = db();
        let est = TraditionalEstimator::analyze(&db);
        let scan = PlanNode::leaf(PhysicalOp::SeqScan { table: "cast_info".into(), predicate: None });
        let mut agg = PlanNode::inner(PhysicalOp::Aggregate { hash: false, group_columns: vec![] }, vec![scan]);
        let (card, cost) = est.estimate_plan(&mut agg);
        assert_eq!(card, 1.0);
        assert!(cost > 0.0);
    }
}
