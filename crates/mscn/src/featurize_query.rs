//! Set-based query featurization for MSCN.
//!
//! A plan (or query) is flattened into three sets:
//! * table set — per scanned table: table one-hot ⧺ sample bitmap of the
//!   table's filter,
//! * join set — per join condition: one-hot over the schema's join edges,
//! * predicate set — per atomic filter predicate: column one-hot ⧺ operator
//!   one-hot ⧺ normalized operand value.

use featurize::EncodingConfig;
use imdb::Database;
use query::{Name, Operand, PhysicalOp, PlanNode};
use std::collections::HashMap;
use std::sync::Arc;

/// The three feature sets MSCN consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySets {
    pub tables: Vec<Vec<f32>>,
    pub joins: Vec<Vec<f32>>,
    pub predicates: Vec<Vec<f32>>,
    /// Training targets taken from the plan root.
    pub true_cardinality: f64,
    pub true_cost: f64,
}

/// Featurizer turning annotated plans into [`QuerySets`].
pub struct MscnFeaturizer {
    db: Arc<Database>,
    config: EncodingConfig,
    join_pos: HashMap<(Name, Name, Name, Name), usize>,
    /// When false, sample bitmaps are zeroed (the `MSCNNS*` variants).
    pub use_sample_bitmap: bool,
}

impl MscnFeaturizer {
    /// Create a featurizer from the database and shared encoding config.
    pub fn new(db: Arc<Database>, config: EncodingConfig) -> Self {
        let mut join_pos = HashMap::new();
        for e in db.schema().join_edges() {
            let k = (Name::new(&e.fk_table), Name::new(&e.fk_column), Name::new(&e.pk_table), Name::new(&e.pk_column));
            let next = join_pos.len();
            join_pos.entry(k).or_insert(next);
        }
        MscnFeaturizer { db, config, join_pos, use_sample_bitmap: true }
    }

    /// The shared encoding configuration the feature positions come from.
    pub fn config(&self) -> &EncodingConfig {
        &self.config
    }

    /// Width of one table-set element.
    pub fn table_dim(&self) -> usize {
        self.config.table_pos.len() + self.config.sample_dim()
    }

    /// Width of one join-set element.
    pub fn join_dim(&self) -> usize {
        self.join_pos.len().max(1)
    }

    /// Width of one predicate-set element.
    pub fn predicate_dim(&self) -> usize {
        self.config.column_pos.len() + query::CompareOp::ALL.len() + 1
    }

    /// Flatten an annotated plan into the three sets.
    pub fn featurize(&self, plan: &PlanNode) -> QuerySets {
        let mut tables = Vec::new();
        let mut joins = Vec::new();
        let mut predicates = Vec::new();

        plan.visit_preorder(&mut |node, _| match &node.op {
            PhysicalOp::SeqScan { table, predicate } | PhysicalOp::IndexScan { table, predicate, .. } => {
                let mut t = vec![0.0f32; self.table_dim()];
                if let Some(&p) = self.config.table_pos.get(table) {
                    t[p] = 1.0;
                }
                if self.use_sample_bitmap {
                    if let (Some(pred), Some(sample), Some(tab)) =
                        (predicate.as_ref(), self.db.sample(table), self.db.table(table))
                    {
                        let bits = sample.bitmap(|row| pred.matches_row(tab, row));
                        for (i, b) in bits.iter().take(self.config.sample_dim()).enumerate() {
                            t[self.config.table_pos.len() + i] = *b;
                        }
                    } else if predicate.is_none() {
                        // No filter: all sampled rows qualify.
                        for i in 0..self.config.sample_dim() {
                            t[self.config.table_pos.len() + i] = 1.0;
                        }
                    }
                }
                tables.push(t);

                if let Some(pred) = predicate {
                    for atom in pred.atoms() {
                        let mut v = vec![0.0f32; self.predicate_dim()];
                        if let Some(p) = self.config.column_position(atom.table, atom.column) {
                            v[p] = 1.0;
                        }
                        v[self.config.column_pos.len() + atom.op.index()] = 1.0;
                        let val_slot = self.config.column_pos.len() + query::CompareOp::ALL.len();
                        v[val_slot] = match &atom.operand {
                            Operand::Num(x) => self.config.normalize_numeric(atom.table, atom.column, *x) as f32,
                            // MSCN has no string model: a fixed mid-range value
                            // (this is exactly the limitation the paper notes).
                            Operand::Str(_) | Operand::StrList(_) => 0.5,
                        };
                        predicates.push(v);
                    }
                }
            }
            PhysicalOp::HashJoin { condition }
            | PhysicalOp::MergeJoin { condition }
            | PhysicalOp::NestedLoopJoin { condition } => {
                let mut j = vec![0.0f32; self.join_dim()];
                let keys = [
                    (condition.left_table, condition.left_column, condition.right_table, condition.right_column),
                    (condition.right_table, condition.right_column, condition.left_table, condition.left_column),
                ];
                for k in keys {
                    if let Some(&p) = self.join_pos.get(&k) {
                        j[p] = 1.0;
                    }
                }
                joins.push(j);
            }
            _ => {}
        });

        if tables.is_empty() {
            tables.push(vec![0.0; self.table_dim()]);
        }
        if joins.is_empty() {
            joins.push(vec![0.0; self.join_dim()]);
        }
        if predicates.is_empty() {
            predicates.push(vec![0.0; self.predicate_dim()]);
        }

        QuerySets {
            tables,
            joins,
            predicates,
            true_cardinality: plan.annotations.true_cardinality.unwrap_or(0.0),
            true_cost: plan.annotations.true_cost.unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{execute_plan, CostModel};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Predicate};

    fn featurizer() -> (MscnFeaturizer, Arc<Database>) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        (MscnFeaturizer::new(db.clone(), cfg), db)
    }

    fn one_join_plan(db: &Database) -> PlanNode {
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "title".into(),
            predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2000.0))),
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
    fn sets_have_consistent_dimensions() {
        let (fx, db) = featurizer();
        let sets = fx.featurize(&one_join_plan(&db));
        assert_eq!(sets.tables.len(), 2);
        assert_eq!(sets.joins.len(), 1);
        assert_eq!(sets.predicates.len(), 1);
        assert!(sets.tables.iter().all(|t| t.len() == fx.table_dim()));
        assert!(sets.joins.iter().all(|j| j.len() == fx.join_dim()));
        assert!(sets.predicates.iter().all(|p| p.len() == fx.predicate_dim()));
        assert!(sets.true_cardinality > 0.0);
        assert!(sets.true_cost > 0.0);
    }

    #[test]
    fn join_one_hot_set_exactly_once() {
        let (fx, db) = featurizer();
        let sets = fx.featurize(&one_join_plan(&db));
        assert_eq!(sets.joins[0].iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn sample_bitmap_toggles() {
        let (mut fx, db) = featurizer();
        fx.use_sample_bitmap = false;
        let sets = fx.featurize(&one_join_plan(&db));
        let table_onehot_width = fx.config.table_pos.len();
        for t in &sets.tables {
            assert!(t[table_onehot_width..].iter().all(|&b| b == 0.0));
        }
    }

    #[test]
    fn plan_without_joins_gets_padding_elements() {
        let (fx, db) = featurizer();
        let mut scan = PlanNode::leaf(PhysicalOp::SeqScan { table: "keyword".into(), predicate: None });
        execute_plan(&db, &mut scan, &CostModel::default());
        let sets = fx.featurize(&scan);
        assert_eq!(sets.joins.len(), 1);
        assert_eq!(sets.joins[0].iter().sum::<f32>(), 0.0);
        assert_eq!(sets.predicates.len(), 1);
    }
}
