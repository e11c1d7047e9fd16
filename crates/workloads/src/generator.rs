//! Training-data generation (Section 4.3).
//!
//! Queries are generated from the schema's join graph: pick a number of
//! tables, walk connected join edges, attach numeric and string predicates
//! sampled from the data, aggregate them with AND/OR, and add an aggregate
//! projection.  Each query is then planned and executed to produce the
//! annotated physical plan — the `<plan, real cost, real cardinality>`
//! training triple.

use engine::{plan_query, CostModel, PlannerConfig};
use imdb::{Database, Value};
use query::{Aggregate, CompareOp, JoinPredicate, LogicalQuery, Name, Operand, PlanNode, Predicate, Projection};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::HashMap;

/// Configuration of the query generator.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub num_queries: usize,
    /// Minimum / maximum number of joins per query.
    pub min_joins: usize,
    pub max_joins: usize,
    /// Maximum predicate atoms per table.
    pub max_predicates_per_table: usize,
    /// Whether string predicates (=, LIKE, NOT LIKE, IN) are generated.
    pub use_string_predicates: bool,
    /// Probability that two predicate atoms are combined with OR instead of AND.
    pub or_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_queries: 200,
            min_joins: 0,
            max_joins: 2,
            max_predicates_per_table: 2,
            use_string_predicates: false,
            or_probability: 0.25,
            seed: 11,
        }
    }
}

/// A generated training/evaluation sample: the logical query plus its
/// executed (annotated) physical plan.
#[derive(Debug, Clone)]
pub struct QuerySample {
    pub query: LogicalQuery,
    pub plan: PlanNode,
}

impl QuerySample {
    /// True cardinality of the plan root.
    pub fn true_cardinality(&self) -> f64 {
        self.plan.annotations.true_cardinality.unwrap_or(0.0)
    }

    /// True cost of the plan root.
    pub fn true_cost(&self) -> f64 {
        self.plan.annotations.true_cost.unwrap_or(0.0)
    }
}

/// Numeric columns eligible for range/equality predicates.
const NUMERIC_PREDICATE_COLUMNS: &[(&str, &str)] = &[
    ("title", "production_year"),
    ("title", "kind_id"),
    ("title", "season_nr"),
    ("title", "episode_nr"),
    ("movie_companies", "company_type_id"),
    ("movie_info_idx", "info_type_id"),
    ("movie_info", "info_type_id"),
    ("cast_info", "role_id"),
    ("movie_keyword", "keyword_id"),
];

/// String columns eligible for string predicates, with LIKE patterns drawn
/// from the JOB-style workload.
const STRING_PREDICATE_COLUMNS: &[(&str, &str)] = &[
    ("movie_companies", "note"),
    ("company_type", "kind"),
    ("info_type", "info"),
    ("movie_info_idx", "info"),
    ("movie_info", "info"),
    ("cast_info", "note"),
    ("keyword", "keyword"),
    ("company_name", "name"),
];

/// LIKE patterns used by string predicates (the motifs of the JOB workload).
pub const LIKE_PATTERNS: &[&str] = &[
    "%(co-production)%",
    "%(presents)%",
    "%(as Metro-Goldwyn-Mayer Pictures)%",
    "%(TV)%",
    "%(USA)%",
    "%(worldwide)%",
    "%(voice)%",
    "%(uncredited)%",
    "%Pictures%",
    "%-06-%",
    "%-12-%",
    "top %",
    "%rank%",
];

/// The generator: owns the database handle and RNG.
pub struct QueryGenerator<'a> {
    db: &'a Database,
    config: WorkloadConfig,
    rng: ChaCha8Rng,
    join_edges: Vec<JoinPredicate>,
}

impl<'a> QueryGenerator<'a> {
    /// Create a generator.
    pub fn new(db: &'a Database, config: WorkloadConfig) -> Self {
        let join_edges = db
            .schema()
            .join_edges()
            .into_iter()
            .map(|e| JoinPredicate::new(&e.fk_table, &e.fk_column, &e.pk_table, &e.pk_column))
            .collect();
        QueryGenerator { db, config, rng: ChaCha8Rng::seed_from_u64(config.seed), join_edges }
    }

    /// Pick a random value from a column (for realistic constants).
    fn sample_value(&mut self, table: &str, column: &str) -> Option<Value> {
        let t = self.db.table(table)?;
        if t.n_rows() == 0 {
            return None;
        }
        let row = self.rng.gen_range(0..t.n_rows());
        t.value(column, row)
    }

    /// Generate one numeric atom over a table in the query.
    fn numeric_atom(&mut self, tables: &[Name]) -> Option<Predicate> {
        let candidates: Vec<&(&str, &str)> =
            NUMERIC_PREDICATE_COLUMNS.iter().filter(|(t, _)| tables.iter().any(|x| x == t)).collect();
        let (table, column) = **candidates.choose(&mut self.rng)?;
        let value = self.sample_value(table, column)?.as_int()? as f64;
        let op =
            *[CompareOp::Gt, CompareOp::Lt, CompareOp::Eq, CompareOp::Ne].choose(&mut self.rng).expect("non-empty");
        Some(Predicate::atom(table, column, op, Operand::Num(value)))
    }

    /// Generate one string atom over a table in the query.
    fn string_atom(&mut self, tables: &[Name]) -> Option<Predicate> {
        let candidates: Vec<&(&str, &str)> =
            STRING_PREDICATE_COLUMNS.iter().filter(|(t, _)| tables.iter().any(|x| x == t)).collect();
        let (table, column) = **candidates.choose(&mut self.rng)?;
        let op = *[CompareOp::Eq, CompareOp::Ne, CompareOp::Like, CompareOp::NotLike, CompareOp::In]
            .choose(&mut self.rng)
            .expect("non-empty");
        let operand = match op {
            CompareOp::Like | CompareOp::NotLike => {
                Operand::Str((*LIKE_PATTERNS.choose(&mut self.rng).expect("non-empty")).to_string())
            }
            CompareOp::In => {
                let mut items = Vec::new();
                for _ in 0..self.rng.gen_range(2..=3) {
                    if let Some(Value::Str(s)) = self.sample_value(table, column) {
                        items.push(s);
                    }
                }
                if items.is_empty() {
                    return None;
                }
                Operand::StrList(items)
            }
            _ => match self.sample_value(table, column)? {
                Value::Str(s) => Operand::Str(s),
                Value::Int(_) => return None,
            },
        };
        Some(Predicate::atom(table, column, op, operand))
    }

    /// Combine atoms for one table into a compound predicate with AND/OR.
    fn combine(&mut self, atoms: Vec<Predicate>) -> Option<Predicate> {
        let mut iter = atoms.into_iter();
        let mut acc = iter.next()?;
        for a in iter {
            acc = if self.rng.gen_bool(self.config.or_probability) { acc.or(a) } else { acc.and(a) };
        }
        Some(acc)
    }

    /// Generate one logical query from the join graph.
    pub fn generate_query(&mut self) -> LogicalQuery {
        let n_joins = self.rng.gen_range(self.config.min_joins..=self.config.max_joins);
        // Random walk over the join graph starting from a random edge (or a
        // random fact table for 0-join queries).
        let mut tables: Vec<Name> = Vec::new();
        let mut joins: Vec<JoinPredicate> = Vec::new();
        if n_joins == 0 {
            let start = ["title", "movie_companies", "movie_info_idx", "movie_info", "cast_info"]
                .choose(&mut self.rng)
                .expect("non-empty");
            tables.push(Name::new(start));
        } else {
            let mut edges = self.join_edges.clone();
            edges.shuffle(&mut self.rng);
            let first = edges[0];
            tables.push(first.left_table);
            tables.push(first.right_table);
            joins.push(first);
            while joins.len() < n_joins {
                let next = edges.iter().find(|e| {
                    let l_in = tables.contains(&e.left_table);
                    let r_in = tables.contains(&e.right_table);
                    l_in != r_in
                });
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

        // Predicates per table.
        let mut filters: HashMap<Name, Predicate> = HashMap::new();
        for &table in &tables {
            let n_atoms = self.rng.gen_range(0..=self.config.max_predicates_per_table);
            let mut atoms = Vec::new();
            for _ in 0..n_atoms {
                let use_string = self.config.use_string_predicates && self.rng.gen_bool(0.5);
                let atom = if use_string {
                    self.string_atom(std::slice::from_ref(&table))
                } else {
                    self.numeric_atom(std::slice::from_ref(&table))
                };
                if let Some(a) = atom {
                    atoms.push(a);
                }
            }
            if let Some(p) = self.combine(atoms) {
                filters.insert(table, p);
            }
        }

        let agg = *[Aggregate::Count, Aggregate::Min, Aggregate::Max].choose(&mut self.rng).expect("non-empty");
        LogicalQuery {
            projections: vec![Projection { table: tables[0], column: "id".into(), aggregate: agg }],
            tables,
            joins,
            filters,
        }
    }

    /// Generate `num_queries` logical queries.
    pub fn generate_queries(&mut self) -> Vec<LogicalQuery> {
        (0..self.config.num_queries).map(|_| self.generate_query()).collect()
    }
}

/// Plan and execute a batch of logical queries in parallel, producing
/// annotated training samples: planning fans out per query, then the whole
/// plan batch goes through [`engine::execute_plans`] — the counting executor,
/// so ground-truth labels never materialize join tuples and full-scale star
/// joins stay cheap.
pub fn execute_workload(db: &Database, queries: Vec<LogicalQuery>) -> Vec<QuerySample> {
    let planner_cfg = PlannerConfig::default();
    let cost_model = CostModel::default();
    let mut plans: Vec<PlanNode> = queries.par_iter().map(|q| plan_query(db, q, &planner_cfg)).collect();
    engine::execute_plans(db, &mut plans, &cost_model);
    queries.into_iter().zip(plans).map(|(query, plan)| QuerySample { query, plan }).collect()
}

/// Generate and execute a workload in one call.
pub fn generate_workload(db: &Database, config: WorkloadConfig) -> Vec<QuerySample> {
    let mut generator = QueryGenerator::new(db, config);
    let queries = generator.generate_queries();
    execute_workload(db, queries)
}

/// All string operands appearing in a workload (for string-embedding training).
pub fn workload_strings(samples: &[QuerySample]) -> Vec<String> {
    let mut out = Vec::new();
    for s in samples {
        for pred in s.query.filters.values() {
            for atom in pred.atoms() {
                match &atom.operand {
                    Operand::Str(v) => out.push(v.clone()),
                    Operand::StrList(items) => out.extend(items.iter().cloned()),
                    Operand::Num(_) => {}
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{generate_imdb, GeneratorConfig};

    fn db() -> Database {
        generate_imdb(GeneratorConfig::tiny())
    }

    #[test]
    fn generated_queries_are_connected_and_within_join_bounds() {
        let db = db();
        let cfg = WorkloadConfig { num_queries: 30, min_joins: 0, max_joins: 3, ..Default::default() };
        let mut generator = QueryGenerator::new(&db, cfg);
        for q in generator.generate_queries() {
            assert!(q.is_connected(), "disconnected query: {}", q.to_sql());
            assert!(q.num_joins() <= 3);
            assert!(!q.tables.is_empty());
        }
    }

    #[test]
    fn string_workload_contains_string_predicates() {
        let db = db();
        let cfg = WorkloadConfig {
            num_queries: 40,
            use_string_predicates: true,
            max_predicates_per_table: 3,
            ..Default::default()
        };
        let mut generator = QueryGenerator::new(&db, cfg);
        let queries = generator.generate_queries();
        let has_string = queries.iter().any(|q| {
            q.filters
                .values()
                .any(|p| p.atoms().iter().any(|a| matches!(a.operand, Operand::Str(_) | Operand::StrList(_))))
        });
        assert!(has_string, "no string predicates generated");
    }

    #[test]
    fn executed_workload_has_annotations() {
        let db = db();
        let samples = generate_workload(&db, WorkloadConfig { num_queries: 10, ..Default::default() });
        assert_eq!(samples.len(), 10);
        for s in &samples {
            assert!(s.true_cost() > 0.0);
            assert!(s.plan.annotations.true_cardinality.is_some());
            // Every node is annotated for sub-plan training.
            s.plan.visit_preorder(&mut |n, _| assert!(n.annotations.true_cost.is_some()));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let db = db();
        let cfg = WorkloadConfig { num_queries: 5, seed: 99, ..Default::default() };
        let a: Vec<String> = QueryGenerator::new(&db, cfg).generate_queries().iter().map(|q| q.to_sql()).collect();
        let b: Vec<String> = QueryGenerator::new(&db, cfg).generate_queries().iter().map(|q| q.to_sql()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn ground_truth_labels_match_the_materializing_oracle() {
        // Workload labeling rides the counting executor; on generated
        // JOB-style plans (joins + string predicates + index scans) every
        // node's label must equal the tuple-materializing oracle's.
        use engine::{execute_plan_mode, CostModel, ExecMode};
        let db = db();
        let cfg = WorkloadConfig {
            num_queries: 25,
            min_joins: 0,
            max_joins: 4,
            use_string_predicates: true,
            max_predicates_per_table: 3,
            seed: 123,
            ..Default::default()
        };
        let samples = generate_workload(&db, cfg);
        let model = CostModel::default();
        for s in &samples {
            let mut oracle = s.plan.clone();
            oracle.visit_postorder_mut(&mut |n| n.annotations = Default::default());
            execute_plan_mode(&db, &mut oracle, &model, ExecMode::Materialize);
            let counted = s.plan.nodes_preorder();
            let materialized = oracle.nodes_preorder();
            assert_eq!(counted.len(), materialized.len());
            for (c, m) in counted.iter().zip(materialized.iter()) {
                assert_eq!(
                    c.annotations.true_cardinality,
                    m.annotations.true_cardinality,
                    "counting label diverged from oracle on {}",
                    s.query.to_sql()
                );
            }
        }
    }

    #[test]
    fn workload_strings_extracts_operands() {
        let db = db();
        let cfg = WorkloadConfig {
            num_queries: 40,
            use_string_predicates: true,
            max_predicates_per_table: 3,
            ..Default::default()
        };
        let samples = generate_workload(&db, cfg);
        let strings = workload_strings(&samples);
        assert!(!strings.is_empty());
        let mut dedup = strings.clone();
        dedup.dedup();
        assert_eq!(strings.len(), dedup.len());
    }
}
