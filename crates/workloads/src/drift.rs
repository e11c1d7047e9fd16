//! Drifting workloads: zipf hot-key migration across phases.
//!
//! The online-learning bench needs traffic whose *distribution moves*: a
//! model trained on phase 0 must get measurably worse by phase k, and a
//! fine-tuned model must be able to recover.  This generator produces that
//! shape from two rotating zipf choices per query:
//!
//! * the **hot fact table** — each query joins `title` with one fact table
//!   drawn zipf-skewed over a `table_hotset`-sized window of
//!   [`FACT_TABLES`]; the window rotates by one position per phase, so the
//!   table that received ~74% of phase-0 traffic (hot set 2 at skew 1.5)
//!   leaves the window entirely after two rotations and a model that only
//!   ever saw `title ⋈ movie_companies` suddenly serves
//!   `title ⋈ movie_info_idx` — traffic that is out-of-distribution, not
//!   just re-weighted;
//! * the **predicate pivot** — the `title.production_year` constant is
//!   drawn zipf-skewed over a `year_hotset`-sized window of the years
//!   present in the database, shifted by `year_stride` positions per phase,
//!   so selectivities drift even within a surviving table mix.
//!
//! Both rotations reuse [`imdb::ZipfSampler`] — the exact truncated-zeta
//! inverse-CDF sampler PR 2 fixed — so phase marginals are analytically
//! known and the distribution tests below can assert actual hot-key
//! migration instead of eyeballing histograms.

use crate::generator::{execute_workload, QuerySample};
use imdb::{Database, ZipfSampler};
use query::{Aggregate, CompareOp, JoinPredicate, LogicalQuery, Operand, Predicate, Projection};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Fact tables eligible to be a phase's hot join partner; every entry joins
/// `title` on `movie_id = title.id`.
pub const FACT_TABLES: &[&str] = &["movie_companies", "movie_info", "movie_info_idx", "cast_info", "movie_keyword"];

/// Configuration of the phase-migration generator.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Number of workload phases (hot-set rotations).
    pub phases: usize,
    /// Queries generated per phase.
    pub queries_per_phase: usize,
    /// Zipf exponent of both hot-set draws.  Higher = more skew = sharper
    /// drift; 0 degenerates to uniform over the hot set.
    pub skew: f64,
    /// Size of a phase's fact-table hot set.  The zipf draw is truncated to
    /// this many ranks, so tables outside the window get **zero** traffic in
    /// that phase — after enough rotations the hot set is disjoint from
    /// phase 0's and the drifted traffic is genuinely out-of-distribution,
    /// not just re-weighted.
    pub table_hotset: usize,
    /// Size of a phase's year hot set (same truncation for the pivot draw).
    pub year_hotset: usize,
    /// How many positions the year hot-set shifts per phase.
    pub year_stride: usize,
    /// RNG seed; phase `p` uses `seed + p` so phases are independently
    /// reproducible.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            phases: 3,
            queries_per_phase: 64,
            skew: 1.5,
            table_hotset: 2,
            year_hotset: 8,
            year_stride: 11,
            seed: 17,
        }
    }
}

/// One phase of a drifting workload: executed, annotated samples.
#[derive(Debug, Clone)]
pub struct DriftPhase {
    /// Phase index in `0..config.phases`.
    pub phase: usize,
    /// The phase's executed samples (training triples).
    pub samples: Vec<QuerySample>,
}

/// The generator: owns the database handle, the zipf marginals and the
/// rotation schedule.
pub struct DriftGenerator<'a> {
    db: &'a Database,
    config: DriftConfig,
    table_zipf: ZipfSampler,
    year_zipf: ZipfSampler,
    years: Vec<f64>,
}

impl<'a> DriftGenerator<'a> {
    /// Build a generator over `db`.
    ///
    /// # Panics
    /// Panics if the database has no `title.production_year` values to
    /// pivot on (an empty database).
    pub fn new(db: &'a Database, config: DriftConfig) -> Self {
        let title = db.table("title").expect("database has no title table");
        let mut years: Vec<f64> = (0..title.n_rows())
            .filter_map(|row| title.value("production_year", row))
            .filter_map(|v| v.as_int())
            .map(|y| y as f64)
            .collect();
        years.sort_by(|a, b| a.partial_cmp(b).expect("years are finite"));
        years.dedup();
        assert!(!years.is_empty(), "no production_year values to pivot on");
        let table_hotset = config.table_hotset.clamp(1, FACT_TABLES.len());
        let year_hotset = config.year_hotset.clamp(1, years.len());
        DriftGenerator {
            db,
            config,
            table_zipf: ZipfSampler::new(table_hotset, config.skew),
            year_zipf: ZipfSampler::new(year_hotset, config.skew),
            years,
        }
    }

    /// The fact table at zipf rank `rank` (`< table_hotset`) in phase
    /// `phase` — rank 0 is the phase's hot table.  Pure rotation: each phase
    /// shifts the hot window by one position.
    pub fn table_for_rank(&self, phase: usize, rank: usize) -> &'static str {
        FACT_TABLES[(rank + phase) % FACT_TABLES.len()]
    }

    /// The year pivot at zipf rank `rank` in phase `phase`.
    pub fn year_for_rank(&self, phase: usize, rank: usize) -> f64 {
        self.years[(rank + phase * self.config.year_stride) % self.years.len()]
    }

    /// Generate (without executing) the logical queries of one phase.
    pub fn phase_queries(&self, phase: usize) -> Vec<LogicalQuery> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed.wrapping_add(phase as u64));
        (0..self.config.queries_per_phase)
            .map(|_| {
                let fact = self.table_for_rank(phase, self.table_zipf.sample(&mut rng));
                let year = self.year_for_rank(phase, self.year_zipf.sample(&mut rng));
                let op = if rng.gen_bool(0.5) { CompareOp::Gt } else { CompareOp::Lt };
                let filter = Predicate::atom("title", "production_year", op, Operand::Num(year));
                // `Aggregate::None` keeps the join as the plan root, so
                // root-level q-error measures the join cardinality the drift
                // actually moves (a COUNT root always has cardinality 1).
                LogicalQuery {
                    projections: vec![Projection {
                        table: "title".into(),
                        column: "id".into(),
                        aggregate: Aggregate::None,
                    }],
                    tables: vec!["title".into(), fact.into()],
                    joins: vec![JoinPredicate::new(fact, "movie_id", "title", "id")],
                    filters: [("title".into(), filter)].into_iter().collect(),
                }
            })
            .collect()
    }

    /// Generate and execute one phase.
    pub fn phase(&self, phase: usize) -> DriftPhase {
        DriftPhase { phase, samples: execute_workload(self.db, self.phase_queries(phase)) }
    }

    /// Generate and execute every phase.
    pub fn phases(&self) -> Vec<DriftPhase> {
        (0..self.config.phases).map(|p| self.phase(p)).collect()
    }
}

/// Generate a full drifting workload in one call.
pub fn generate_drift_workload(db: &Database, config: DriftConfig) -> Vec<DriftPhase> {
    DriftGenerator::new(db, config).phases()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{generate_imdb, GeneratorConfig};
    use query::Name;
    use std::collections::HashMap;

    fn db() -> Database {
        generate_imdb(GeneratorConfig::tiny())
    }

    fn table_histogram(queries: &[LogicalQuery]) -> HashMap<Name, usize> {
        let mut hist = HashMap::new();
        for q in queries {
            let fact = q.tables.iter().find(|t| **t != "title").expect("join partner");
            *hist.entry(*fact).or_insert(0) += 1;
        }
        hist
    }

    fn hottest(hist: &HashMap<Name, usize>) -> (&str, usize) {
        hist.iter().map(|(t, &n)| (t.as_str(), n)).max_by_key(|&(t, n)| (n, t.to_owned())).expect("non-empty")
    }

    #[test]
    fn consecutive_phases_shift_the_hot_table() {
        let db = db();
        let config = DriftConfig { phases: 4, queries_per_phase: 200, ..Default::default() };
        let generator = DriftGenerator::new(&db, config);
        let mut previous: Option<(String, usize)> = None;
        for phase in 0..config.phases {
            let hist = table_histogram(&generator.phase_queries(phase));
            let (hot, count) = hottest(&hist);
            // At skew 1.5 rank 0 carries ~70% of the zipf mass over 5
            // tables; even with sampling noise the hot table must dominate.
            assert!(
                count * 2 > config.queries_per_phase,
                "phase {phase}: hot table {hot} only got {count}/{} queries",
                config.queries_per_phase
            );
            // And it must be the rotation's designated rank-0 table.
            assert_eq!(hot, generator.table_for_rank(phase, 0));
            if let Some((prev_hot, _)) = &previous {
                assert_ne!(hot, prev_hot.as_str(), "phase {phase} kept phase {}'s hot table", phase - 1);
            }
            previous = Some((hot.to_string(), count));
        }
    }

    #[test]
    fn consecutive_phases_shift_the_hot_years() {
        let db = db();
        let config = DriftConfig { phases: 3, queries_per_phase: 300, ..Default::default() };
        let generator = DriftGenerator::new(&db, config);
        let hot_years = |phase: usize| -> Vec<u64> {
            let mut hist: HashMap<u64, usize> = HashMap::new();
            for q in generator.phase_queries(phase) {
                let atom = &q.filters["title"].atoms()[0];
                let Operand::Num(year) = atom.operand else { panic!("numeric pivot") };
                *hist.entry(year.to_bits()).or_insert(0) += 1;
            }
            let mut by_count: Vec<(u64, usize)> = hist.into_iter().collect();
            by_count.sort_by_key(|&(y, n)| (std::cmp::Reverse(n), y));
            by_count.into_iter().take(3).map(|(y, _)| y).collect()
        };
        for phase in 1..config.phases {
            let previous = hot_years(phase - 1);
            let current = hot_years(phase);
            let overlap = current.iter().filter(|y| previous.contains(y)).count();
            assert!(
                overlap <= 1,
                "phase {phase} shares {overlap}/3 hot years with phase {} — year hot set did not migrate",
                phase - 1
            );
        }
    }

    #[test]
    fn phase_marginals_match_the_exact_zipf_pmf() {
        let db = db();
        let config = DriftConfig { phases: 2, queries_per_phase: 2_000, table_hotset: 3, ..Default::default() };
        let generator = DriftGenerator::new(&db, config);
        let zipf = ZipfSampler::new(config.table_hotset, config.skew);
        for phase in 0..config.phases {
            let hist = table_histogram(&generator.phase_queries(phase));
            for rank in 0..config.table_hotset {
                let table = generator.table_for_rank(phase, rank);
                let observed = *hist.get(table).unwrap_or(&0) as f64 / config.queries_per_phase as f64;
                let expected = zipf.pmf(rank);
                assert!(
                    (observed - expected).abs() < 0.05,
                    "phase {phase} rank {rank} ({table}): observed {observed:.3}, zipf pmf {expected:.3}"
                );
            }
            // The truncation is real: tables outside the hot window get no
            // traffic at all in this phase.
            for rank in config.table_hotset..FACT_TABLES.len() {
                let table = generator.table_for_rank(phase, rank);
                assert!(!hist.contains_key(table), "phase {phase}: cold table {table} received traffic");
            }
        }
    }

    #[test]
    fn executed_phases_carry_ground_truth_labels() {
        let db = db();
        let config = DriftConfig { phases: 2, queries_per_phase: 8, ..Default::default() };
        let phases = generate_drift_workload(&db, config);
        assert_eq!(phases.len(), 2);
        for p in &phases {
            assert_eq!(p.samples.len(), 8);
            for s in &p.samples {
                assert!(s.true_cost() > 0.0, "phase {} sample not executed", p.phase);
                assert!(s.plan.annotations.true_cardinality.is_some());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let db = db();
        let config = DriftConfig::default();
        let a = DriftGenerator::new(&db, config);
        let b = DriftGenerator::new(&db, config);
        for phase in 0..config.phases {
            let sql_a: Vec<String> = a.phase_queries(phase).iter().map(|q| q.to_sql()).collect();
            let sql_b: Vec<String> = b.phase_queries(phase).iter().map(|q| q.to_sql()).collect();
            assert_eq!(sql_a, sql_b);
        }
    }
}
