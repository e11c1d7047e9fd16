//! # e2e-cost-estimator
//!
//! A from-scratch Rust reproduction of **"An End-to-End Learning-based Cost
//! Estimator"** (Ji Sun and Guoliang Li, VLDB 2019): a tree-structured deep
//! learning model that estimates both the cost and the cardinality of
//! physical query plans, together with every substrate it needs — a synthetic
//! IMDB-schema database, a planner/executor producing ground truth, a
//! PostgreSQL-style traditional estimator, the MSCN learned baseline, the
//! string-embedding pipeline (pattern rules, skip-gram, tries), and benchmark
//! harnesses reproducing every table and figure of the paper's evaluation.
//!
//! This crate re-exports the individual workspace crates under stable names;
//! see the `examples/` directory for end-to-end usage and `DESIGN.md` /
//! `EXPERIMENTS.md` for the system inventory and the per-experiment index.
//!
//! ## Quick start
//!
//! ```no_run
//! use e2e_cost_estimator::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A synthetic IMDB-like database.
//! let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: 2_000, ..Default::default() }));
//! // 2. A training workload: queries generated from the join graph, executed
//! //    for true cost/cardinality.
//! let samples = generate_workload(&db, WorkloadConfig { num_queries: 200, ..Default::default() });
//! // 3. The learned estimator.
//! let enc = EncodingConfig::from_database(&db, 16, 128);
//! let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(16)));
//! let mut estimator = CostEstimator::new(extractor, ModelConfig::default(), TrainConfig::default());
//! let plans: Vec<_> = samples.iter().map(|s| s.plan.clone()).collect();
//! estimator.fit(&plans);
//! let (cost, cardinality) = estimator.estimate(&plans[0]);
//! println!("estimated cost {cost:.1}, cardinality {cardinality:.1}");
//! ```

pub use engine;
pub use estimator_core;
pub use featurize;
pub use imdb;
pub use metrics;
pub use mscn;
pub use nn;
pub use pgest;
pub use query;
pub use serving;
pub use strembed;
pub use workloads;

/// Commonly used types, re-exported for examples and downstream users.
pub mod prelude {
    pub use engine::{execute_plan, plan_query, CostModel, PlannerConfig};
    pub use estimator_core::{
        CheckpointError, CostEstimator, Estimator, EstimatorCapabilities, ModelConfig, PlanEstimate,
        PredicateModelKind, RepresentationCellKind, TaskMode, TrainConfig, TrainableEstimator,
    };
    pub use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor};
    pub use imdb::{generate_imdb, Database, GeneratorConfig};
    pub use metrics::{q_error, EpochStats, ErrorSummary, QErrorWindow, ReportTable};
    pub use mscn::{MscnConfig, MscnEstimator, MscnFeaturizer, MscnModel, MscnTrainer};
    pub use pgest::TraditionalEstimator;
    pub use query::{CompareOp, JoinPredicate, LogicalQuery, Operand, PhysicalOp, PlanNode, Predicate};
    pub use serving::{
        BatchAggregator, FeedbackConfig, FeedbackLog, ModelCatalog, PlanRegistry, RefreshConfig, RefreshController,
        RefreshOutcome, Session, TenantBackend, TenantFeedback,
    };
    pub use strembed::{build_string_encoder, EmbedderConfig, HashBitmapEncoder, StringEncoding};
    pub use workloads::{
        generate_drift_workload, generate_workload, workload_strings, DriftConfig, DriftGenerator, DriftPhase,
        QuerySample, SuiteConfig, WorkloadConfig, WorkloadKind, WorkloadSuite,
    };
}
