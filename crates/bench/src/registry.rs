//! Named estimator backends and the generic train-once/checkpoint/eval loop.
//!
//! Every table/figure bench used to carry its own copy of the per-model
//! setup (build extractor, pick model variant, fit, encode the test set,
//! compute q-errors) — once per backend family, with three incompatible
//! shapes.  [`EstimatorRegistry`] replaces that with a name → builder map
//! over `Box<dyn Estimator>`, and [`run_backend`] is the one loop
//! every bench drives:
//!
//! 1. build the named backend for a pipeline + workload suite,
//! 2. fit it once on the suite's training plans,
//! 3. if the backend checkpoints: save, reload into a **freshly built**
//!    instance (a tree backend's fresh extractor shares the pipeline's
//!    string encoder) and assert the reload serves identical estimates
//!    (the warm-start guarantee, exercised on every bench run),
//! 4. evaluate the test plans through the trait and return q-errors per
//!    target the backend actually models.
//!
//! Backend names follow the paper's row labels (`PG`, `MSCNCard`,
//! `TLSTMCard`, `TPoolEmbRM`, ...); tables reporting a single target of a
//! multitask backend map their row label onto the canonical backend name.

use crate::Pipeline;
use estimator_core::{EpochStats, Estimator, PlanEstimate, PredicateModelKind, RepresentationCellKind, TaskMode};
use metrics::q_error;
use mscn::{MscnConfig, MscnEstimator};
use pgest::TraditionalEstimator;
use query::PlanNode;
use std::collections::BTreeMap;
use strembed::StringEncoding;
use workloads::WorkloadSuite;

/// Builds one backend instance for a pipeline + suite.
pub type BackendBuilder = Box<dyn Fn(&Pipeline, &WorkloadSuite) -> Box<dyn Estimator> + Send + Sync>;

/// Name-keyed backend builders.
pub struct EstimatorRegistry {
    builders: BTreeMap<&'static str, BackendBuilder>,
}

impl EstimatorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EstimatorRegistry { builders: BTreeMap::new() }
    }

    /// Register (or replace) a backend builder under a name.
    pub fn register(&mut self, name: &'static str, builder: BackendBuilder) {
        self.builders.insert(name, builder);
    }

    /// All registered backend names.
    pub fn names(&self) -> Vec<&'static str> {
        self.builders.keys().copied().collect()
    }

    /// Instantiate a backend by name (unfitted).
    ///
    /// # Panics
    /// Panics on an unknown name, listing the registered ones.
    pub fn build(&self, name: &str, pipeline: &Pipeline, suite: &WorkloadSuite) -> Box<dyn Estimator> {
        let builder = self
            .builders
            .get(name)
            .unwrap_or_else(|| panic!("unknown estimator backend {name:?}; registered: {:?}", self.names()));
        builder(pipeline, suite)
    }

    /// The standard paper backends: the traditional estimator, MSCN for
    /// each target, and the tree-model variants of Tables 7/8/10/11 and
    /// Figures 7–10.
    pub fn standard() -> Self {
        let mut reg = EstimatorRegistry::new();
        reg.register("PG", Box::new(|p, _| Box::new(TraditionalEstimator::analyze(&p.db))));
        for (name, predict_cost) in [("MSCNCard", false), ("MSCNCost", true)] {
            reg.register(
                name,
                Box::new(move |p, _| {
                    let config = MscnConfig {
                        epochs: p.scale.epochs,
                        hidden_dim: 32,
                        predict_cost,
                        learning_rate: 0.003,
                        ..Default::default()
                    };
                    Box::new(MscnEstimator::new(p.db.clone(), p.enc_config.clone(), config))
                }),
            );
        }

        use PredicateModelKind::{MinMaxPool, TreeLstm};
        use RepresentationCellKind::{Lstm, Nn};
        use TaskMode::{CardinalityOnly, CostOnly, Multitask};
        type Variant =
            (&'static str, RepresentationCellKind, PredicateModelKind, TaskMode, Option<StringEncoding>, bool);
        const TREE_VARIANTS: &[Variant] = &[
            // Numeric-workload variants (hash-bitmap string encoder).
            ("TNNCard", Nn, TreeLstm, CardinalityOnly, None, true),
            ("TLSTMCard", Lstm, TreeLstm, CardinalityOnly, None, true),
            ("TLSTMNSCard", Lstm, TreeLstm, CardinalityOnly, None, false),
            ("TLSTMCost", Lstm, TreeLstm, CostOnly, None, true),
            ("TNNM", Nn, TreeLstm, Multitask, None, true),
            ("TLSTMM", Lstm, TreeLstm, Multitask, None, true),
            ("TPoolM", Lstm, MinMaxPool, Multitask, None, true),
            // String-workload variants (workload-built string encoders).
            ("TLSTMHashM", Lstm, TreeLstm, Multitask, Some(StringEncoding::Hash), true),
            ("TLSTMEmbNRM", Lstm, TreeLstm, Multitask, Some(StringEncoding::EmbedNoRule), true),
            ("TLSTMEmbRM", Lstm, TreeLstm, Multitask, Some(StringEncoding::EmbedRule), true),
            ("TPoolEmbRM", Lstm, MinMaxPool, Multitask, Some(StringEncoding::EmbedRule), true),
        ];
        for &(name, cell, predicate, task, encoding, use_samples) in TREE_VARIANTS {
            reg.register(
                name,
                Box::new(move |p: &Pipeline, s: &WorkloadSuite| {
                    Box::new(p.tree_estimator(&s.train, cell, predicate, task, encoding, use_samples))
                        as Box<dyn Estimator>
                }),
            );
        }
        reg
    }
}

impl Default for EstimatorRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

/// Everything one backend produced on one suite.
pub struct BackendRun {
    pub backend: String,
    /// Per-epoch training statistics (empty for non-iterative backends).
    pub epochs: Vec<EpochStats>,
    /// Trait estimates for `suite.test`, in order.
    pub estimates: Vec<PlanEstimate>,
    /// q-errors per target, over the test plans the backend models
    /// (empty when the capability is absent).
    pub card_qerrors: Vec<f64>,
    pub cost_qerrors: Vec<f64>,
}

/// The shared train-once/checkpoint/eval loop (see the module docs).
pub fn run_backend(registry: &EstimatorRegistry, name: &str, pipeline: &Pipeline, suite: &WorkloadSuite) -> BackendRun {
    let mut est = registry.build(name, pipeline, suite);
    let train_plans: Vec<PlanNode> = suite.train.iter().map(|s| s.plan.clone()).collect();
    let epochs = est.fit_plans(&train_plans);
    assert!(est.is_fitted(), "{name}: backend did not become fitted");

    let test_plans: Vec<PlanNode> = suite.test.iter().map(|s| s.plan.clone()).collect();
    let mut estimates = est.estimate_many(&test_plans);

    if est.capabilities().checkpointable {
        // Round-trip through a checkpoint on every bench run: the reloaded
        // model must reproduce the fitted model's estimates exactly, and the
        // evaluation below serves from the reload (the warm-start posture).
        let path = std::env::temp_dir().join(format!("e2e-registry-{}-{name}.ckpt", std::process::id()));
        est.save_checkpoint_to(&path).unwrap_or_else(|e| panic!("{name}: checkpoint save failed: {e}"));
        let mut warm = registry.build(name, pipeline, suite);
        warm.load_checkpoint_from(&path).unwrap_or_else(|e| panic!("{name}: checkpoint load failed: {e}"));
        let _ = std::fs::remove_file(&path);
        let warm_estimates = warm.estimate_many(&test_plans);
        assert_eq!(warm_estimates, estimates, "{name}: reloaded checkpoint diverged from the fitted model");
        estimates = warm_estimates;
    }

    let mut card_qerrors = Vec::new();
    let mut cost_qerrors = Vec::new();
    for (sample, estimate) in suite.test.iter().zip(estimates.iter()) {
        if let Some(card) = estimate.cardinality {
            card_qerrors.push(q_error(card, sample.true_cardinality().max(1.0)));
        }
        if let Some(cost) = estimate.cost {
            cost_qerrors.push(q_error(cost, sample.true_cost().max(1.0)));
        }
    }
    BackendRun { backend: name.to_string(), epochs, estimates, card_qerrors, cost_qerrors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_all_three_families() {
        let reg = EstimatorRegistry::standard();
        let names = reg.names();
        for expected in ["PG", "MSCNCard", "MSCNCost", "TNNCard", "TLSTMCard", "TLSTMM", "TPoolEmbRM", "TLSTMHashM"] {
            assert!(names.contains(&expected), "missing standard backend {expected}; have {names:?}");
        }
    }
}
