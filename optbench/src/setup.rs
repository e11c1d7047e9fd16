//! Everything a workload does before its first timed call: generate the
//! database, train and publish the model, generate the seeded queries,
//! score the held-out test set once and run one untimed warm pass.
//!
//! The databases and training sets use fixed seeds, so every `--seed`
//! serves the same model; the seed drives only the queries served.

use crate::Workload;
use estimator_core::{CostEstimator, ModelConfig, PredicateModelKind, RepresentationCellKind, TaskMode, TrainConfig};
use featurize::{EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, Database, GeneratorConfig};
use metrics::{q_error, ErrorSummary};
use query::PlanNode;
use serving::{FeedbackConfig, ModelCatalog, RefreshConfig, RefreshController, TenantBackend};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use strembed::HashBitmapEncoder;
use workloads::{
    generate_enumeration_workload, DriftConfig, DriftGenerator, EnumerationConfig, QuerySample, SuiteConfig,
    WorkloadKind, WorkloadSuite,
};

/// The tenant every workload serves.
pub const TENANT: &str = "optimizer";

/// Work sizes of one run.  [`Sizes::FULL`] is the benchmark; the smoke
/// test runs [`Sizes::SMOKE`] in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub titles: usize,
    pub train_queries: usize,
    pub test_queries: usize,
    pub epochs: usize,
    pub dp_hot_queries: usize,
    pub dp_churn_queries: usize,
    pub plan_at_a_time_queries: usize,
    pub drift_titles: usize,
    pub drift_train_queries: usize,
    pub drift_test_queries: usize,
    pub drift_phases: usize,
    pub drift_queries_per_phase: usize,
    pub drift_epochs: usize,
    /// Client calls served per drift phase before traffic moves on.
    pub drift_calls_per_phase: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        titles: 2000,
        train_queries: 120,
        test_queries: 30,
        epochs: 10,
        dp_hot_queries: 256,
        dp_churn_queries: 8000,
        plan_at_a_time_queries: 512,
        drift_titles: 800,
        drift_train_queries: 80,
        drift_test_queries: 40,
        drift_phases: 24,
        drift_queries_per_phase: 64,
        drift_epochs: 150,
        drift_calls_per_phase: 4096,
    };

    pub const SMOKE: Sizes = Sizes {
        titles: 300,
        train_queries: 40,
        test_queries: 20,
        epochs: 1,
        dp_hot_queries: 6,
        dp_churn_queries: 40,
        plan_at_a_time_queries: 8,
        drift_titles: 300,
        drift_train_queries: 24,
        drift_test_queries: 12,
        drift_phases: 3,
        drift_queries_per_phase: 16,
        drift_epochs: 2,
        drift_calls_per_phase: 8,
    };
}

/// Wall time of each set-up stage, in seconds, attributed to the layer
/// that did the work.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub imdb_generate: f64,
    pub workloads_generate: f64,
    pub fit: f64,
    pub publish: f64,
}

/// Cost and cardinality q-errors of the published model on its held-out,
/// executed test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub cost_p50: f64,
    pub cost_p90: f64,
    pub card_p50: f64,
    pub card_p90: f64,
}

/// What the drift workload serves: per phase, 16-plan calls with the
/// executed truth of each plan's root.
pub struct DriftTraffic {
    pub calls: Vec<Vec<(Vec<PlanNode>, Vec<f64>)>>,
    /// Client calls served per phase before traffic moves to the next.
    pub calls_per_phase: u64,
    pub controller: RefreshController,
    checkpoints: Vec<PathBuf>,
}

impl Drop for DriftTraffic {
    fn drop(&mut self) {
        for path in &self.checkpoints {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The inputs of the timed phase.
pub enum Traffic {
    /// One call per entry: a DP enumeration's candidate set.
    CandidateSets(Vec<Vec<PlanNode>>),
    /// One call per plan.
    Plans(Vec<PlanNode>),
    Drift(Box<DriftTraffic>),
}

/// A workload ready to serve.
pub struct Prepared {
    pub catalog: Arc<ModelCatalog>,
    pub traffic: Traffic,
    /// Where the next timed phase resumes in the traffic, so a second phase
    /// continues the first instead of replaying what the caches just saw.
    pub next_call: u64,
    pub quality: Quality,
    pub times: SetupTimes,
}

/// Plans per drift call.
pub const DRIFT_CALL_PLANS: usize = 16;

/// Set the workload up, warm pass included.
pub fn prepare(workload: Workload, seed: u64, sizes: &Sizes, out_dir: &Path) -> Prepared {
    match workload {
        Workload::DriftRefresh => prepare_drift(seed, sizes, out_dir),
        _ => prepare_enumeration(workload, seed, sizes),
    }
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

fn main_estimator(db: &Arc<Database>, epochs: usize) -> CostEstimator {
    let fx = FeatureExtractor::new(
        db.clone(),
        EncodingConfig::from_database(db, 16, 128),
        Arc::new(HashBitmapEncoder::new(16)),
    );
    CostEstimator::new(
        fx,
        ModelConfig {
            cell: RepresentationCellKind::Lstm,
            predicate: PredicateModelKind::MinMaxPool,
            task: TaskMode::Multitask,
            feature_embed_dim: 16,
            hidden_dim: 32,
            estimation_hidden_dim: 16,
            ..Default::default()
        },
        TrainConfig {
            epochs,
            batch_size: 16,
            learning_rate: 0.003,
            validation_fraction: 0.1,
            early_stop_patience: None,
            seed: 7,
        },
    )
}

/// The compact model of the drift profile: it fits phase 0 well, so the
/// shift to later phases shows in its q-error.
fn drift_estimator(db: &Arc<Database>, epochs: usize) -> CostEstimator {
    let fx = FeatureExtractor::new(
        db.clone(),
        EncodingConfig::from_database(db, 8, 32),
        Arc::new(HashBitmapEncoder::new(8)),
    );
    CostEstimator::new(
        fx,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, seed: 7, ..Default::default() },
        TrainConfig { epochs, batch_size: 8, learning_rate: 0.005, seed: 7, ..Default::default() },
    )
}

fn plans_of(samples: &[QuerySample]) -> Vec<PlanNode> {
    samples.iter().map(|s| s.plan.clone()).collect()
}

/// Serve the test set once through the published model and score it.
fn quality(catalog: &ModelCatalog, test: &[QuerySample]) -> Quality {
    let session = catalog.session(TENANT).expect("tenant is published");
    let estimates = session.estimate_plans(&plans_of(test)).expect("published model");
    let mut cost = Vec::with_capacity(test.len());
    let mut card = Vec::with_capacity(test.len());
    for (e, s) in estimates.iter().zip(test) {
        cost.push(q_error(e.cost.expect("multitask model estimates cost"), s.true_cost()));
        card.push(q_error(e.cardinality.expect("multitask model estimates cardinality"), s.true_cardinality()));
    }
    let (cost, card) = (ErrorSummary::from_errors(&cost), ErrorSummary::from_errors(&card));
    Quality { cost_p50: cost.median, cost_p90: cost.p90, card_p50: card.median, card_p90: card.p90 }
}

fn prepare_enumeration(workload: Workload, seed: u64, sizes: &Sizes) -> Prepared {
    let mut times = SetupTimes::default();
    let db = timed(&mut times.imdb_generate, || {
        Arc::new(generate_imdb(GeneratorConfig { n_titles: sizes.titles, sample_size: 128, seed: 42 }))
    });
    let suite = timed(&mut times.workloads_generate, || {
        let config = SuiteConfig { train_queries: sizes.train_queries, test_queries: sizes.test_queries, seed: 1000 };
        WorkloadSuite::build(&db, WorkloadKind::JobLight, config)
    });
    let mut estimator = main_estimator(&db, sizes.epochs);
    timed(&mut times.fit, || estimator.fit(&plans_of(&suite.train)));
    let catalog = Arc::new(ModelCatalog::new());
    timed(&mut times.publish, || catalog.publish(TENANT, TenantBackend::tree(estimator)));
    // `dp_hot` serves 4-join queries only: with 3 and 4 joins mixed, half
    // the candidate sets hold at most 12 plans and half at least 16, so the
    // median call sat on that boundary and jumped across it from seed to
    // seed.
    let (num_queries, min_joins) = match workload {
        Workload::DpHot => (sizes.dp_hot_queries, 4),
        Workload::DpChurn => (sizes.dp_churn_queries, 3),
        _ => (sizes.plan_at_a_time_queries, 3),
    };
    let candidate_sets = timed(&mut times.workloads_generate, || candidate_sets(&db, seed, num_queries, min_joins));
    let traffic = match workload {
        Workload::PlanAtATime => Traffic::Plans(candidate_sets.into_iter().flatten().collect()),
        _ => Traffic::CandidateSets(candidate_sets),
    };
    let quality = quality(&catalog, &suite.test);
    // One untimed warm pass over every candidate set or plan brings the
    // caches to their steady state.
    let session = catalog.session(TENANT).expect("tenant is published");
    match &traffic {
        Traffic::CandidateSets(sets) => {
            for plans in sets {
                session.estimate_plans(plans).expect("published model");
            }
        }
        Traffic::Plans(plans) => {
            for plan in plans {
                let encoded = session.encode(plan).expect("tree backend");
                session.estimate_encoded(std::slice::from_ref(&encoded)).expect("published model");
            }
        }
        Traffic::Drift(_) => unreachable!("enumeration workloads serve no drift traffic"),
    }
    Prepared { catalog, traffic, next_call: 0, quality, times }
}

/// The seeded DP enumeration: queries of `min_joins` to 4 joins, at most
/// 120 candidate join orders each.
pub fn candidate_sets(db: &Database, seed: u64, num_queries: usize, min_joins: usize) -> Vec<Vec<PlanNode>> {
    let config = EnumerationConfig { num_queries, min_joins, max_joins: 4, max_candidates_per_query: 120, seed };
    generate_enumeration_workload(db, config).into_iter().map(|s| s.candidates).collect()
}

fn drift_phase(db: &Database, queries: usize, phases: usize, seed: u64) -> DriftGenerator<'_> {
    DriftGenerator::new(db, DriftConfig { phases, queries_per_phase: queries, skew: 1.5, seed, ..Default::default() })
}

fn prepare_drift(seed: u64, sizes: &Sizes, out_dir: &Path) -> Prepared {
    let mut times = SetupTimes::default();
    let db = timed(&mut times.imdb_generate, || {
        Arc::new(generate_imdb(GeneratorConfig { n_titles: sizes.drift_titles, sample_size: 64, seed: 7 }))
    });
    let (train, test, served) = timed(&mut times.workloads_generate, || {
        let train = drift_phase(&db, sizes.drift_train_queries, 1, 17).phase(0).samples;
        let test = drift_phase(&db, sizes.drift_test_queries, 1, 1017).phase(0).samples;
        let served = drift_phase(&db, sizes.drift_queries_per_phase, sizes.drift_phases, seed).phases();
        (train, test, served)
    });
    let calls = served
        .iter()
        .map(|phase| {
            phase
                .samples
                .chunks(DRIFT_CALL_PLANS)
                .map(|chunk| (plans_of(chunk), chunk.iter().map(QuerySample::true_cardinality).collect()))
                .collect()
        })
        .collect();

    let mut trained = drift_estimator(&db, sizes.drift_epochs);
    timed(&mut times.fit, || trained.fit(&plans_of(&train)));
    let pid = std::process::id();
    let base = out_dir.join(format!("drift-base-{pid}.ckpt"));
    let refreshed = out_dir.join(format!("drift-refresh-{pid}.ckpt"));
    trained.save_checkpoint(&base).expect("save the phase-0 checkpoint");
    let catalog = Arc::new(ModelCatalog::new());
    let feedback = timed(&mut times.publish, || {
        let factory_db = db.clone();
        let epochs = sizes.drift_epochs;
        catalog.register_factory(TENANT, Box::new(move || TenantBackend::tree(drift_estimator(&factory_db, epochs))));
        catalog.install_checkpoint(TENANT, &base).expect("install the phase-0 checkpoint");
        catalog.enable_feedback(TENANT, FeedbackConfig::default())
    });
    let mut replica = drift_estimator(&db, sizes.drift_epochs);
    replica.resume_from_checkpoint(&base).expect("resume the training replica");
    let mut controller = RefreshController::new(
        Arc::clone(&catalog),
        TENANT,
        feedback,
        db.clone(),
        replica,
        RefreshConfig {
            sample_budget: 64,
            window: 32,
            drift_factor: 1.3,
            min_pairs: 32,
            fine_tune_epochs: 10,
            max_pending: 256,
            checkpoint_path: Some(refreshed.clone()),
            ..Default::default()
        },
    );
    let quality = quality(&catalog, &test);
    // The warm pass serves the training traffic, which the model fits, and
    // the refresh tick after it freezes that fit as the healthy baseline
    // the served phases drift away from.
    let session = catalog.session(TENANT).expect("tenant is published");
    for chunk in train.chunks(DRIFT_CALL_PLANS) {
        let encoded = session.encode_batch(&plans_of(chunk)).expect("tree backend");
        session.estimate_encoded(&encoded).expect("published model");
    }
    controller.tick().expect("baseline tick");
    let traffic = DriftTraffic {
        calls,
        calls_per_phase: sizes.drift_calls_per_phase,
        controller,
        checkpoints: vec![base, refreshed],
    };
    Prepared { catalog, traffic: Traffic::Drift(Box::new(traffic)), next_call: 0, quality, times }
}
