//! What a never-seen query costs on the served path: the first visit, the
//! warm pass after it, and the memo-free level batch over the same
//! candidates.
//!
//! Fits the model optbench serves (2,000 titles, JOB-light, 120 training
//! queries, 10 epochs), then enumerates 600 never-seen 3–4-join queries (at
//! most 120 candidate join orders each) and serves them through
//! `ServingEstimator::estimate_plans` in two lanes, each on a generation and
//! an extractor of its own, so both start cold:
//!
//! * `per-query` — one call per query, holding all of its candidates;
//! * `per-plan` — one call per candidate plan.
//!
//! Each lane makes a first visit, then a warm pass over the same calls.
//! Then the memo-free forward (`CostEstimator::estimate_encoded_batch`, on
//! one thread, in groups of `GROUP_SIZE`) scores the same candidates,
//! embedding every node of every one.  For each pass it prints µs per
//! candidate, µs per embedded node (`SubtreeStateCache::node_stats`) and the
//! call latency's p50 and p99.  It asserts that every first visit returns
//! the memo-free bits and that every warm pass returns them again without
//! embedding a node.
//!
//! Beside the warm pass, which costs a signature walk and a probe per
//! candidate, it times the walk alone (`PlanNode::signature_hash`, the
//! hashing the served path's state-first walk runs) in ns per plan and per
//! node: over the same candidates, and over optbench `dp_hot`'s candidate
//! sets at seed 1 (256 4-join queries).
//!
//! `cargo run -p estimator_core --release --example profile_fresh`
//! (`E2E_FORCE_SCALAR=1` runs the scalar kernels.)

use estimator_core::batch::GROUP_SIZE;
use estimator_core::{
    CostEstimator, ModelConfig, PredicateModelKind, RepresentationCellKind, ServingEstimator, TaskMode, TrainConfig,
};
use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, Database, GeneratorConfig};
use query::PlanNode;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use strembed::HashBitmapEncoder;
use workloads::{generate_enumeration_workload, EnumerationConfig, SuiteConfig, WorkloadKind, WorkloadSuite};

/// Never-seen queries served per lane.
const QUERIES: usize = 600;
/// Seed of their enumeration; the training set uses its own.
const ENUMERATION_SEED: u64 = 5;
/// Timed repetitions of each signature walk.
const WALK_REPS: usize = 15;

/// optbench's main model: the configuration its enumeration workloads serve.
fn main_estimator(db: &Arc<Database>) -> CostEstimator {
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
            epochs: 10,
            batch_size: 16,
            learning_rate: 0.003,
            validation_fraction: 0.1,
            early_stop_patience: None,
            seed: 7,
        },
    )
}

/// The fitted weights in an estimator of their own: a new extractor (cold
/// node memo) and a new generation (empty subtree-state cache).
fn cold_estimator(db: &Arc<Database>, checkpoint: &Path) -> CostEstimator {
    let mut est = main_estimator(db);
    est.load_checkpoint(checkpoint).expect("load the fitted model");
    est
}

/// One pass over a lane's calls.
struct Pass {
    secs: f64,
    /// Latency of each call, in µs.
    calls: Vec<f64>,
    embedded: u64,
    estimates: Vec<(f64, f64)>,
}

fn serve(serving: &ServingEstimator, calls: &[&[PlanNode]]) -> Pass {
    let before = serving.cache().node_stats().1;
    let mut latencies = Vec::with_capacity(calls.len());
    let mut estimates = Vec::new();
    let start = Instant::now();
    for call in calls {
        let t = Instant::now();
        let out = serving.estimate_plans(call);
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        estimates.extend(out);
    }
    let secs = start.elapsed().as_secs_f64();
    Pass { secs, calls: latencies, embedded: serving.cache().node_stats().1 - before, estimates }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn bits(estimates: &[(f64, f64)]) -> Vec<(u64, u64)> {
    estimates.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect()
}

fn report(lane: &str, pass: &str, secs: f64, candidates: usize, embedded: u64, calls: &mut [f64]) {
    calls.sort_by(f64::total_cmp);
    let per_node = if embedded == 0 { "-".to_string() } else { format!("{:.2}", secs * 1e6 / embedded as f64) };
    println!(
        "{lane:>9} {pass:>11}  {:>7.2} µs/candidate  {per_node:>6} µs/embedded node  {embedded:>7} nodes  \
         call p50 {:>8.1} µs  p99 {:>8.1} µs",
        secs * 1e6 / candidates as f64,
        percentile(calls, 0.5),
        percentile(calls, 0.99),
    );
}

/// Time the signature walk over `plans`, [`WALK_REPS`] times after one
/// untimed pass, and print the best and the median repetition.
fn walk(label: &str, plans: &[PlanNode]) {
    let nodes: usize = plans.iter().map(PlanNode::size).sum();
    let sweep = || {
        let t = Instant::now();
        for plan in plans {
            black_box(black_box(plan).signature_hash());
        }
        t.elapsed().as_secs_f64() * 1e9
    };
    sweep();
    let mut reps: Vec<f64> = (0..WALK_REPS).map(|_| sweep()).collect();
    reps.sort_by(f64::total_cmp);
    let (best, median) = (reps[0], reps[WALK_REPS / 2]);
    println!(
        "{label:>9} {:>11}  {:>7.1} ns/plan  {:>5.2} ns/node  (median {:.1} ns/plan; {} plans, {nodes} nodes, best of \
         {WALK_REPS})",
        "walk",
        best / plans.len() as f64,
        best / nodes as f64,
        median / plans.len() as f64,
        plans.len(),
    );
}

fn main() {
    println!("f32 dispatch: {}", nn::simd::f32_path_name());
    let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: 2000, sample_size: 128, seed: 42 }));
    let suite = WorkloadSuite::build(
        &db,
        WorkloadKind::JobLight,
        SuiteConfig { train_queries: 120, test_queries: 30, seed: 1000 },
    );
    let mut trained = main_estimator(&db);
    let start = Instant::now();
    trained.fit(&suite.train.iter().map(|s| s.plan.clone()).collect::<Vec<_>>());
    println!("fit: {:.2} s", start.elapsed().as_secs_f64());
    let checkpoint = std::env::temp_dir().join(format!("profile-fresh-{}.ckpt", std::process::id()));
    trained.save_checkpoint(&checkpoint).expect("save the fitted model");

    let config = EnumerationConfig {
        num_queries: QUERIES,
        min_joins: 3,
        max_joins: 4,
        max_candidates_per_query: 120,
        seed: ENUMERATION_SEED,
    };
    let queries: Vec<Vec<PlanNode>> =
        generate_enumeration_workload(&db, config).into_iter().map(|q| q.candidates).collect();
    let candidates: Vec<PlanNode> = queries.iter().flatten().cloned().collect();
    let nodes: usize = candidates.iter().map(PlanNode::size).sum();
    println!(
        "{} queries, {} candidates, {nodes} plan nodes ({:.2} per candidate)",
        queries.len(),
        candidates.len(),
        nodes as f64 / candidates.len() as f64
    );

    // The memo-free forward: every node of every candidate, on one thread.
    let oracle = cold_estimator(&db, &checkpoint);
    let encoded: Vec<EncodedPlan> = candidates.iter().map(|p| oracle.encode(p)).collect();
    let mut calls = Vec::new();
    let mut want = Vec::with_capacity(encoded.len());
    let start = Instant::now();
    for group in encoded.chunks(GROUP_SIZE) {
        let t = Instant::now();
        want.extend(oracle.estimate_encoded_batch(group));
        calls.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let memo_free_secs = start.elapsed().as_secs_f64();
    let want = bits(&want);

    println!("lane      pass         (calls of {GROUP_SIZE} plans for the memo-free forward)");
    let per_query: Vec<&[PlanNode]> = queries.iter().map(Vec::as_slice).collect();
    let per_plan: Vec<&[PlanNode]> = candidates.iter().map(std::slice::from_ref).collect();
    for (lane, lane_calls) in [("per-query", &per_query), ("per-plan", &per_plan)] {
        let est = cold_estimator(&db, &checkpoint);
        let serving = est.serving();
        for pass in ["first visit", "warm"] {
            let mut got = serve(&serving, lane_calls);
            assert_eq!(bits(&got.estimates), want, "{lane} {pass}: served bits differ from the memo-free forward");
            if pass == "warm" {
                assert_eq!(got.embedded, 0, "{lane}: the warm pass embedded a node");
            }
            report(lane, pass, got.secs, candidates.len(), got.embedded, &mut got.calls);
        }
    }
    report("memo-free", "level batch", memo_free_secs, candidates.len(), nodes as u64, &mut calls);
    walk("served", &candidates);
    let dp_hot =
        EnumerationConfig { num_queries: 256, min_joins: 4, max_joins: 4, max_candidates_per_query: 120, seed: 1 };
    let dp_hot: Vec<PlanNode> =
        generate_enumeration_workload(&db, dp_hot).into_iter().flat_map(|q| q.candidates).collect();
    walk("dp_hot", &dp_hot);
    let _ = std::fs::remove_file(&checkpoint);
}
