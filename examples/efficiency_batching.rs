//! Estimation efficiency (the setting of Table 12): compare one-by-one
//! estimation against level-wise batched inference, then serve the same
//! plans twice through the subtree-state cache (the paper's representation
//! memory pool).
//!
//! Run with: `cargo run --release --example efficiency_batching`
//! CI runs this; it asserts that the per-node, batched and served estimates
//! are bit-identical, and that the repeat pass embeds no node.

use e2e_cost_estimator::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Full-size database: ground truth goes through the counting executor,
    // which propagates per-key match counts instead of materializing join
    // tuples, so the Scale workload's 4-way star joins are cheap to label
    // even on the hottest movies.
    let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: 2_000, sample_size: 128, seed: 42 }));
    let suite = WorkloadSuite::build(
        &db,
        WorkloadKind::Scale,
        SuiteConfig { train_queries: 100, test_queries: 60, seed: 2000 },
    );

    let enc = EncodingConfig::from_database(&db, 16, 128);
    let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(16)));
    let mut estimator =
        CostEstimator::new(extractor, ModelConfig::default(), TrainConfig { epochs: 3, ..Default::default() });
    let plans: Vec<PlanNode> = suite.train.iter().map(|s| s.plan.clone()).collect();
    estimator.fit(&plans);

    let test_plans: Vec<PlanNode> = suite.test.iter().map(|s| s.plan.clone()).collect();
    let encoded: Vec<_> = test_plans.iter().map(|p| estimator.encode(p)).collect();
    let n = encoded.len();

    let start = Instant::now();
    let one_by_one: Vec<(f64, f64)> = encoded.iter().map(|p| estimator.estimate_encoded(p)).collect();
    let one_by_one_time = start.elapsed();

    let start = Instant::now();
    let batched = estimator.estimate_encoded_batch(&encoded);
    let batch_time = start.elapsed();
    assert_eq!(bits(&one_by_one), bits(&batched), "per-node and batched estimates must be bit-identical");

    // Serving: the first pass embeds each distinct subtree once; the repeat
    // pass is served from the subtree-state cache without embedding a node.
    let start = Instant::now();
    let first: Vec<(f64, f64)> = test_plans.iter().map(|p| estimator.estimate(p)).collect();
    let first_pass = start.elapsed();
    let (_, embedded_first) = estimator.subtree_cache().node_stats();
    let start = Instant::now();
    let repeat: Vec<(f64, f64)> = test_plans.iter().map(|p| estimator.estimate(p)).collect();
    let cached_pass = start.elapsed();
    let embedded_repeat = estimator.subtree_cache().node_stats().1 - embedded_first;
    assert_eq!(bits(&first), bits(&batched), "served and batched estimates must be bit-identical");
    assert_eq!(bits(&repeat), bits(&first), "the repeat pass must return the first pass's bits");
    assert_eq!(embedded_repeat, 0, "the repeat pass must embed no node");

    let ms_per_query = |d: std::time::Duration| d.as_secs_f64() * 1e3 / n as f64;
    println!("queries: {n}");
    println!("one-by-one inference : {:>9.3} ms/query", ms_per_query(one_by_one_time));
    println!("level-batched        : {:>9.3} ms/query", ms_per_query(batch_time));
    println!("served 1st pass      : {:>9.3} ms/query ({embedded_first} nodes embedded)", ms_per_query(first_pass));
    println!("served repeat        : {:>9.3} ms/query ({embedded_repeat} nodes embedded)", ms_per_query(cached_pass));
    println!("batched results for first 3 plans: {:?}", &batched[..n.min(3)]);
}

fn bits(estimates: &[(f64, f64)]) -> Vec<(u64, u64)> {
    estimates.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect()
}
