//! Warm-start demo: train the estimator once, checkpoint it, reload it into
//! a fresh estimator (as a new serving process would) and verify the reload
//! serves **bit-identical** estimates with zero retraining.
//!
//! Run with: `cargo run --release --example save_load`
//! CI runs this next to the E2E_CHECK bench jobs; the final assertion is the
//! save/load equality guarantee.

use e2e_cost_estimator::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. Database + workload (deterministic; a restarted process rebuilds
    //    the identical database, which is what makes checkpoints portable
    //    across runs).
    let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: 1_000, sample_size: 64, seed: 42 }));
    let train =
        generate_workload(&db, WorkloadConfig { num_queries: 80, max_joins: 2, seed: 11, ..Default::default() });
    let test =
        generate_workload(&db, WorkloadConfig { num_queries: 12, max_joins: 2, seed: 999, ..Default::default() });
    let plans: Vec<PlanNode> = train.iter().map(|s| s.plan.clone()).collect();
    let test_plans: Vec<PlanNode> = test.iter().map(|s| s.plan.clone()).collect();

    let make_estimator = || {
        let enc = EncodingConfig::from_database(&db, 16, 64);
        let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(16)));
        CostEstimator::new(
            extractor,
            ModelConfig { feature_embed_dim: 16, hidden_dim: 32, estimation_hidden_dim: 16, ..Default::default() },
            TrainConfig { epochs: 3, batch_size: 16, ..Default::default() },
        )
    };

    // 2. Cold start: fit from scratch.
    let mut cold = make_estimator();
    let started = Instant::now();
    let stats = cold.fit(&plans);
    let cold_secs = started.elapsed().as_secs_f64();
    println!("cold start: trained {} epochs in {cold_secs:.2} s", stats.len());

    let cold_estimates = cold.serving().estimate_plans(&test_plans);

    // 3. Checkpoint: model config, normalization, extractor vocab, params.
    let path = std::env::temp_dir().join("e2e_save_load_demo.ckpt");
    cold.save_checkpoint(&path).expect("save checkpoint");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("checkpoint: {} ({bytes} bytes)", path.display());

    // 4. Warm start: a fresh estimator loads the checkpoint instead of
    //    fitting — the startup path of a serving process.
    let mut warm = make_estimator();
    let started = Instant::now();
    warm.load_checkpoint(&path).expect("load checkpoint");
    let first = warm.serving().estimate_plans(&test_plans[..1]);
    let warm_secs = started.elapsed().as_secs_f64();
    println!(
        "warm start: load + first estimate in {:.1} ms ({:.0}x faster than the cold fit)",
        warm_secs * 1e3,
        cold_secs / warm_secs
    );
    let _ = first;

    // 5. The guarantee: bit-identical estimates, no retraining.
    let warm_estimates = warm.serving().estimate_plans(&test_plans);
    assert_eq!(
        warm_estimates.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect::<Vec<_>>(),
        cold_estimates.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect::<Vec<_>>(),
        "reloaded checkpoint must serve bit-identical estimates"
    );
    println!("verified: {} test estimates identical to the fitted model — warm start OK", warm_estimates.len());
    let _ = std::fs::remove_file(&path);
}
