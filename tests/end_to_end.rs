//! Cross-crate integration tests: the full pipeline from synthetic data
//! generation, through planning/execution and feature extraction, to training
//! and estimation — plus comparisons against the traditional baseline.

use e2e_cost_estimator::prelude::*;
use std::sync::Arc;

fn small_db() -> Arc<Database> {
    Arc::new(generate_imdb(GeneratorConfig { n_titles: 1_000, sample_size: 64, seed: 42 }))
}

#[test]
fn full_pipeline_trains_and_estimates() {
    let db = small_db();
    let samples =
        generate_workload(&db, WorkloadConfig { num_queries: 60, max_joins: 2, seed: 5, ..Default::default() });
    assert_eq!(samples.len(), 60);

    let enc = EncodingConfig::from_database(&db, 8, 64);
    let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(8)));
    let mut estimator = CostEstimator::new(
        extractor,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, ..Default::default() },
        TrainConfig { epochs: 3, batch_size: 8, ..Default::default() },
    );
    let plans: Vec<PlanNode> = samples.iter().map(|s| s.plan.clone()).collect();
    let stats = estimator.fit(&plans);
    assert_eq!(stats.len(), 3);
    for s in samples.iter().take(10) {
        let (cost, card) = estimator.estimate(&s.plan);
        assert!(cost.is_finite() && cost >= 1.0);
        assert!(card.is_finite() && card >= 1.0);
    }
}

#[test]
fn learned_estimator_beats_traditional_on_training_distribution() {
    // The headline claim of the paper, in miniature: after training, the
    // learned model's mean cardinality q-error on queries drawn from the same
    // distribution is smaller than the traditional estimator's.
    let db = small_db();
    let train =
        generate_workload(&db, WorkloadConfig { num_queries: 120, max_joins: 2, seed: 5, ..Default::default() });
    let test =
        generate_workload(&db, WorkloadConfig { num_queries: 30, max_joins: 2, seed: 777, ..Default::default() });

    let enc = EncodingConfig::from_database(&db, 8, 64);
    let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(8)));
    let mut estimator = CostEstimator::new(
        extractor,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 24, estimation_hidden_dim: 12, ..Default::default() },
        TrainConfig { epochs: 6, batch_size: 16, learning_rate: 0.003, ..Default::default() },
    );
    let plans: Vec<PlanNode> = train.iter().map(|s| s.plan.clone()).collect();
    estimator.fit(&plans);

    let traditional = TraditionalEstimator::analyze(&db);
    let mut learned_errors = Vec::new();
    let mut pg_errors = Vec::new();
    for s in &test {
        let truth = s.true_cardinality().max(1.0);
        let (_, learned_card) = estimator.estimate(&s.plan);
        learned_errors.push(q_error(learned_card, truth));
        let mut plan = s.plan.clone();
        let (pg_card, _) = traditional.estimate_plan(&mut plan);
        pg_errors.push(q_error(pg_card, truth));
    }
    let learned = ErrorSummary::from_errors(&learned_errors);
    let pg = ErrorSummary::from_errors(&pg_errors);
    assert!(
        learned.mean < pg.mean * 1.5,
        "learned mean q-error {:.2} should not be far worse than traditional {:.2}",
        learned.mean,
        pg.mean
    );
}

#[test]
fn traditional_estimator_annotations_and_executor_agree_on_structure() {
    let db = small_db();
    let samples =
        generate_workload(&db, WorkloadConfig { num_queries: 15, max_joins: 3, seed: 9, ..Default::default() });
    let traditional = TraditionalEstimator::analyze(&db);
    for s in &samples {
        let mut plan = s.plan.clone();
        traditional.estimate_plan(&mut plan);
        plan.visit_preorder(&mut |n, _| {
            assert!(n.annotations.true_cardinality.is_some(), "executor annotation missing");
            assert!(n.annotations.estimated_cardinality.is_some(), "estimator annotation missing");
        });
    }
}

#[test]
fn string_embedding_pipeline_integrates_with_the_estimator() {
    let db = small_db();
    let train = generate_workload(
        &db,
        WorkloadConfig {
            num_queries: 50,
            max_joins: 1,
            use_string_predicates: true,
            max_predicates_per_table: 3,
            seed: 21,
            ..Default::default()
        },
    );
    let strings = workload_strings(&train);
    assert!(!strings.is_empty());
    let encoder = build_string_encoder(
        &db,
        &strings,
        StringEncoding::EmbedRule,
        EmbedderConfig { dim: 8, max_rows_per_table: 100, epochs: 1, ..Default::default() },
    );
    let enc = EncodingConfig::from_database(&db, 8, 64);
    let extractor = FeatureExtractor::new(db.clone(), enc, encoder);
    let mut estimator = CostEstimator::new(
        extractor,
        ModelConfig {
            predicate: PredicateModelKind::MinMaxPool,
            feature_embed_dim: 8,
            hidden_dim: 16,
            estimation_hidden_dim: 8,
            ..Default::default()
        },
        TrainConfig { epochs: 2, batch_size: 8, ..Default::default() },
    );
    let plans: Vec<PlanNode> = train.iter().map(|s| s.plan.clone()).collect();
    let stats = estimator.fit(&plans);
    assert!(stats.iter().all(|s| s.train_loss.is_finite()));
}

#[test]
fn batched_and_single_estimation_agree_across_the_public_api() {
    let db = small_db();
    let train =
        generate_workload(&db, WorkloadConfig { num_queries: 40, max_joins: 2, seed: 31, ..Default::default() });
    let enc = EncodingConfig::from_database(&db, 8, 64);
    let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(8)));
    let mut estimator = CostEstimator::new(
        extractor,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, ..Default::default() },
        TrainConfig { epochs: 2, batch_size: 8, ..Default::default() },
    );
    let plans: Vec<PlanNode> = train.iter().map(|s| s.plan.clone()).collect();
    estimator.fit(&plans);
    let encoded: Vec<_> = plans.iter().take(8).map(|p| estimator.encode(p)).collect();
    let batched = estimator.estimate_encoded_batch(&encoded);
    for (e, &(bc, bk)) in encoded.iter().zip(batched.iter()) {
        let (c, k) = estimator.estimate_encoded(e);
        assert_eq!((c.to_bits(), k.to_bits()), (bc.to_bits(), bk.to_bits()), "per-node and batched estimates diverge");
    }
}
