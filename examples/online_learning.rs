//! Online learning loop demo: serve, drift, detect, fine-tune, republish.
//!
//! A model trained on phase 0 of a drifting-zipf workload serves traffic
//! through the multi-tenant catalog with feedback capture enabled.  When
//! the workload's hot tables and hot years migrate, the refresh controller
//! samples the feedback log, executes the sampled plans for ground truth,
//! watches its q-error window blow past the frozen baseline, fine-tunes a
//! training replica off the serving path and republishes — all while the
//! tenant keeps serving.
//!
//! Run with: `cargo run --release --example online_learning`
//! CI runs this next to the E2E_CHECK bench jobs; the assertions are the
//! closed-loop guarantees.

use e2e_cost_estimator::prelude::*;
use std::sync::Arc;

fn make_estimator(db: &Arc<Database>) -> CostEstimator {
    let enc = EncodingConfig::from_database(db, 8, 32);
    let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(8)));
    CostEstimator::new(
        extractor,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, seed: 7, ..Default::default() },
        TrainConfig { epochs: 20, batch_size: 8, learning_rate: 0.005, seed: 7, ..Default::default() },
    )
}

/// Serve one phase the way a client would — encode (which registers the
/// plan for ground-truth execution) and batch-estimate — and report the
/// mean cardinality q-error against the phase's known truth.
fn serve_phase(session: &Session, samples: &[QuerySample]) -> f64 {
    let encoded: Vec<EncodedPlan> = samples.iter().map(|s| session.encode(&s.plan).expect("tree backend")).collect();
    let estimates = session.estimate_encoded(&encoded).expect("published model");
    let total: f64 = estimates.iter().zip(samples).map(|((_, card), s)| q_error(*card, s.true_cardinality())).sum();
    total / samples.len() as f64
}

fn main() {
    // 1. A drifting workload: each phase draws from a small zipf-hot window
    //    of fact tables and production years, and the window migrates.
    let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: 800, sample_size: 64, seed: 7 }));
    let generator =
        DriftGenerator::new(&db, DriftConfig { phases: 3, queries_per_phase: 80, skew: 1.5, ..Default::default() });
    println!("generating drift phases (hot window migrates each phase)...");
    let phase0 = generator.phase(0);
    let drifted = generator.phase(2);

    // 2. Train on phase 0, publish through the catalog, enable capture.
    println!("training phase-0 model...");
    let train_plans: Vec<PlanNode> = phase0.samples.iter().map(|s| s.plan.clone()).collect();
    let mut trained = make_estimator(&db);
    trained.fit(&train_plans);
    let ckpt = std::env::temp_dir().join("e2e_online_learning_demo.ckpt");
    trained.save_checkpoint(&ckpt).expect("save phase-0 checkpoint");

    let catalog = Arc::new(ModelCatalog::new());
    let factory_db = db.clone();
    catalog.register_factory("tenant", Box::new(move || TenantBackend::tree(make_estimator(&factory_db))));
    catalog.install_checkpoint("tenant", &ckpt).expect("install phase-0 model");
    let feedback = catalog.enable_feedback("tenant", FeedbackConfig::default());

    // 3. The controller: a training replica resumed from the same
    //    checkpoint, a q-error window against a frozen healthy baseline.
    let mut replica = make_estimator(&db);
    replica.resume_from_checkpoint(&ckpt).expect("resume replica");
    let refreshed_ckpt = std::env::temp_dir().join("e2e_online_learning_refreshed.ckpt");
    let mut controller = RefreshController::new(
        Arc::clone(&catalog),
        "tenant",
        feedback,
        db.clone(),
        replica,
        RefreshConfig {
            sample_budget: 128,
            window: 12,
            drift_factor: 1.3,
            min_pairs: 12,
            fine_tune_epochs: 5,
            checkpoint_path: Some(refreshed_ckpt.clone()),
            ..Default::default()
        },
    );

    // 4. Healthy traffic: the first full window freezes the baseline.
    let session = catalog.session("tenant").expect("tenant");
    let healthy = serve_phase(&session, &phase0.samples);
    match controller.tick().expect("baseline tick") {
        RefreshOutcome::Observed { drifted, baseline, .. } => {
            assert!(!drifted, "healthy traffic must not register as drift");
            println!("healthy: mean q-error {healthy:.2}, baseline frozen at {:.2}", baseline.expect("baseline"));
        }
        other => panic!("expected Observed on healthy traffic, got {other:?}"),
    }

    // 5. The hot window migrates; the served model is now out of
    //    distribution and the controller notices via executed ground truth.
    let degraded = serve_phase(&session, &drifted.samples);
    println!("drift: hot tables/years migrated, mean q-error {healthy:.2} -> {degraded:.2}");
    assert!(degraded > healthy, "drifted traffic must degrade the frozen model");

    let mut republished = None;
    for round in 0..3 {
        match controller.tick().expect("drift tick") {
            RefreshOutcome::Refreshed { generation, sampled, pairs, window_mean, baseline, .. } => {
                println!(
                    "refresh: window mean {window_mean:.2} > baseline {baseline:.2} x factor — \
                     fine-tuned on {pairs} accumulated ground-truth pairs ({sampled} sampled this \
                     tick), republished generation {generation}"
                );
                republished = Some(generation);
                break;
            }
            outcome => {
                println!("observing: {outcome:?}");
                let _ = serve_phase(&session, &drifted.samples);
                assert!(round < 2, "controller never refreshed");
            }
        }
    }
    let generation = republished.expect("refresh must have happened");
    assert_eq!(generation, 2, "republish is the tenant's second generation");
    assert_eq!(session.generation(), Some(2), "the session sees the new generation at its next call");

    // 6. The republished model recovers on the drifted traffic.
    let recovered = serve_phase(&session, &drifted.samples);
    println!("recovered: mean q-error {degraded:.2} -> {recovered:.2} on the drifted traffic");
    assert!(recovered < degraded, "the fine-tuned model must improve on drifted traffic");

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&refreshed_ckpt);
    println!("demo OK");
}
