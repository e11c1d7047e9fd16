//! End-to-end online learning loop: capture → sample → detect → adapt.
//!
//! Drives the whole PR-7 pipeline against a drifting-zipf workload: a model
//! trained on phase 0 serves phase-0 traffic (healthy baseline), the
//! workload migrates its hot keys (later phase), the no-loop tenant
//! degrades and stays degraded, while the tenant with a
//! [`serving::RefreshController`] detects the drift, fine-tunes off the
//! serving path and republishes through the catalog — recovering accuracy
//! with zero downtime and a checkpoint-v3 round-trippable model.

use estimator_core::{CostEstimator, ModelConfig, TrainConfig};
use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, GeneratorConfig};
use metrics::q_error;
use serving::{FeedbackConfig, ModelCatalog, RefreshConfig, RefreshController, RefreshOutcome, Session, TenantBackend};
use std::path::PathBuf;
use std::sync::Arc;
use strembed::HashBitmapEncoder;
use workloads::{DriftConfig, DriftGenerator, QuerySample};

fn make_estimator(db: &Arc<imdb::Database>, seed: u64) -> CostEstimator {
    let cfg = EncodingConfig::from_database(db, 8, 32);
    let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
    CostEstimator::new(
        fx,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, seed, ..Default::default() },
        TrainConfig { epochs: 20, batch_size: 8, learning_rate: 0.005, seed, ..Default::default() },
    )
}

/// Serve one phase's plans through the session the way a client would:
/// encode each plan (which registers it for ground truth) and estimate the
/// whole batch.  Returns the mean cardinality q-error against the phase's
/// known truth.
fn serve_phase(session: &Session, samples: &[QuerySample]) -> f64 {
    let encoded: Vec<EncodedPlan> = samples.iter().map(|s| session.encode(&s.plan).expect("tree backend")).collect();
    let estimates = session.estimate_encoded(&encoded).expect("published model");
    let total: f64 = estimates.iter().zip(samples).map(|((_, card), s)| q_error(*card, s.true_cardinality())).sum();
    total / samples.len() as f64
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("online-learning-{}-{name}", std::process::id()))
}

#[test]
fn closed_loop_recovers_from_drift_while_frozen_baseline_degrades() {
    let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
    let drift_cfg = DriftConfig { phases: 3, queries_per_phase: 80, skew: 1.5, ..Default::default() };
    let generator = DriftGenerator::new(&db, drift_cfg);
    let phase0 = generator.phase(0);
    let drifted = generator.phase(2);

    // Train on phase 0 and roll out through the checkpoint-install path for
    // both tenants: "frozen" never learns, "loop" gets the controller.
    let train_plans: Vec<_> = phase0.samples.iter().map(|s| s.plan.clone()).collect();
    let mut trained = make_estimator(&db, 7);
    trained.fit(&train_plans);
    let initial_ckpt = temp_path("initial.ckpt");
    trained.save_checkpoint(&initial_ckpt).expect("save initial checkpoint");

    let catalog = Arc::new(ModelCatalog::new());
    for tenant in ["frozen", "loop"] {
        let factory_db = db.clone();
        catalog.register_factory(tenant, Box::new(move || TenantBackend::tree(make_estimator(&factory_db, 7))));
        assert_eq!(catalog.install_checkpoint(tenant, &initial_ckpt).expect("install"), 1);
    }
    let feedback = catalog.enable_feedback("loop", FeedbackConfig::default());

    // The controller's training replica resumes from the same checkpoint
    // the catalog serves, so fine-tuning starts from the served weights.
    let mut replica = make_estimator(&db, 7);
    replica.resume_from_checkpoint(&initial_ckpt).expect("resume replica");
    let refreshed_ckpt = temp_path("refreshed.ckpt");
    let refresh_cfg = RefreshConfig {
        sample_budget: 128,
        window: 12,
        drift_factor: 1.3,
        min_pairs: 12,
        fine_tune_epochs: 4,
        checkpoint_path: Some(refreshed_ckpt.clone()),
        ..Default::default()
    };
    let mut controller =
        RefreshController::new(Arc::clone(&catalog), "loop", feedback, db.clone(), replica, refresh_cfg);

    let frozen = catalog.session("frozen").expect("frozen");
    let looped = catalog.session("loop").expect("loop");

    // Phase 0: both tenants healthy; the first tick freezes the baseline.
    let frozen_healthy = serve_phase(&frozen, &phase0.samples);
    let loop_healthy = serve_phase(&looped, &phase0.samples);
    match controller.tick().expect("baseline tick") {
        RefreshOutcome::Observed { drifted, baseline, .. } => {
            assert!(!drifted, "healthy traffic must not register as drift");
            assert!(baseline.is_some(), "first full window must freeze the baseline");
        }
        other => panic!("expected Observed on healthy traffic, got {other:?}"),
    }

    // Hot keys migrate: the frozen tenant's accuracy must degrade.
    let frozen_drifted = serve_phase(&frozen, &drifted.samples);
    let loop_drifted = serve_phase(&looped, &drifted.samples);
    assert!(
        frozen_drifted > frozen_healthy * 1.3,
        "drift failed to degrade the frozen tenant: healthy {frozen_healthy:.2} vs drifted {frozen_drifted:.2}"
    );

    // The loop notices and republishes.  (One tick may only *observe* the
    // drift if the window still holds healthy samples; allow a couple.)
    let mut refreshed = None;
    for round in 0..3 {
        match controller.tick().expect("drift tick") {
            RefreshOutcome::Refreshed { generation, window_mean, baseline, .. } => {
                assert!(window_mean > baseline, "refresh must have been driven by degradation");
                refreshed = Some(generation);
                break;
            }
            outcome => {
                // Re-serve the drifted traffic so the log refills for the
                // next tick.
                let _ = serve_phase(&looped, &drifted.samples);
                assert!(round < 2, "controller never refreshed; last outcome {outcome:?}");
            }
        }
    }
    let generation = refreshed.expect("refresh must have happened");
    assert_eq!(generation, 2, "republish must be the tenant's second generation");
    assert_eq!(looped.generation(), Some(2), "session must observe the new generation at the next call");
    assert_eq!(frozen.generation(), Some(1), "the frozen tenant must be untouched");

    // Recovery: the fine-tuned model must claw back most of the drift-induced
    // degradation; the frozen tenant must not have moved.
    let loop_recovered = serve_phase(&looped, &drifted.samples);
    let frozen_still_bad = serve_phase(&frozen, &drifted.samples);
    assert!((frozen_still_bad - frozen_drifted).abs() < 1e-9, "frozen tenant's estimates changed without a publish");
    assert!(
        loop_recovered < loop_drifted,
        "closed loop failed to improve on drifted traffic: {loop_drifted:.2} -> {loop_recovered:.2}"
    );
    let recovery = (loop_drifted - loop_recovered) / (loop_drifted - loop_healthy).max(1e-9);
    assert!(
        recovery >= 0.5,
        "closed loop recovered only {:.0}% of the degradation ({loop_healthy:.2} healthy, \
         {loop_drifted:.2} drifted, {loop_recovered:.2} recovered)",
        recovery * 100.0
    );

    // Zero-downtime semantics: a model pinned before a publish keeps serving
    // its own weights (checked against the frozen twin, which shares them).
    // The fine-tuned checkpoint round-trips bit-identical to what the
    // catalog is serving.
    let published = catalog.current("loop").expect("published");
    let mut reloaded = make_estimator(&db, 7);
    reloaded.load_checkpoint(&refreshed_ckpt).expect("reload fine-tuned checkpoint");
    let probe: Vec<EncodedPlan> = drifted.samples.iter().take(16).map(|s| reloaded.encode(&s.plan)).collect();
    let served_tree = published.tree().expect("tree");
    let bits = |v: &[(f64, f64)]| v.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect::<Vec<_>>();
    assert_eq!(
        bits(&reloaded.estimate_encoded_batch(&probe)),
        bits(&served_tree.estimate_encoded_batch(&probe)),
        "estimates diverged across the republish round-trip"
    );

    let _ = std::fs::remove_file(&initial_ckpt);
    let _ = std::fs::remove_file(&refreshed_ckpt);
}

#[test]
fn refresh_controller_falls_back_to_full_refit_without_resumable_state() {
    let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
    let drift_cfg = DriftConfig { phases: 3, queries_per_phase: 80, skew: 1.5, ..Default::default() };
    let generator = DriftGenerator::new(&db, drift_cfg);
    let phase0 = generator.phase(0);
    let drifted = generator.phase(2);

    let train_plans: Vec<_> = phase0.samples.iter().map(|s| s.plan.clone()).collect();
    let mut trained = make_estimator(&db, 7);
    trained.fit(&train_plans);
    // A serving-only deployment artifact: weights, no optimizer state to
    // resume from.
    let ckpt = temp_path("fallback.ckpt");
    trained.save_checkpoint_model_only(&ckpt).expect("save");

    let catalog = Arc::new(ModelCatalog::new());
    let factory_db = db.clone();
    catalog.register_factory("t", Box::new(move || TenantBackend::tree(make_estimator(&factory_db, 7))));
    catalog.install_checkpoint("t", &ckpt).expect("install");
    let feedback = catalog.enable_feedback("t", FeedbackConfig::default());

    // Model-only load: the replica has the served weights but *no*
    // resumable training state — the exact situation whose `expect()` used
    // to abort the server before the fit_resumed Result conversion.
    let mut replica = make_estimator(&db, 7);
    replica.load_checkpoint(&ckpt).expect("model-only load");
    assert!(!replica.is_resumable());

    let refresh_ckpt = temp_path("fallback-refreshed.ckpt");
    let mut controller = RefreshController::new(
        Arc::clone(&catalog),
        "t",
        feedback,
        db.clone(),
        replica,
        RefreshConfig {
            sample_budget: 128,
            window: 8,
            drift_factor: 1.2,
            min_pairs: 8,
            fine_tune_epochs: 3,
            checkpoint_path: Some(refresh_ckpt.clone()),
            ..Default::default()
        },
    );
    let session = catalog.session("t").expect("t");
    serve_phase(&session, &phase0.samples);
    controller.tick().expect("baseline tick");
    let mut fell_back = false;
    let mut last = None;
    for _ in 0..3 {
        serve_phase(&session, &drifted.samples);
        match controller.tick().expect("tick") {
            RefreshOutcome::Refreshed { refit_fallback, generation, .. } => {
                assert!(refit_fallback, "a non-resumable replica must take the full-refit fallback");
                assert_eq!(generation, 2);
                fell_back = true;
                break;
            }
            outcome => last = Some(outcome),
        }
    }
    assert!(fell_back, "drift never triggered a refresh; last outcome {last:?}");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&refresh_ckpt);
}
