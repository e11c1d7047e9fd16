//! Integration test for the acceptance criterion: one process serves two
//! named checkpointed models concurrently, a live hot-swap of one tenant is
//! observed by its own sessions at a call boundary, and an **in-flight
//! session on the other model** keeps serving bit-identical estimates
//! throughout — never blocked, never corrupted.

use engine::execute_plan;
use estimator_core::{CostEstimator, Estimator, ModelConfig, PlanEstimate, TrainConfig};
use featurize::{EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, GeneratorConfig};
use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, PlanNode, Predicate};
use serving::{ModelCatalog, TenantBackend};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use strembed::HashBitmapEncoder;

fn make_estimator(db: &Arc<imdb::Database>, seed: u64) -> CostEstimator {
    let cfg = EncodingConfig::from_database(db, 8, 32);
    let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
    CostEstimator::new(
        fx,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, seed, ..Default::default() },
        TrainConfig { epochs: 2, batch_size: 8, seed, ..Default::default() },
    )
}

fn executed_plans(db: &Arc<imdb::Database>, n: usize) -> Vec<PlanNode> {
    (0..n)
        .map(|i| {
            let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(Predicate::atom(
                    "title",
                    "production_year",
                    CompareOp::Gt,
                    Operand::Num((1936 + i * 2) as f64),
                )),
            });
            let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
            let mut join = PlanNode::inner(
                PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
                vec![scan_t, scan_mc],
            );
            execute_plan(db, &mut join);
            join
        })
        .collect()
}

fn card_bits(estimates: &[PlanEstimate]) -> Vec<u64> {
    estimates.iter().map(|e| e.cardinality.expect("card").to_bits()).collect()
}

#[test]
fn live_hot_swap_does_not_disturb_in_flight_sessions_on_other_tenants() {
    let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
    let plans = executed_plans(&db, 16);

    let mut model_a = make_estimator(&db, 1);
    model_a.fit(&plans);
    let mut model_b1 = make_estimator(&db, 2);
    model_b1.fit(&plans);
    let mut model_b2 = make_estimator(&db, 4242);
    model_b2.fit(&plans);

    let want_a = card_bits(&model_a.estimate_many(&plans));
    let want_b1 = card_bits(&model_b1.estimate_many(&plans));
    let want_b2 = card_bits(&model_b2.estimate_many(&plans));
    assert_ne!(want_b1, want_b2, "b's two versions must be distinguishable");

    // b2 arrives as a checkpoint, the way a retrained model rolls out.
    let ckpt = std::env::temp_dir().join(format!("serving-hotswap-{}.ckpt", std::process::id()));
    model_b2.save_checkpoint(&ckpt).expect("save b2");

    let catalog = Arc::new(ModelCatalog::new());
    catalog.publish("model_a", TenantBackend::tree(model_a));
    catalog.publish("model_b", TenantBackend::tree(model_b1));
    let factory_db = db.clone();
    catalog.register_factory("model_b", Box::new(move || TenantBackend::tree(make_estimator(&factory_db, 4242))));

    let a_iterations = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let b_transitions = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // The in-flight session on the OTHER model: hammers tenant a the
        // whole time, asserting every batch is bit-identical to a's
        // reference — before, during and after b's swap.
        {
            let catalog = Arc::clone(&catalog);
            let (plans, want_a) = (&plans, &want_a);
            let (a_iterations, stop) = (Arc::clone(&a_iterations), Arc::clone(&stop));
            scope.spawn(move || {
                let session = catalog.session("model_a").expect("tenant a");
                while !stop.load(Ordering::Relaxed) {
                    let got = card_bits(&session.estimate_plans(plans).expect("a serves"));
                    assert_eq!(&got, want_a, "a hot-swap of tenant b disturbed tenant a's estimates");
                    assert_eq!(session.generation(), Some(1), "tenant a must never see a generation bump");
                    a_iterations.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // A session on the swapped tenant: every batch must match exactly
        // one of b's two versions (never a mixture), transitioning v1 -> v2.
        {
            let catalog = Arc::clone(&catalog);
            let (plans, want_b1, want_b2) = (&plans, &want_b1, &want_b2);
            let (b_transitions, stop) = (Arc::clone(&b_transitions), Arc::clone(&stop));
            scope.spawn(move || {
                let session = catalog.session("model_b").expect("tenant b");
                let mut seen_v2 = false;
                while !stop.load(Ordering::Relaxed) {
                    let got = card_bits(&session.estimate_plans(plans).expect("b serves"));
                    if &got == want_b1 {
                        assert!(!seen_v2, "tenant b served v1 estimates after the swap was observed");
                    } else {
                        assert_eq!(&got, want_b2, "tenant b served a mixture of model versions");
                        if !seen_v2 {
                            seen_v2 = true;
                            b_transitions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                assert!(seen_v2, "tenant b's session never observed the hot-swap");
            });
        }

        // Main thread: wait until session a is demonstrably in flight, then
        // hot-swap tenant b live.
        while a_iterations.load(Ordering::Relaxed) < 3 {
            std::thread::yield_now();
        }
        let generation = catalog.install_checkpoint("model_b", &ckpt).expect("hot-swap b");
        assert_eq!(generation, 2);
        // Let both sessions run against the post-swap catalog for a while.
        let after_swap = a_iterations.load(Ordering::Relaxed);
        while a_iterations.load(Ordering::Relaxed) < after_swap + 3 || b_transitions.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(b_transitions.load(Ordering::Relaxed), 1, "exactly one v1 -> v2 transition");
    assert!(a_iterations.load(Ordering::Relaxed) >= 6);
    let _ = std::fs::remove_file(&ckpt);
}
