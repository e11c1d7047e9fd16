//! Multi-tenant serving demo: train two models, publish both in one
//! process's `ModelCatalog`, serve them concurrently, then roll out a
//! retrained checkpoint under one name as a **live hot-swap** — while a
//! session on the other tenant keeps serving, undisturbed and
//! bit-identical, the whole time.
//!
//! Run with: `cargo run --release --example multi_tenant`
//! CI runs this next to the E2E_CHECK bench jobs; the assertions are the
//! multi-tenant serving guarantees.

use e2e_cost_estimator::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn make_estimator(db: &Arc<Database>, seed: u64) -> CostEstimator {
    let enc = EncodingConfig::from_database(db, 16, 64);
    let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(16)));
    CostEstimator::new(
        extractor,
        ModelConfig { feature_embed_dim: 16, hidden_dim: 32, estimation_hidden_dim: 16, seed, ..Default::default() },
        TrainConfig { epochs: 2, batch_size: 16, seed, ..Default::default() },
    )
}

fn card_bits(estimates: &[PlanEstimate]) -> Vec<u64> {
    estimates.iter().map(|e| e.cardinality.expect("card").to_bits()).collect()
}

fn main() {
    // 1. One deterministic database, one workload, two tenants' models —
    //    say, one per customer-facing region — trained on different slices.
    let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: 1_000, sample_size: 64, seed: 42 }));
    let samples =
        generate_workload(&db, WorkloadConfig { num_queries: 80, max_joins: 2, seed: 11, ..Default::default() });
    let plans: Vec<PlanNode> = samples.iter().map(|s| s.plan.clone()).collect();

    println!("training tenant models...");
    let mut region_east = make_estimator(&db, 1);
    region_east.fit(&plans[..40]);
    let mut region_west_v1 = make_estimator(&db, 2);
    region_west_v1.fit(&plans[40..]);
    // The retrained v2 of region_west arrives as a checkpoint on disk —
    // exactly how a training job hands a model to the serving process.
    let mut region_west_v2 = make_estimator(&db, 4242);
    region_west_v2.fit(&plans);
    let ckpt = std::env::temp_dir().join("e2e_multi_tenant_demo.ckpt");
    region_west_v2.save_checkpoint(&ckpt).expect("save retrained checkpoint");

    let east_reference = card_bits(&region_east.estimate_many(&plans[..10]));
    let west_v1_reference = card_bits(&region_west_v1.estimate_many(&plans[..10]));
    let west_v2_reference = card_bits(&region_west_v2.estimate_many(&plans[..10]));
    assert_ne!(west_v1_reference, west_v2_reference, "the rollout must be observable");

    // 2. One process, one catalog, both models served by name.
    let catalog = Arc::new(ModelCatalog::new());
    catalog.publish("region_east", TenantBackend::tree(region_east));
    catalog.publish("region_west", TenantBackend::tree(region_west_v1));
    let factory_db = db.clone();
    catalog.register_factory("region_west", Box::new(move || TenantBackend::tree(make_estimator(&factory_db, 4242))));
    println!("catalog serves {:?}", catalog.names());

    // 3. A session per tenant, concurrently; hot-swap region_west mid-flight.
    let east_batches = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let (catalog, plans) = (Arc::clone(&catalog), &plans);
            let (east_batches, stop) = (Arc::clone(&east_batches), Arc::clone(&stop));
            let east_reference = &east_reference;
            scope.spawn(move || {
                let session = catalog.session("region_east").expect("region_east");
                while !stop.load(Ordering::Relaxed) {
                    let got = card_bits(&session.estimate_plans(&plans[..10]).expect("east serves"));
                    assert_eq!(&got, east_reference, "east was disturbed by west's rollout");
                    east_batches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        let west = catalog.session("region_west").expect("region_west");
        assert_eq!(card_bits(&west.estimate_plans(&plans[..10]).expect("west serves")), west_v1_reference);
        println!("region_west serving v1 (generation {:?})", west.generation());

        // Wait until the east session is demonstrably in flight...
        while east_batches.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        // ...then roll out v2 live.
        let started = Instant::now();
        let generation = catalog.install_checkpoint("region_west", &ckpt).expect("hot-swap region_west");
        println!(
            "hot-swapped region_west to v2 (generation {generation}) in {:.1} ms, east still serving",
            started.elapsed().as_secs_f64() * 1e3
        );
        assert_eq!(card_bits(&west.estimate_plans(&plans[..10]).expect("west serves")), west_v2_reference);

        let after = east_batches.load(Ordering::Relaxed);
        while east_batches.load(Ordering::Relaxed) < after + 2 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    println!(
        "east served {} bit-identical batches across the swap; west now serves v2",
        east_batches.load(Ordering::Relaxed)
    );

    // 4. Concurrent sessions of one tenant: each call runs on its session's
    //    own thread against the pinned model, sharing its subtree-state cache.
    let encoded: Vec<_> = {
        let session = catalog.session("region_west").expect("region_west");
        plans[..10].iter().map(|p| session.encode(p).expect("tree tenant encodes")).collect()
    };
    let session = catalog.session("region_west").expect("region_west");
    let direct = session.estimate_encoded(&encoded).expect("west serves encoded");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = catalog.session("region_west").expect("region_west");
            let (encoded, direct) = (&encoded, &direct);
            scope.spawn(move || {
                for _ in 0..10 {
                    let got = session.estimate_encoded(encoded).expect("west serves encoded");
                    assert_eq!(&got, direct, "concurrent sessions' estimates must be bit-identical");
                }
            });
        }
    });
    println!("4 concurrent west sessions served from the shared cache, all bit-identical");
    let _ = std::fs::remove_file(&ckpt);
    println!("demo OK");
}
