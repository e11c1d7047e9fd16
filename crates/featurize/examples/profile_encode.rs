//! Component-level profile of the plan featurization pipeline (metadata
//! one-hots, predicate tree, sample-bitmap sweep, whole-node encode with the
//! node memo off and on a node-memo hit, fresh vs. signature-memoized plan
//! encode over a DP-enumeration workload, through the encode cache a
//! `CostEstimator` keeps) — the dev tool behind the "encode pipeline"
//! numbers in `docs/perf.md`.  It asserts that every memoized lane equals
//! the fresh one; it is not a speed gate, and the end-to-end floors live in
//! the `bench` crate's check mode.
//!
//! `cargo run -p featurize --release --example profile_encode`

use featurize::encode::ENCODE_SLOTS_PER_SHARD;
use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, GeneratorConfig};
use query::{PlanNode, SigCache};
use std::sync::Arc;
use std::time::Instant;
use strembed::HashBitmapEncoder;
use workloads::{generate_enumeration_workload, EnumerationConfig};

fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn main() {
    let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
    let cfg = EncodingConfig::from_database(&db, 16, 64);
    let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(16)));

    let workload = generate_enumeration_workload(
        &db,
        EnumerationConfig { num_queries: 8, min_joins: 2, max_joins: 4, max_candidates_per_query: 80, seed: 17 },
    );
    let plans: Vec<PlanNode> = workload.iter().flat_map(|s| s.candidates.iter().cloned()).collect();
    let total_nodes: usize = plans.iter().map(|p| p.size()).sum();
    let distinct: usize = workload.iter().map(|s| s.distinct_subtrees()).sum();
    println!("enumeration stream: {} plans, {} nodes, {} distinct subtrees", plans.len(), total_nodes, distinct);

    // Pick a predicate-bearing scan node for the component rows.
    let node = plans
        .iter()
        .flat_map(|p| p.nodes_preorder())
        .find(|n| n.op.predicate().is_some())
        .expect("workload has a filtered scan");
    let c = fx.config();
    let mut meta_buf = vec![0.0f32; c.metadata_dim()];
    let mut samp_buf = vec![0.0f32; c.sample_dim()];
    let mut fresh_fx = fx.clone();
    fresh_fx.use_bitmap_memo = false;

    let meta_ns = time_ns(50_000, || fx.encode_metadata_into(node, &mut meta_buf));
    let pred_ns = time_ns(50_000, || {
        std::hint::black_box(fx.encode_predicate(node.op.predicate()));
    });
    let sweep_ns = time_ns(2_000, || fx.encode_sample_bitmap_into(node, &mut samp_buf));
    let node_fresh_ns = time_ns(2_000, || {
        std::hint::black_box(fresh_fx.encode_node(node));
    });
    let node_hit_ns = time_ns(50_000, || {
        std::hint::black_box(fx.encode_node(node));
    });
    println!(
        "node components: metadata {meta_ns:>8.0} ns   predicate {pred_ns:>8.0} ns   \
         bitmap sweep {sweep_ns:>8.0} ns   full node memo off {node_fresh_ns:>8.0} ns / \
         memo hit {node_hit_ns:>8.0} ns ({:.1}x)",
        node_fresh_ns / node_hit_ns.max(1.0)
    );

    // Whole-stream throughput.  "fresh" is the pre-memo pipeline (node memo
    // disabled on a clone — bit-identical output, no reuse); "cold" starts
    // an empty encode cache per pass (intra-stream dedup only, node memo
    // warm); "warm" is the serving steady state, the stream re-encoded
    // against an already-populated cache, as a DP enumerator's rounds would.
    let fresh_ns = time_ns(5, || {
        for p in &plans {
            std::hint::black_box(fresh_fx.encode_plan(p));
        }
    });
    let encode_cache = || SigCache::<Arc<EncodedPlan>>::new(ENCODE_SLOTS_PER_SHARD, 0);
    let cold_ns = time_ns(5, || {
        std::hint::black_box(fx.encode_plans_cached(&plans, &encode_cache()));
    });
    let warm_cache = encode_cache();
    fx.encode_plans_cached(&plans, &warm_cache);
    let warm_ns = time_ns(20, || {
        std::hint::black_box(fx.encode_plans_cached(&plans, &warm_cache));
    });
    let fresh: Vec<EncodedPlan> = plans.iter().map(|p| fresh_fx.encode_plan(p)).collect();
    let equals_fresh = |lane: &[Arc<EncodedPlan>]| lane.iter().map(|p| p.as_ref()).eq(fresh.iter());
    assert!(equals_fresh(&fx.encode_plans_cached(&plans, &encode_cache())), "the cold cached stream diverged");
    assert!(equals_fresh(&fx.encode_plans_cached(&plans, &warm_cache)), "the warm cached stream diverged");
    fx.clear_bitmap_memo();
    let pass: Vec<EncodedPlan> = plans.iter().map(|p| fx.encode_plan(p)).collect();
    let (hits, misses) = fx.bitmap_memo_stats();
    assert!(pass == fresh, "node-memo encode diverged from the memo-off encode");
    let per_plan = 1e9 / (fresh_ns / plans.len() as f64);
    let per_plan_warm = 1e9 / (warm_ns / plans.len() as f64);
    println!(
        "stream encode: fresh {:>7.2} ms ({per_plan:>8.0} plans/s)   memoized cold {:>7.2} ms \
         ({:.2}x)   memoized warm {:>7.2} ms ({per_plan_warm:>8.0} plans/s, {:.2}x)",
        fresh_ns / 1e6,
        cold_ns / 1e6,
        fresh_ns / cold_ns.max(1.0),
        warm_ns / 1e6,
        fresh_ns / warm_ns.max(1.0),
    );
    println!(
        "node memo over one fresh stream pass: {hits} hits / {misses} misses ({:.1}% hit rate, {} entries)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        fx.bitmap_memo_len()
    );
}
