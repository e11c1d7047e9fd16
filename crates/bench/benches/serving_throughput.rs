//! Serving throughput under a DP plan enumerator — the workload the paper's
//! estimator actually faces inside an optimizer, which Table 12 does not
//! exercise: every query expands into many candidate join orders sharing
//! almost all of their subtrees, templates recur across optimization rounds,
//! and several estimator sessions run concurrently.
//!
//! Run with `cargo bench -p bench --bench serving_throughput`.  The harness
//! measures, over an enumeration stream of `E2E_SERVING_ROUNDS` rounds ×
//! `E2E_SERVING_QUERIES` queries × their candidate join orders:
//!
//! * **Memoization speedup** — the subtree-memoized serving path
//!   (`ServingEstimator`, cold cache at stream start) vs. the
//!   memoization-disabled level-batched path on the identical stream, single
//!   thread; plus the subtree-cache hit rate (node-level: fraction of
//!   submitted plan nodes served without a fresh embedding).
//! * **Encode pipeline** — fresh per-plan featurization (node memo
//!   disabled: the pre-memo pipeline, bit-identical output) vs. the
//!   signature-memoized batch encode against the shared encode cache over
//!   the identical stream, per-plan encode through the node memo alone, the
//!   node-memo hit rate over one fresh-style pass, the end-to-end
//!   raw-plans→estimates throughput of
//!   [`estimator_core::ServingEstimator::estimate_plans`] (the state-first
//!   walk) and, over the same stream, the two-call split it replaced:
//!   memoized batch encode, then the memoized encoded-plan forward.  Every
//!   memoized lane starts with its caches and the node memo cold.
//! * **Concurrent-session scaling** — 1/2/4/8 serving threads, each scoring
//!   its own full copy of the stream (staggered query offsets, like
//!   independent clients with recurring templates) against the shared
//!   sharded cache; aggregate plans/s per thread count, and each row's
//!   speedup as the median and range of per-pair ratios against one
//!   session timed back to back.  On a multi-core
//!   host this compounds CPU scaling with cross-session cache sharing; on a
//!   single core (the `cpus` field says which) it isolates the sharing
//!   effect — aggregate throughput still rises because a subtree any
//!   session embedded is served to every other session from the cache.
//!
//! * **Warm start** — time-to-first-estimate of a cold fit vs a
//!   `load_checkpoint` of the same model (the startup path of a serving
//!   process).  Set `E2E_SERVING_CHECKPOINT=<path>` to persist the trained
//!   model there and, on later runs, skip training entirely by loading it.
//!
//! Results go to `BENCH_serving.json` (into `E2E_BENCH_OUT` or the current
//! directory).  With `E2E_CHECK` set, regression floors are asserted:
//! memoization speedup ≥ 3x, node-level hit rate ≥ 0.85, memoized encode
//! ≥ 3x the fresh featurization with a node-memo hit rate ≥ 0.8 and a
//! live end-to-end `estimate_plans` measurement, ≥ 1.5x aggregate
//! throughput at 4 threads (the median of at least five interleaved
//! 1-vs-4-session pairs, [`bench::paired_ratio`]) and checkpoint warm
//! start ≥ 5x faster than a cold fit — the guards CI's smoke job runs.

use bench::{paired_ratio, time_reps, PairedRatio, Pipeline};
use estimator_core::{PredicateModelKind, RepresentationCellKind, TaskMode};
use featurize::EncodedPlan;
use query::PlanNode;
use std::fmt::Write as _;
use workloads::{generate_enumeration_workload, EnumerationConfig, WorkloadKind};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let queries = env_usize("E2E_SERVING_QUERIES", 12);
    let rounds = env_usize("E2E_SERVING_ROUNDS", 5);
    let max_candidates = env_usize("E2E_SERVING_CANDIDATES", 120);
    let reps = env_usize("E2E_BENCH_REPS", 3).max(1);
    if std::env::var("E2E_EPOCHS").is_err() {
        // Serving throughput does not depend on model quality; keep the
        // training phase short unless the caller asks otherwise.
        std::env::set_var("E2E_EPOCHS", "2");
    }
    let cpus = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    let pipeline = Pipeline::new();
    let suite = pipeline.suite(WorkloadKind::JobLight);
    let mk_estimator = || {
        pipeline.tree_estimator(
            &suite.train,
            RepresentationCellKind::Lstm,
            PredicateModelKind::MinMaxPool,
            TaskMode::Multitask,
            None,
            true,
        )
    };
    let train_plans: Vec<PlanNode> = suite.train.iter().map(|s| s.plan.clone()).collect();

    // Fit cold — or warm-start from a persisted checkpoint when
    // E2E_SERVING_CHECKPOINT names an existing file.
    let persist = std::env::var("E2E_SERVING_CHECKPOINT").ok();
    let mut est = mk_estimator();
    let mut cold_fit_secs = None;
    match persist.as_deref().filter(|p| std::path::Path::new(p).exists()) {
        Some(path) => {
            let started = std::time::Instant::now();
            est.load_checkpoint(path).unwrap_or_else(|e| panic!("cannot warm-start from {path}: {e}"));
            println!("warm start: loaded {path} in {:.1} ms (no training)", started.elapsed().as_secs_f64() * 1e3);
        }
        None => {
            let started = std::time::Instant::now();
            est.fit(&train_plans);
            cold_fit_secs = Some(started.elapsed().as_secs_f64());
            if let Some(path) = &persist {
                est.save_checkpoint(path).unwrap_or_else(|e| panic!("cannot persist checkpoint to {path}: {e}"));
                println!("persisted checkpoint to {path}");
            }
        }
    }
    let est = est;

    // The enumeration stream: per query, all connected left-deep candidate
    // join orders (capped), encoded once up front — serving scores encoded
    // plans, exactly as the Table-12 harness does.
    let workload = generate_enumeration_workload(
        &pipeline.db,
        EnumerationConfig {
            num_queries: queries,
            min_joins: 3,
            max_joins: 4,
            max_candidates_per_query: max_candidates,
            seed: 31,
        },
    );
    let encoded: Vec<Vec<EncodedPlan>> =
        workload.iter().map(|s| s.candidates.iter().map(|c| est.encode(c)).collect()).collect();
    let plans_per_round: usize = encoded.iter().map(|q| q.len()).sum();
    let plans_per_session = plans_per_round * rounds;
    let nodes_per_round: usize = workload.iter().map(|s| s.total_nodes()).sum();
    let distinct_subtrees: usize = {
        let mut seen = std::collections::HashSet::new();
        for s in &workload {
            for c in &s.candidates {
                for n in c.nodes_preorder() {
                    seen.insert(n.signature_hash());
                }
            }
        }
        seen.len()
    };
    println!(
        "== serving throughput — DP enumeration ({} queries x {rounds} rounds, {plans_per_round} candidates/round, \
         {nodes_per_round} nodes/round, {distinct_subtrees} distinct subtrees, {cpus} cpu(s)) ==",
        workload.len()
    );

    // --- Memoization speedup, single thread, identical stream. ---
    let serving = est.serving();
    let run_stream_nonmemo = || {
        for _ in 0..rounds {
            for q in &encoded {
                // The memo-free batch walks the candidate set in the same
                // groups of `GROUP_SIZE` on this thread as the memoized
                // path, so the speedup isolates memoization.
                est.estimate_encoded_batch(q);
            }
        }
    };
    let run_stream_memo = |offset: usize| {
        for _ in 0..rounds {
            for i in 0..encoded.len() {
                let q = &encoded[(i + offset) % encoded.len()];
                let refs: Vec<&EncodedPlan> = q.iter().collect();
                serving.estimate_encoded_batch(&refs);
            }
        }
    };

    let secs_nonmemo = time_reps(reps, || (), run_stream_nonmemo);
    let secs_memo = time_reps(reps, || serving.cache().clear(), || run_stream_memo(0));
    let node_hit_rate = serving.cache().node_hit_rate();
    let (lookup_hits, lookup_misses) = serving.cache().stats();
    let memo_speedup = secs_nonmemo / secs_memo;
    println!(
        "memoization: {:.1} plans/s -> {:.1} plans/s ({memo_speedup:.1}x), node hit rate {:.1}%, \
         {} cached subtrees",
        plans_per_session as f64 / secs_nonmemo,
        plans_per_session as f64 / secs_memo,
        node_hit_rate * 100.0,
        serving.cache().len(),
    );

    // Memoized results must be exactly the memoization-free results, from
    // encoded plans and from raw plans through the state-first walk.
    {
        let q = &encoded[0];
        let refs: Vec<&EncodedPlan> = q.iter().collect();
        let fresh = est.estimate_encoded_batch(q);
        serving.cache().clear();
        assert_eq!(serving.estimate_encoded_batch(&refs), fresh, "memoized estimates diverged");
        serving.cache().clear();
        assert_eq!(serving.estimate_plans(&workload[0].candidates), fresh, "state-first estimates diverged");
    }

    // --- Encode pipeline: fresh vs signature-memoized featurization. ---
    // "Fresh" is the pre-memo pipeline: per-plan recursive encode with the
    // node memo disabled on an extractor clone (bit-identical features, no
    // reuse of any kind).  "Memoized" batches each query's candidates
    // through the shared encode cache, cold (node memo included) at stream
    // start — the first round pays the distinct-subtree encodes, later
    // rounds are almost entirely signature lookups, exactly like the
    // estimation memo above.
    let mut fresh_fx = est.extractor().clone();
    fresh_fx.use_bitmap_memo = false;
    let secs_encode_fresh = time_reps(
        reps,
        || (),
        || {
            for _ in 0..rounds {
                for s in &workload {
                    for c in &s.candidates {
                        std::hint::black_box(fresh_fx.encode_plan(c));
                    }
                }
            }
        },
    );
    let clear_node_memo = || est.extractor().clear_bitmap_memo();
    let secs_encode_memo = time_reps(
        reps,
        || {
            est.encode_cache().clear();
            clear_node_memo();
        },
        || {
            for _ in 0..rounds {
                for s in &workload {
                    std::hint::black_box(est.encode_plans(&s.candidates));
                }
            }
        },
    );
    let encode_speedup = secs_encode_fresh / secs_encode_memo;
    let encode_cache_hit_rate = est.encode_cache().hit_rate();
    let encode_cache_entries = est.encode_cache().len();
    // Per-plan encode through the node memo alone (no encode cache), cold
    // at stream start: each distinct operator is featurized once, every
    // other node is a key hash and a lookup.
    let secs_encode_node_memo = time_reps(reps, clear_node_memo, || {
        for _ in 0..rounds {
            for s in &workload {
                for c in &s.candidates {
                    std::hint::black_box(est.encode(c));
                }
            }
        }
    });
    let node_memo_plans_per_sec = plans_per_session as f64 / secs_encode_node_memo;
    // Node-memo hit rate over one fresh-style pass (memo enabled, cleared
    // first): across an enumeration stream almost every node repeats an
    // operator some other candidate already featurized.
    clear_node_memo();
    for s in &workload {
        for c in &s.candidates {
            std::hint::black_box(est.encode(c));
        }
    }
    let bitmap_hit_rate = est.extractor().bitmap_memo_hit_rate();
    let node_memo_entries = est.extractor().bitmap_memo_len();
    // End-to-end front door: raw PlanNodes in, (cost, cardinality) out,
    // through the state-first walk (it never touches the encode cache).
    let secs_end_to_end = time_reps(
        reps,
        || {
            serving.cache().clear();
            clear_node_memo();
        },
        || {
            for _ in 0..rounds {
                for s in &workload {
                    std::hint::black_box(serving.estimate_plans(&s.candidates));
                }
            }
        },
    );
    let end_to_end_plans_per_sec = plans_per_session as f64 / secs_end_to_end;
    // The same stream through the two-call split the front door replaced:
    // memoized batch encode, then the memoized encoded-plan forward.
    let secs_split = time_reps(
        reps,
        || {
            est.encode_cache().clear();
            serving.cache().clear();
            clear_node_memo();
        },
        || {
            for _ in 0..rounds {
                for s in &workload {
                    let batch = est.encode_plans(&s.candidates);
                    let refs: Vec<&EncodedPlan> = batch.iter().map(|e| e.as_ref()).collect();
                    std::hint::black_box(serving.estimate_encoded_batch(&refs));
                }
            }
        },
    );
    let split_plans_per_sec = plans_per_session as f64 / secs_split;
    println!(
        "encode: fresh {:.1} plans/s -> memoized {:.1} plans/s ({encode_speedup:.1}x), \
         encode-cache hit rate {:.1}% ({encode_cache_entries} entries), node memo \
         {node_memo_plans_per_sec:.1} plans/s (hit rate {:.1}%, {node_memo_entries} entries), \
         end-to-end {end_to_end_plans_per_sec:.1} plans/s (encode-then-estimate split \
         {split_plans_per_sec:.1} plans/s)",
        plans_per_session as f64 / secs_encode_fresh,
        plans_per_session as f64 / secs_encode_memo,
        encode_cache_hit_rate * 100.0,
        bitmap_hit_rate * 100.0,
    );
    // Memoized featurization must be bit-identical to the fresh pipeline.
    {
        let fresh: Vec<EncodedPlan> = workload[0].candidates.iter().map(|c| fresh_fx.encode_plan(c)).collect();
        let memoized = est.encode_plans(&workload[0].candidates);
        assert!(
            memoized.iter().zip(&fresh).all(|(m, f)| m.as_ref() == f),
            "memoized encode diverged from fresh featurization"
        );
    }

    // --- Concurrent sessions: 1/2/4/8 threads over the shared cache. ---
    // Each multi-session row is timed in interleaved pairs against one
    // session; its speedup is the median of the per-pair ratios.
    struct ThreadRow {
        threads: usize,
        aggregate_plans_per_sec: f64,
        speedup_vs_1: PairedRatio,
    }
    let run_sessions = |threads: usize| {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let offset = t * encoded.len() / threads;
                scope.spawn(move || run_stream_memo(offset));
            }
        });
    };
    let one_secs = time_reps(reps, || serving.cache().clear(), || run_sessions(1));
    let one = PairedRatio { median: 1.0, min: 1.0, max: 1.0, best_a: one_secs, best_b: one_secs };
    let mut thread_rows =
        vec![ThreadRow { threads: 1, aggregate_plans_per_sec: plans_per_session as f64 / one_secs, speedup_vs_1: one }];
    println!("1 session(s): {:>12.1} plans/s", thread_rows[0].aggregate_plans_per_sec);
    for threads in [2usize, 4, 8] {
        let speedup = paired_ratio(reps, || serving.cache().clear(), || run_sessions(1), || run_sessions(threads))
            .scaled(threads as f64);
        let aggregate = (threads * plans_per_session) as f64 / speedup.best_b;
        println!(
            "{threads} session(s): {aggregate:>12.1} plans/s aggregate   ({:.2}x vs 1 session, paired median; \
             range {:.2}-{:.2}x, efficiency {:.2})",
            speedup.median,
            speedup.min,
            speedup.max,
            speedup.median / threads as f64
        );
        thread_rows.push(ThreadRow { threads, aggregate_plans_per_sec: aggregate, speedup_vs_1: speedup });
    }

    // --- Warm start: cold fit vs checkpoint load to first estimate. ---
    // "Cold" is exactly the training wall time measured above (single
    // measurement; its first estimate would add microseconds to seconds of
    // fitting, so it is not re-run here); "warm" builds a fresh estimator,
    // loads the checkpoint and serves the first estimate — the whole
    // startup path of a fresh serving process (best of `reps`).  The warm
    // side thus measures slightly MORE work per start, making the reported
    // speedup conservative.
    let ckpt = std::env::temp_dir().join(format!("e2e-serving-warmstart-{}.ckpt", std::process::id()));
    est.save_checkpoint(&ckpt).expect("save warm-start checkpoint");
    let first_plan = std::slice::from_ref(&encoded[0][0]);
    let expected_first = est.estimate_encoded_batch(first_plan);
    let warm_load_secs = time_reps(
        reps,
        || (),
        || {
            let mut warm = mk_estimator();
            warm.load_checkpoint(&ckpt).expect("load warm-start checkpoint");
            assert_eq!(warm.estimate_encoded_batch(first_plan), expected_first, "warm-start estimates diverged");
        },
    );
    let _ = std::fs::remove_file(&ckpt);
    let warm_speedup = cold_fit_secs.map(|cold| cold / warm_load_secs);
    match (cold_fit_secs, warm_speedup) {
        (Some(cold), Some(speedup)) => println!(
            "warm start: cold fit {:.2} s -> checkpoint load {:.1} ms to first estimate ({speedup:.0}x)",
            cold,
            warm_load_secs * 1e3
        ),
        _ => println!(
            "warm start: checkpoint load {:.1} ms to first estimate (cold fit skipped this run)",
            warm_load_secs * 1e3
        ),
    }

    // --- Machine-readable trajectory record. ---
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serving_throughput\",");
    let _ = writeln!(json, "  \"host\": {},", bench::host_capabilities_json());
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"queries\": {},", workload.len());
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"candidates_per_round\": {plans_per_round},");
    let _ = writeln!(json, "  \"plans_per_session\": {plans_per_session},");
    let _ = writeln!(json, "  \"nodes_per_round\": {nodes_per_round},");
    let _ = writeln!(json, "  \"distinct_subtrees\": {distinct_subtrees},");
    let _ = writeln!(json, "  \"memoization\": {{");
    let _ = writeln!(json, "    \"ms_per_plan_nonmemo\": {:.6},", secs_nonmemo * 1e3 / plans_per_session as f64);
    let _ = writeln!(json, "    \"ms_per_plan_memo\": {:.6},", secs_memo * 1e3 / plans_per_session as f64);
    let _ = writeln!(json, "    \"speedup\": {memo_speedup:.3},");
    let _ = writeln!(json, "    \"subtree_cache_hit_rate\": {node_hit_rate:.4},");
    let _ = writeln!(json, "    \"lookup_hits\": {lookup_hits},");
    let _ = writeln!(json, "    \"lookup_misses\": {lookup_misses}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"encode\": {{");
    let _ = writeln!(json, "    \"fresh_plans_per_sec\": {:.1},", plans_per_session as f64 / secs_encode_fresh);
    let _ = writeln!(json, "    \"memoized_plans_per_sec\": {:.1},", plans_per_session as f64 / secs_encode_memo);
    let _ = writeln!(json, "    \"speedup\": {encode_speedup:.3},");
    let _ = writeln!(json, "    \"encode_cache_hit_rate\": {encode_cache_hit_rate:.4},");
    let _ = writeln!(json, "    \"encode_cache_entries\": {encode_cache_entries},");
    let _ = writeln!(json, "    \"node_memo_plans_per_sec\": {node_memo_plans_per_sec:.1},");
    let _ = writeln!(json, "    \"bitmap_memo_hit_rate\": {bitmap_hit_rate:.4},");
    let _ = writeln!(json, "    \"end_to_end_plans_per_sec\": {end_to_end_plans_per_sec:.1},");
    let _ = writeln!(json, "    \"split_plans_per_sec\": {split_plans_per_sec:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"warm_start\": {{");
    let _ = match cold_fit_secs {
        Some(cold) => writeln!(json, "    \"cold_fit_secs\": {cold:.6},"),
        None => writeln!(json, "    \"cold_fit_secs\": null,"),
    };
    let _ = writeln!(json, "    \"checkpoint_load_secs\": {warm_load_secs:.6},");
    let _ = match warm_speedup {
        Some(speedup) => writeln!(json, "    \"speedup\": {speedup:.1}"),
        None => writeln!(json, "    \"speedup\": null"),
    };
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"threads\": [");
    for (i, r) in thread_rows.iter().enumerate() {
        let comma = if i + 1 < thread_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"threads\": {}, \"aggregate_plans_per_sec\": {:.1}, \"speedup_vs_1\": {:.3}, \
             \"speedup_vs_1_range\": {}, \"scaling_efficiency\": {:.3} }}{comma}",
            r.threads,
            r.aggregate_plans_per_sec,
            r.speedup_vs_1.median,
            r.speedup_vs_1.range_json(),
            r.speedup_vs_1.median / r.threads as f64
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let out_dir = std::env::var("E2E_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = format!("{out_dir}/BENCH_serving.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");

    // Check mode (CI smoke): fail loudly when the serving floors regress.
    if matches!(std::env::var("E2E_CHECK").as_deref(), Ok(v) if !v.is_empty() && v != "0") {
        assert!(memo_speedup >= 3.0, "memoization speedup {memo_speedup:.2}x below the 3x regression floor");
        assert!(node_hit_rate >= 0.85, "subtree-cache hit rate {node_hit_rate:.3} below the 0.85 floor");
        let four = thread_rows.iter().find(|r| r.threads == 4).expect("4-thread row");
        assert!(
            four.speedup_vs_1.median >= 1.5,
            "4-session aggregate speedup {:.2}x (paired median) below the 1.5x regression floor",
            four.speedup_vs_1.median
        );
        if let Some(speedup) = warm_speedup {
            assert!(speedup >= 5.0, "checkpoint warm start only {speedup:.1}x faster than a cold fit (floor 5x)");
        }
        // Encode-pipeline floors: the signature memo must beat the fresh
        // pipeline by 3x over the stream (first round cold, later rounds
        // served from the cache), the node memo must serve at least 80% of
        // node encodes on a fresh-style pass, and the end-to-end front door
        // must actually move plans.
        assert!(encode_speedup >= 3.0, "memoized encode speedup {encode_speedup:.2}x below the 3x regression floor");
        assert!(bitmap_hit_rate >= 0.8, "node memo hit rate {bitmap_hit_rate:.3} below the 0.8 floor");
        assert!(end_to_end_plans_per_sec > 0.0, "end-to-end estimate_plans produced no throughput measurement");
        println!(
            "check mode: serving floors hold (memo >= 3x, hit rate >= 0.85, encode memo >= 3x, node memo >= 0.8, \
             4-session >= 1.5x, warm start >= 5x)"
        );
    }
}
