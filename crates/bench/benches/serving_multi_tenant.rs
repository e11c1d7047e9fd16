//! Multi-tenant serving runtime under load — the production posture behind
//! one process: several named checkpointed models, live hot-swaps, and
//! concurrent sessions of one tenant sharing its caches.
//!
//! Run with `cargo bench -p bench --bench serving_multi_tenant` (after
//! `serving_throughput`, whose `BENCH_serving.json` this bench extends with
//! a `multi_tenant` section).  Three measurements:
//!
//! * **Hot-swap latency** — `ModelCatalog::install_checkpoint` end to end
//!   (build a fresh backend from the tenant factory, load the checkpoint,
//!   swap the slot) and the pure atomic `publish` swap alone.
//! * **Per-tenant isolation** — tenant B's session throughput while tenant
//!   A is hot-swapped continuously, as a fraction of B's undisturbed
//!   throughput, with every B estimate asserted bit-identical throughout.
//!   Swaps cost CPU (building + loading a model), so the ratio is below
//!   1.0 on a small host — but a *blocking* catalog would send it toward
//!   zero; the floor guards that.  B's cache statistics are also asserted
//!   untouched by A's traffic (per-tenant sharded caches).
//! * **Concurrent-session throughput** — 1 vs 4 sessions of the *same*
//!   tenant streaming a DP enumeration through `Session::estimate_encoded`,
//!   each on its own thread, sharing the model's sharded subtree-state
//!   cache; aggregate plans/s and speedup vs one session, timed as
//!   interleaved 1-vs-4-session pairs ([`bench::paired_ratio`]).
//!
//! With `E2E_CHECK` set, floors are asserted: isolation ratio ≥ 0.3 and
//! 4 concurrent sessions ≥ 1.5x one session (the median of the per-pair
//! ratios).

use bench::{paired_ratio, time_reps, Pipeline};
use estimator_core::{PredicateModelKind, RepresentationCellKind, TaskMode};
use featurize::EncodedPlan;
use query::PlanNode;
use serving::{ModelCatalog, TenantBackend};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use workloads::{generate_enumeration_workload, EnumerationConfig, WorkloadKind};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let queries = env_usize("E2E_SERVING_QUERIES", 8);
    let rounds = env_usize("E2E_SERVING_ROUNDS", 3);
    let max_candidates = env_usize("E2E_SERVING_CANDIDATES", 100);
    let reps = env_usize("E2E_BENCH_REPS", 3).max(1);
    if std::env::var("E2E_EPOCHS").is_err() {
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
    let n = train_plans.len();

    // Two tenants with genuinely different weights: trained on different
    // halves of the workload.  A third variant (for hot-swapping tenant A)
    // trains on the full set.
    let fit_on = |plans: &[PlanNode]| {
        let mut est = mk_estimator();
        est.fit(plans);
        est
    };
    println!("training tenant models ({n} plans)...");
    let tenant_a_v1 = fit_on(&train_plans[..n / 2]);
    let tenant_b = fit_on(&train_plans[n / 2..]);
    let tenant_a_v2 = fit_on(&train_plans);
    let ckpt = std::env::temp_dir().join(format!("e2e-multitenant-{}.ckpt", std::process::id()));
    tenant_a_v2.save_checkpoint(&ckpt).expect("save hot-swap checkpoint");

    // The enumeration stream, encoded once (both tenants share the
    // extractor vocabulary — same database, same encoding config).
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
        workload.iter().map(|s| s.candidates.iter().map(|c| tenant_a_v1.encode(c)).collect()).collect();
    let plans_per_round: usize = encoded.iter().map(|q| q.len()).sum();
    let plans_per_session = plans_per_round * rounds;
    println!(
        "== multi-tenant serving ({} queries x {rounds} rounds, {plans_per_round} candidates/round, {cpus} cpu(s)) ==",
        workload.len()
    );

    let catalog = Arc::new(ModelCatalog::new());
    catalog.publish("tenant_a", TenantBackend::tree(tenant_a_v1));
    catalog.publish("tenant_b", TenantBackend::tree(tenant_b));
    catalog.register_factory("tenant_a", {
        // The factory owns cheap clones of the pipeline parts it needs to
        // rebuild the same estimator shape the tenant was trained with.
        let db = pipeline.db.clone();
        let enc = pipeline.enc_config.clone();
        let scale = pipeline.scale;
        let train = suite.train.clone();
        Box::new(move || {
            let p = Pipeline { db: db.clone(), scale, enc_config: enc.clone() };
            TenantBackend::tree(p.tree_estimator(
                &train,
                RepresentationCellKind::Lstm,
                PredicateModelKind::MinMaxPool,
                TaskMode::Multitask,
                None,
                true,
            ))
        })
    });

    // --- Hot-swap latency. ---
    let install_secs = time_reps(
        reps,
        || (),
        || {
            catalog.install_checkpoint("tenant_a", &ckpt).expect("install checkpoint");
        },
    );
    // Pure swap: backend built + loaded outside the timed region.
    let mut publish_best = f64::INFINITY;
    for _ in 0..reps.max(3) {
        let mut backend = mk_estimator();
        backend.load_checkpoint(&ckpt).expect("load for publish timing");
        let start = std::time::Instant::now();
        catalog.publish("tenant_a", TenantBackend::tree(backend));
        publish_best = publish_best.min(start.elapsed().as_secs_f64());
    }
    println!(
        "hot swap: install (build + load + swap) {:.2} ms, atomic publish alone {:.4} ms",
        install_secs * 1e3,
        publish_best * 1e3
    );

    // --- Per-tenant isolation: B's throughput while A swaps continuously. ---
    let sb = catalog.session("tenant_b").expect("tenant_b");
    let reference: Vec<Vec<(f64, f64)>> =
        encoded.iter().map(|q| sb.estimate_encoded(q).expect("tenant_b serves")).collect();
    let run_b_stream = || {
        for _ in 0..rounds {
            for (q, want) in encoded.iter().zip(&reference) {
                let got = sb.estimate_encoded(q).expect("tenant_b serves");
                assert_eq!(&got, want, "tenant_b estimates disturbed");
            }
        }
    };
    let b_alone_secs = time_reps(reps, || (), &run_b_stream);

    let stop = AtomicBool::new(false);
    let swaps = AtomicUsize::new(0);
    let mut b_during_secs = 0.0;
    std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                catalog.install_checkpoint("tenant_a", &ckpt).expect("hot swap under load");
                swaps.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Don't start the timed window until the swapper is demonstrably
        // live: on a single-core host a short measurement could otherwise
        // finish before the spawned thread is ever scheduled.
        while swaps.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        b_during_secs = time_reps(reps, || (), run_b_stream);
        stop.store(true, Ordering::Relaxed);
        swapper.join().expect("swapper thread");
    });
    let b_alone_rate = plans_per_session as f64 / b_alone_secs;
    let b_during_rate = plans_per_session as f64 / b_during_secs;
    let isolation_ratio = b_during_rate / b_alone_rate;
    let swaps_done = swaps.load(Ordering::Relaxed);
    println!(
        "isolation: tenant_b {b_alone_rate:.1} plans/s alone -> {b_during_rate:.1} plans/s during \
         {swaps_done} live hot-swaps of tenant_a (ratio {isolation_ratio:.2})"
    );

    // --- Concurrent-session throughput: 1 vs 4 sessions of tenant_a. ---
    let sa = catalog.session("tenant_a").expect("tenant_a");
    let expected_first = sa.estimate_encoded(&encoded[0]).expect("tenant_a serves");
    let run_sessions = |sessions: usize| {
        std::thread::scope(|scope| {
            for t in 0..sessions {
                let session = catalog.session("tenant_a").expect("tenant_a");
                let encoded = &encoded;
                let offset = t * encoded.len() / sessions;
                scope.spawn(move || {
                    for _ in 0..rounds {
                        for i in 0..encoded.len() {
                            let q = &encoded[(i + offset) % encoded.len()];
                            session.estimate_encoded(q).expect("tenant_a serves");
                        }
                    }
                });
            }
        });
    };
    // 1 vs 4 sessions timed in interleaved pairs; the speedup is the median
    // of the per-pair throughput ratios.
    let speedup = paired_ratio(
        reps,
        || {
            // Fresh subtree cache per measurement: swap in a fresh model
            // so neither side rides the other's warm cache.
            catalog.install_checkpoint("tenant_a", &ckpt).expect("reset tenant_a");
        },
        || run_sessions(1),
        || run_sessions(4),
    )
    .scaled(4.0);
    let one_rate = plans_per_session as f64 / speedup.best_a;
    let four_rate = (4 * plans_per_session) as f64 / speedup.best_b;
    println!("1 concurrent session(s): {one_rate:>12.1} plans/s");
    println!(
        "4 concurrent session(s): {four_rate:>12.1} plans/s aggregate   ({:.2}x vs 1, paired median; range \
         {:.2}-{:.2}x)",
        speedup.median, speedup.min, speedup.max
    );
    // Every reinstall loads the same checkpoint: the estimates must not move.
    assert_eq!(
        sa.estimate_encoded(&encoded[0]).expect("tenant_a serves"),
        expected_first,
        "concurrent-session estimates diverged across swaps"
    );
    let _ = std::fs::remove_file(&ckpt);

    // --- Extend BENCH_serving.json with the multi_tenant section. ---
    let mut section = String::from("{\n");
    let _ = writeln!(section, "    \"cpus\": {cpus},");
    let _ = writeln!(section, "    \"hot_swap\": {{");
    let _ = writeln!(section, "      \"install_ms\": {:.4},", install_secs * 1e3);
    let _ = writeln!(section, "      \"publish_ms\": {:.4}", publish_best * 1e3);
    let _ = writeln!(section, "    }},");
    let _ = writeln!(section, "    \"isolation\": {{");
    let _ = writeln!(section, "      \"tenant_b_plans_per_sec_alone\": {b_alone_rate:.1},");
    let _ = writeln!(section, "      \"tenant_b_plans_per_sec_during_swaps\": {b_during_rate:.1},");
    let _ = writeln!(section, "      \"throughput_ratio_during_swaps\": {isolation_ratio:.3},");
    let _ = writeln!(section, "      \"live_swaps_performed\": {swaps_done}");
    let _ = writeln!(section, "    }},");
    let _ = writeln!(section, "    \"concurrent_sessions\": [");
    let _ = writeln!(
        section,
        "      {{ \"sessions\": 1, \"aggregate_plans_per_sec\": {one_rate:.1}, \"speedup_vs_1\": 1.000, \
         \"speedup_vs_1_range\": [1.000, 1.000] }},"
    );
    let _ = writeln!(
        section,
        "      {{ \"sessions\": 4, \"aggregate_plans_per_sec\": {four_rate:.1}, \"speedup_vs_1\": {:.3}, \
         \"speedup_vs_1_range\": {} }}",
        speedup.median,
        speedup.range_json()
    );
    let _ = writeln!(section, "    ]");
    section.push_str("  }");

    let out_dir = std::env::var("E2E_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = format!("{out_dir}/BENCH_serving.json");
    merge_multi_tenant_section(&path, &section);
    println!("merged multi_tenant section into {path}");

    if matches!(std::env::var("E2E_CHECK").as_deref(), Ok(v) if !v.is_empty() && v != "0") {
        assert!(
            isolation_ratio >= 0.3,
            "tenant_b throughput ratio {isolation_ratio:.2} during tenant_a hot-swaps below the 0.3 stall floor"
        );
        assert!(swaps_done >= 1, "no live hot-swap completed during tenant_b's measurement window");
        assert!(
            speedup.median >= 1.5,
            "concurrent 4-session speedup {:.2}x (paired median) below the 1.5x floor",
            speedup.median
        );
        println!(
            "check mode: multi-tenant floors hold (isolation >= 0.3, live swaps > 0, 4 concurrent sessions >= 1.5x)"
        );
    }
}

/// Splice the `multi_tenant` section into an existing `BENCH_serving.json`
/// (written by `serving_throughput`), replacing any previous section;
/// writes a standalone object when the file does not exist.
fn merge_multi_tenant_section(path: &str, section: &str) {
    let json = match std::fs::read_to_string(path) {
        Ok(base) => {
            // Drop a previous multi_tenant section (idempotent re-runs),
            // then strip the final closing brace and append.
            let base = match base.find(",\n  \"multi_tenant\":") {
                Some(i) => base[..i].to_string(),
                None => {
                    let trimmed = base.trim_end();
                    let without = trimmed.strip_suffix('}').unwrap_or(trimmed);
                    without.trim_end().to_string()
                }
            };
            format!("{base},\n  \"multi_tenant\": {section}\n}}\n")
        }
        Err(_) => format!("{{\n  \"multi_tenant\": {section}\n}}\n"),
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}
