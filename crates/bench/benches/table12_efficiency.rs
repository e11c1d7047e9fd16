//! Table 12 — estimation efficiency (milliseconds per query) on the JOB
//! workload: the traditional estimator, MSCN, and the tree models with and
//! without level-wise batched inference.
//!
//! Run with `cargo bench -p bench --bench table12_efficiency`.  Besides the
//! printed table, the harness writes `BENCH_table12.json` (into
//! `E2E_BENCH_OUT` or the current directory) recording plans/sec for each
//! path plus, per tree model, the headline speed-up `batch_vs_per_node` —
//! level-batched vs. one-plan-at-a-time inference (the paper's Table-12
//! comparison), both on the inference tape, as the median of at least five
//! interleaved per-node/batch pairs with the pairs' range beside it
//! ([`bench::paired_ratio`]) — and the batch row's mean cardinality
//! q-error (`mean_qerr`).
//!
//! The harness runs at full database scale by default (`E2E_SCALE=1`):
//! ground truth goes through the counting executor, which never
//! materializes join tuples, so skewed star joins no longer force a scale
//! cap.  With `E2E_CHECK` set, the harness additionally asserts the
//! regression floor (paired-median `batch_vs_per_node >= 5`) and exits
//! non-zero when it is violated — the mode CI's full-scale smoke job runs
//! in.

use bench::{paired_ratio, time_reps, Pipeline};
use estimator_core::{PredicateModelKind, RepresentationCellKind, TaskMode};
use mscn::{MscnConfig, MscnFeaturizer, MscnModel, MscnTrainer};
use pgest::TraditionalEstimator;
use std::fmt::Write as _;
use strembed::StringEncoding;
use workloads::WorkloadKind;

struct Row {
    label: String,
    ms_per_query: f64,
    plans_per_sec: f64,
}

fn report(rows: &mut Vec<Row>, label: &str, total_secs: f64, queries: usize) {
    let ms_per_query = total_secs * 1e3 / queries as f64;
    let plans_per_sec = queries as f64 / total_secs;
    println!("{label:<18} {ms_per_query:>10.3} ms/query {plans_per_sec:>12.1} plans/s   ({queries} queries)");
    rows.push(Row { label: label.to_string(), ms_per_query, plans_per_sec });
}

fn main() {
    // Table 12 measures batched estimation over the whole JOB workload, so
    // give the batch something to amortize over: a larger test set (without
    // growing the database or the training set above the default scale).
    if std::env::var("E2E_TEST_QUERIES").is_err() {
        std::env::set_var("E2E_TEST_QUERIES", "60");
    }
    let pipeline = Pipeline::new();
    let suite = pipeline.suite(WorkloadKind::JobStrings);
    let n = suite.test.len();
    let reps: usize = std::env::var("E2E_BENCH_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(3).max(1);
    println!("== Table 12 — estimation efficiency ({n} queries, {reps} reps) ==");
    let mut rows: Vec<Row> = Vec::new();

    // PostgreSQL-style estimator.
    let pg = TraditionalEstimator::analyze(&pipeline.db);
    let secs = time_reps(
        reps,
        || (),
        || {
            for s in &suite.test {
                let mut plan = s.plan.clone();
                pg.estimate_plan(&mut plan);
            }
        },
    );
    report(&mut rows, "PostgreSQL", secs, n);

    // MSCN: per-query estimation (including featurization, as an optimizer
    // would pay it) vs. packed batch inference — every set element of every
    // query goes through one blocked matmul per layer (`estimate_batch`).
    let fx = MscnFeaturizer::new(pipeline.db.clone(), pipeline.enc_config.clone());
    let train: Vec<_> = suite.train.iter().map(|s| fx.featurize(&s.plan)).collect();
    let test: Vec<_> = suite.test.iter().map(|s| fx.featurize(&s.plan)).collect();
    let model = MscnModel::new(
        fx.table_dim(),
        fx.join_dim(),
        fx.predicate_dim(),
        MscnConfig { epochs: 2, ..Default::default() },
    );
    let mut mscn = MscnTrainer::new(model, &train);
    mscn.train(&train);
    let secs = time_reps(
        reps,
        || (),
        || {
            for s in &suite.test {
                let sets = fx.featurize(&s.plan);
                mscn.estimate(&sets);
            }
        },
    );
    report(&mut rows, "MSCN", secs, n);
    let secs = time_reps(
        reps,
        || (),
        || {
            mscn.estimate_batch(&test);
        },
    );
    report(&mut rows, "MSCNBatch", secs, n);

    // Tree models: TLSTM and TPool — two paths each, returning the same
    // bits:
    //   <label>         per-node recursion, one plan at a time
    //   <label>Batch    level-batched forward
    let truths: Vec<f64> = suite.test.iter().map(|s| s.true_cardinality()).collect();
    let mut speedups = String::new();
    let mut floor_checks: Vec<(String, f64)> = Vec::new();
    for (label, predicate) in [("TLSTM", PredicateModelKind::TreeLstm), ("TPool", PredicateModelKind::MinMaxPool)] {
        let (est, test_encoded) = pipeline.train_tree_model(
            &suite,
            RepresentationCellKind::Lstm,
            predicate,
            TaskMode::Multitask,
            Some(StringEncoding::EmbedRule),
            true,
        );
        // Per-node and batched passes timed as interleaved pairs: the rows
        // report each side's best pass, the floor gates the median ratio.
        let vs_per_node = paired_ratio(
            reps,
            || (),
            || {
                for plan in &test_encoded {
                    est.estimate_encoded(plan);
                }
            },
            || {
                est.estimate_encoded_batch(&test_encoded);
            },
        );
        report(&mut rows, label, vs_per_node.best_a, n);
        report(&mut rows, &format!("{label}Batch"), vs_per_node.best_b, n);
        let errs: Vec<f64> = est
            .estimate_encoded_batch(&test_encoded)
            .iter()
            .zip(&truths)
            .filter(|(_, &t)| t > 0.0)
            .map(|(&(_, card), &t)| metrics::q_error(card, t))
            .collect();
        let mean_qerr = errs.iter().sum::<f64>() / errs.len().max(1) as f64;

        floor_checks.push((label.to_string(), vs_per_node.median));
        println!(
            "{label}: batch is {:.1}x per-node (paired median; range {:.1}-{:.1}x)",
            vs_per_node.median, vs_per_node.min, vs_per_node.max
        );
        if !speedups.is_empty() {
            speedups.push(',');
        }
        let _ = write!(
            speedups,
            "\n    \"{}\": {{ \"batch_vs_per_node\": {:.3}, \"batch_vs_per_node_range\": {}, \
             \"mean_qerr\": {:.4} }}",
            label.to_lowercase(),
            vs_per_node.median,
            vs_per_node.range_json(),
            mean_qerr
        );
    }

    // Emit the machine-readable trajectory record.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"table12_efficiency\",");
    let _ = writeln!(json, "  \"host\": {},", bench::host_capabilities_json());
    let _ = writeln!(json, "  \"queries\": {n},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"estimator\": \"{}\", \"ms_per_query\": {:.6}, \"plans_per_sec\": {:.1} }}{comma}",
            r.label, r.ms_per_query, r.plans_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{{speedups}\n  }}");
    json.push_str("}\n");

    let out_dir = std::env::var("E2E_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = format!("{out_dir}/BENCH_table12.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");

    // Check mode (CI smoke): fail loudly when the recorded regression
    // floor is violated, so the scale cap can never silently return.
    if matches!(std::env::var("E2E_CHECK").as_deref(), Ok(v) if !v.is_empty() && v != "0") {
        for (label, vs_per_node) in &floor_checks {
            assert!(*vs_per_node >= 5.0, "{label}: batch_vs_per_node {vs_per_node:.2}x below the 5x regression floor");
        }
        println!("check mode: speed-up floor holds (batch_vs_per_node >= 5x)");
    }
}
