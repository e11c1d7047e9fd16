//! Smoke-size runs of every workload, untraced and traced: the harness
//! end to end, with every correctness check it makes.

use optbench::setup::{self, Sizes};
use optbench::{spec, RunConfig, Workload};
use std::path::PathBuf;
use std::time::Duration;

fn config(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 3,
        duration: Duration::from_millis(400),
        trace,
        sizes: Sizes::SMOKE,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("optbench-smoke"),
    }
}

#[test]
fn every_workload_runs_correctly_and_reports_every_metric() {
    for workload in Workload::ALL {
        let report = optbench::run(&config(workload, false), &[]);
        assert!(report.correct(), "{}: {} of {} calls failed", workload.name(), report.failed, report.attempted);
        let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (name, value) in &report.metrics {
            assert!(value.is_finite() && *value > 0.0, "{}: {name} = {value}", workload.name());
        }

        let traced = optbench::run(&config(workload, true), &[]);
        assert!(traced.correct(), "{} traced: {} failed", workload.name(), traced.failed);
        let names: Vec<&str> = traced.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        assert!(traced.metrics.iter().all(|(_, v)| v.is_finite()), "{}: {:?}", workload.name(), traced.metrics);
        assert!(traced.metric("bench.check_calls").is_some_and(|c| c >= 1.0), "{}: no oracle check", workload.name());
        // Per-layer self times account for the traced calls' wall time.
        let coverage = traced.metric("bench.span_coverage").expect("coverage");
        assert!((0.9..=1.0).contains(&coverage), "{}: span coverage {coverage}", workload.name());
    }
}

#[test]
fn the_seed_changes_the_queries_but_not_the_model() {
    let db = imdb::generate_imdb(imdb::GeneratorConfig::tiny());
    let signatures = |seed| -> Vec<u64> {
        setup::candidate_sets(&db, seed, 6, 3).iter().flatten().map(query::PlanNode::signature_hash).collect()
    };
    assert_eq!(signatures(5), signatures(5), "the same seed must give the same queries");
    assert_ne!(signatures(5), signatures(6), "another seed must give other queries");

    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("optbench-seed");
    let a = setup::prepare(Workload::DpHot, 5, &Sizes::SMOKE, &out_dir);
    let b = setup::prepare(Workload::DpHot, 6, &Sizes::SMOKE, &out_dir);
    assert_eq!(a.quality, b.quality, "every seed serves the same model");
}
