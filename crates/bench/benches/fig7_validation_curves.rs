//! Figure 7 — validation error per training episode on the numeric workload:
//! (a) cardinality, with and without the sample bitmap; (b) cost, single-task
//! vs multitask.
//!
//! The curves are the per-epoch statistics the registry loop returns from
//! the shared `Estimator::fit_plans`.
use bench::{run_backend, EstimatorRegistry, Pipeline};
use workloads::WorkloadKind;

fn main() {
    let pipeline = Pipeline::new();
    let registry = EstimatorRegistry::standard();
    let suite = pipeline.suite(WorkloadKind::Synthetic);

    println!("== Figure 7(a) — cardinality validation error per episode ==");
    for (label, backend) in [("TLSTMCard", "TLSTMCard"), ("TLSTMNSCard", "TLSTMNSCard")] {
        let run = run_backend(&registry, backend, &pipeline, &suite);
        let series: Vec<String> = run.epochs.iter().map(|s| format!("{:.2}", s.validation_card_qerror_mean)).collect();
        println!("{label:<14} episodes: [{}]", series.join(", "));
    }

    println!("\n== Figure 7(b) — cost validation error per episode ==");
    for (label, backend) in [("TLSTMCost", "TLSTMCost"), ("TLSTMMCost", "TLSTMM")] {
        let run = run_backend(&registry, backend, &pipeline, &suite);
        let series: Vec<String> = run.epochs.iter().map(|s| format!("{:.2}", s.validation_cost_qerror_mean)).collect();
        println!("{label:<14} episodes: [{}]", series.join(", "));
    }
}
