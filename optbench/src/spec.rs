//! The benchmark's contract: its workloads and its metrics, with units,
//! directions and regression bounds.  `BENCHMARK.json` at the repository root
//! mirrors these tables; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.  `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change is a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// The four closed-loop workloads, in run order, with why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "dp_hot",
        "256 recurring 4-join DP queries that fit every cache: memo lookups, flatten/dedup and heads dominate, GEMM barely matters",
    ),
    (
        "dp_churn",
        "8000 distinct DP queries, more subtrees than any cache holds: fresh featurization, cell sweeps and eviction dominate",
    ),
    (
        "plan_at_a_time",
        "one plan per call: the per-call fixed cost of encode, tenant pin, shard locks and the aggregator wave dominates",
    ),
    (
        "drift_refresh",
        "drifting executed traffic with feedback on while a refresh thread fine-tunes and hot-swaps: reads beside writes",
    ),
];

/// Metrics a user of the estimator sees, reported by every workload with
/// tracing off.  Every value is positive on every workload.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("plans_per_s", "1/s", Better::Higher, 0.25),
    e2e("call_p50_us", "us", Better::Lower, 0.25),
    e2e("call_p99_us", "us", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("rss_at_1m_plans_mb", "MB", Better::Lower, 0.25),
    e2e("qerror_cost_p50", "ratio", Better::Lower, 0.02),
    e2e("qerror_cost_p90", "ratio", Better::Lower, 0.02),
    e2e("qerror_card_p50", "ratio", Better::Lower, 0.02),
    e2e("qerror_card_p90", "ratio", Better::Lower, 0.02),
];

/// Per-layer metrics, reported by every workload with tracing on (zero
/// where a workload does not exercise the layer).  Layers are named after
/// the repository's crates; `bench.*` describes the harness itself.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("imdb.generate_s", "s", Better::Lower),
    layer("workloads.generate_s", "s", Better::Lower),
    layer("featurize.encode_self_s", "s", Better::Lower),
    layer("featurize.encode_us_per_plan", "us", Better::Lower),
    layer("featurize.encode_cache_hit_rate", "ratio", Better::Higher),
    layer("featurize.encode_cache_entries", "count", Better::Higher),
    layer("featurize.bitmap_memo_hit_rate", "ratio", Better::Higher),
    layer("core.fit_s", "s", Better::Lower),
    layer("core.estimate_self_s", "s", Better::Lower),
    layer("core.estimate_us_per_plan", "us", Better::Lower),
    layer("core.subtree_node_hit_rate", "ratio", Better::Higher),
    layer("core.subtree_cache_entries", "count", Better::Higher),
    layer("core.nodes_computed", "count", Better::Lower),
    layer("serving.publish_s", "s", Better::Lower),
    layer("serving.call_self_s", "s", Better::Lower),
    layer("serving.pin_self_s", "s", Better::Lower),
    layer("serving.encode_batch_self_s", "s", Better::Lower),
    layer("serving.estimate_encoded_self_s", "s", Better::Lower),
    layer("serving.plans_per_wave", "count", Better::Higher),
    layer("serving.refresh_ticks", "count", Better::Higher),
    layer("serving.refreshes", "count", Better::Lower),
    layer("serving.refresh_tick_self_s", "s", Better::Lower),
    layer("serving.refresh_p50_ms", "ms", Better::Lower),
    layer("serving.final_generation", "count", Better::Lower),
    layer("serving.feedback_recorded", "count", Better::Higher),
    layer("serving.feedback_overwritten", "count", Better::Lower),
    layer("metrics.qerror_window_mean", "ratio", Better::Lower),
    layer("metrics.qerror_window_baseline", "ratio", Better::Lower),
    layer("metrics.served_qerror_card_p50", "ratio", Better::Lower),
    layer("bench.rss_after_setup_mb", "MB", Better::Lower),
    layer("bench.peak_rss_mb", "MB", Better::Lower),
    layer("bench.call_samples", "count", Better::Higher),
    layer("bench.call_p999_us", "us", Better::Lower),
    layer("bench.check_calls", "count", Better::Higher),
    layer("bench.check_skipped", "count", Better::Lower),
    layer("bench.span_coverage", "ratio", Better::Higher),
    layer("bench.trace_overhead_frac", "ratio", Better::Lower),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .expect("array")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("name").into())
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").expect("workloads");
        assert_eq!(names(workloads), WORKLOADS.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>());
        for (entry, (_, why)) in workloads.as_array().expect("array").iter().zip(WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(*why));
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let list = doc.get(key).expect(key);
            assert_eq!(names(list), table.iter().map(|m| m.name.to_string()).collect::<Vec<_>>(), "{key} names");
            for (entry, spec) in list.as_array().expect("array").iter().zip(table) {
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit), "{} unit", spec.name);
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(spec.better.as_str()), "{}", spec.name);
                assert_eq!(entry.get("bound").and_then(Json::as_f64), spec.bound, "{} bound", spec.name);
            }
        }
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut seen = std::collections::HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(*name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name} why");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16 && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = find("setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    }
}
