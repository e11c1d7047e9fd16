//! Closed-loop benchmark of the estimator as an optimizer calls it.
//!
//! An optimizer thread blocks on every estimate through the public serving
//! front door (`ModelCatalog` → `Session`).  Four workloads put a different
//! layer on the critical path each; see [`spec::WORKLOADS`] for why each
//! exists and `README.md` for the metrics and how to run them.

pub mod compare;
pub mod json;
pub mod serve;
pub mod setup;
pub mod spec;
pub mod stats;
pub mod trace;

use serve::PhaseLog;
use setup::{Prepared, Sizes};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DpHot,
    DpChurn,
    PlanAtATime,
    DriftRefresh,
}

impl Workload {
    pub const ALL: [Workload; 4] = [Workload::DpHot, Workload::DpChurn, Workload::PlanAtATime, Workload::DriftRefresh];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub duration: Duration,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for checkpoints and span files.
    pub out_dir: PathBuf,
}

/// The outcome of one run: calls attempted and failed, and every metric of
/// the mode the run was in (end-to-end untraced, per-layer traced).
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines printed for reading only: `(name, value, unit)`.
    pub diagnostics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 * 1e-3
}

/// Set the workload up once and return how long it took: a repetition
/// for `setup_s`, run in a process of its own so that what it leaves behind
/// (the inference tapes are process-wide) cannot weigh on the measured run.
pub fn time_setup(config: &RunConfig) -> f64 {
    std::fs::create_dir_all(&config.out_dir).expect("create the scratch directory");
    let start = Instant::now();
    let prepared = setup::prepare(config.workload, config.seed, &config.sizes, &config.out_dir);
    let secs = start.elapsed().as_secs_f64();
    drop(prepared);
    secs
}

/// Set the workload up and serve it: the whole run untraced, or half
/// untraced (the base the tracing overhead is measured against) and half
/// traced.  `setup_s` is the median of this set-up and `earlier_setups`.
pub fn run(config: &RunConfig, earlier_setups: &[f64]) -> Report {
    std::fs::create_dir_all(&config.out_dir).expect("create the scratch directory");
    let start = Instant::now();
    let mut prepared = setup::prepare(config.workload, config.seed, &config.sizes, &config.out_dir);
    let mut setup_secs = earlier_setups.to_vec();
    setup_secs.push(start.elapsed().as_secs_f64());
    serve::release_free_memory();
    let rss_after_setup = serve::rss_mb().0;

    let (base, traced) = if config.trace {
        let base = serve::serve(&mut prepared, config.duration / 2, false);
        let traced = serve::serve(&mut prepared, config.duration / 2, true);
        (base, Some(traced))
    } else {
        (serve::serve(&mut prepared, config.duration, false), None)
    };
    let attempted = base.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let failed = base.failed + traced.as_ref().map_or(0, |t| t.failed);

    let latencies = base.sorted_latencies();
    let mut diagnostics = vec![("call_samples".to_string(), latencies.len() as f64, "count")];
    if let Some(p) = stats::highest_supported_percentile(latencies.len()) {
        diagnostics.push((format!("all_calls_p{p}_us"), us(stats::nearest_rank(&latencies, p)), "us"));
    }
    let metrics = match &traced {
        None => {
            if !base.ticks.is_empty() {
                let refreshes = base.ticks.iter().filter(|(_, refreshed)| *refreshed).count();
                diagnostics.push(("refresh_ticks".to_string(), base.ticks.len() as f64, "count"));
                diagnostics.push(("refreshes".to_string(), refreshes as f64, "count"));
            }
            end_to_end(&prepared, &base, stats::median(&setup_secs), rss_after_setup)
        }
        Some(traced) => {
            let (span_file, written) = write_spans(config, traced);
            eprintln!("spans written to {}", span_file.display());
            diagnostics.push(("spans_written".to_string(), written as f64, "count"));
            per_layer(&prepared, &base, traced, &latencies, rss_after_setup)
        }
    };
    Report { attempted, failed, metrics, diagnostics }
}

fn write_spans(config: &RunConfig, traced: &PhaseLog) -> (PathBuf, usize) {
    let path = config.out_dir.join(format!("spans-{}.jsonl", config.workload.name()));
    trace::write_jsonl(&path, &traced.spans).expect("write the span file");
    (path, traced.spans.len())
}

/// Plans the memory projection of [`end_to_end`] is stated at.
const RSS_PROJECTION_PLANS: f64 = 1e6;

fn end_to_end(prepared: &Prepared, log: &PhaseLog, setup_s: f64, rss_after_setup: f64) -> Vec<(&'static str, f64)> {
    let q = prepared.quality;
    let steady = log.steady();
    // Serving memory grows with the plans served, so a peak over a fixed
    // time would rise with throughput; the growth is stated per plan
    // instead, at a fixed amount of traffic.
    vec![
        ("plans_per_s", steady.plans_per_s),
        ("call_p50_us", steady.p50_ns * 1e-3),
        ("call_p99_us", steady.p99_ns * 1e-3),
        ("setup_s", setup_s),
        ("rss_at_1m_plans_mb", rss_after_setup + log.rss_growth_mb_per_plan * RSS_PROJECTION_PLANS),
        ("qerror_cost_p50", q.cost_p50),
        ("qerror_cost_p90", q.cost_p90),
        ("qerror_card_p50", q.card_p50),
        ("qerror_card_p90", q.card_p90),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    ratio_f(num as f64, den as f64)
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(
    prepared: &Prepared,
    base: &PhaseLog,
    traced: &PhaseLog,
    base_latencies: &[u64],
    rss_after_setup: f64,
) -> Vec<(&'static str, f64)> {
    let self_s = trace::self_seconds_by_name(&traced.spans);
    let span_s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let per_plan_us = |secs: f64| if traced.plans == 0 { 0.0 } else { secs * 1e6 / traced.plans as f64 };
    // Counters come from the untraced phase, whose calls are exactly the
    // workload's; the traced phase also repeats sampled calls untraced.
    let c = &base.counters;
    // Refresh ticks and served q-errors are not timed by spans: both phases
    // contribute.
    let ticks: Vec<&(Duration, bool)> = base.ticks.iter().chain(&traced.ticks).collect();
    let refresh_ms: Vec<f64> =
        ticks.iter().filter(|(_, refreshed)| *refreshed).map(|(d, _)| d.as_secs_f64() * 1e3).collect();
    let served_qerrors: Vec<f64> = base.served_qerrors.iter().chain(&traced.served_qerrors).copied().collect();
    let window = match &prepared.traffic {
        setup::Traffic::Drift(drift) => Some(drift.controller.window()),
        _ => None,
    };
    let call_tree_s: f64 = self_s.iter().filter(|(name, _)| **name != "serving.refresh_tick").map(|(_, s)| s).sum();
    let call_wall_s = traced.calls.iter().map(|c| c.ns).sum::<u64>() as f64 * 1e-9;
    let p999 = if stats::highest_supported_percentile(base_latencies.len()).is_some_and(|p| p >= 99.9) {
        us(stats::nearest_rank(base_latencies, 99.9))
    } else {
        0.0
    };
    let times = prepared.times;
    let generation = prepared.catalog.current(setup::TENANT).map_or(0, |m| m.generation());
    vec![
        ("imdb.generate_s", times.imdb_generate),
        ("workloads.generate_s", times.workloads_generate),
        ("featurize.encode_self_s", span_s("featurize.encode")),
        ("featurize.encode_us_per_plan", per_plan_us(span_s("featurize.encode"))),
        ("featurize.encode_cache_hit_rate", ratio(c.encode_hits, c.encode_hits + c.encode_misses)),
        ("featurize.encode_cache_entries", c.encode_entries as f64),
        ("featurize.bitmap_memo_hit_rate", ratio(c.bitmap_hits, c.bitmap_hits + c.bitmap_misses)),
        ("core.fit_s", times.fit),
        ("core.estimate_self_s", span_s("core.estimate")),
        ("core.estimate_us_per_plan", per_plan_us(span_s("core.estimate"))),
        ("core.subtree_node_hit_rate", ratio(c.nodes_seen.saturating_sub(c.nodes_computed), c.nodes_seen)),
        ("core.subtree_cache_entries", c.subtree_entries as f64),
        ("core.nodes_computed", c.nodes_computed as f64),
        ("serving.publish_s", times.publish),
        ("serving.call_self_s", span_s("serving.call")),
        ("serving.pin_self_s", span_s("serving.pin")),
        ("serving.encode_batch_self_s", span_s("serving.encode_batch")),
        ("serving.estimate_encoded_self_s", span_s("serving.estimate_encoded")),
        // Wave counters restart with every hot-swap: without one, waves and
        // plans cover the same calls.
        ("serving.plans_per_wave", if c.swapped { 0.0 } else { ratio(base.plans, c.waves) }),
        ("serving.refresh_ticks", ticks.len() as f64),
        ("serving.refreshes", refresh_ms.len() as f64),
        ("serving.refresh_tick_self_s", span_s("serving.refresh_tick")),
        ("serving.refresh_p50_ms", if refresh_ms.is_empty() { 0.0 } else { stats::median(&refresh_ms) }),
        ("serving.final_generation", generation as f64),
        ("serving.feedback_recorded", c.feedback_recorded as f64),
        ("serving.feedback_overwritten", c.feedback_overwritten as f64),
        ("metrics.qerror_window_mean", window.and_then(|w| w.mean()).unwrap_or(0.0)),
        ("metrics.qerror_window_baseline", window.and_then(|w| w.baseline()).unwrap_or(0.0)),
        ("metrics.served_qerror_card_p50", metrics::ErrorSummary::percentile_of(&served_qerrors, 0.5)),
        ("bench.rss_after_setup_mb", rss_after_setup),
        ("bench.peak_rss_mb", serve::rss_mb().1),
        ("bench.call_samples", base_latencies.len() as f64),
        ("bench.call_p999_us", p999),
        ("bench.check_calls", (base.checks + traced.checks) as f64),
        ("bench.check_skipped", (base.skipped + traced.skipped) as f64),
        ("bench.span_coverage", if call_wall_s > 0.0 { call_tree_s / call_wall_s } else { 0.0 }),
        ("bench.trace_overhead_frac", 1.0 - ratio_f(traced.steady().plans_per_s, base.steady().plans_per_s)),
    ]
}
