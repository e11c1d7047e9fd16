//! Shared experiment pipeline for the reproduction benchmarks.
//!
//! Every bench binary (one per table/figure of the paper) drives the same
//! pipeline: generate the synthetic IMDB database, build a workload suite,
//! train the competing estimators and print the paper's rows.  Scale is
//! controlled by the `E2E_SCALE` (database size multiplier), `E2E_QUERIES`
//! (training queries) and `E2E_EPOCHS` environment variables so the same
//! harness can run as a quick smoke test or a longer, closer-to-paper run.
//! Ground-truth labeling uses the counting executor (no join-tuple
//! materialization), so the default `E2E_SCALE=1` is safe even for the
//! skewed 4-way star joins of the JOB-style workloads.

use engine::CostModel;
use estimator_core::{CostEstimator, ModelConfig, PredicateModelKind, RepresentationCellKind, TaskMode, TrainConfig};
use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, Database, GeneratorConfig};
use std::sync::Arc;
use strembed::{build_string_encoder, EmbedderConfig, HashBitmapEncoder, StringEncoding};
use workloads::{workload_strings, QuerySample, SuiteConfig, WorkloadKind, WorkloadSuite};

pub mod registry;

pub use registry::{run_backend, BackendRun, EstimatorRegistry};

/// Best-of-`reps` wall time of `f`: one untimed warmup call first (page
/// cache, tape buffer pools), then the fastest of `reps` timed repetitions —
/// the standard anti-noise estimator on a shared machine.  `before` runs
/// ahead of every call, outside the timed region, to reset shared state
/// (pass `|| ()` when there is none).
pub fn time_reps(reps: usize, mut before: impl FnMut(), mut f: impl FnMut()) -> f64 {
    before();
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        before();
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The fewest interleaved pairs [`paired_ratio`] times, whatever `reps`
/// asks for: a median of five pairs no longer rests on one draw.
pub const MIN_PAIRS: usize = 5;

/// Per-pair time ratios of two workloads, from [`paired_ratio`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedRatio {
    /// Median over pairs of `secs(a) / secs(b)`: the statistic a floor
    /// gates.
    pub median: f64,
    /// Smallest per-pair ratio.
    pub min: f64,
    /// Largest per-pair ratio.
    pub max: f64,
    /// Fastest timed call of `a`.
    pub best_a: f64,
    /// Fastest timed call of `b`.
    pub best_b: f64,
}

impl PairedRatio {
    /// The ratios multiplied by `k` (e.g. a per-call work ratio, to turn
    /// a time ratio into a throughput ratio); the best times are kept.
    pub fn scaled(self, k: f64) -> Self {
        PairedRatio { median: self.median * k, min: self.min * k, max: self.max * k, ..self }
    }

    /// `[min, max]` as a JSON array.
    pub fn range_json(&self) -> String {
        format!("[{:.3}, {:.3}]", self.min, self.max)
    }
}

/// Time `a` against `b` as interleaved pairs and summarize the per-pair
/// ratios `secs(a) / secs(b)`.
///
/// A ratio of two best-of-reps timings divides measurements taken at
/// different moments, so host noise on either side moves it; each pair here
/// times both sides back to back, alternating which goes first, and the
/// median over `max(reps, MIN_PAIRS)` pairs is what a floor should gate.
/// Every timed call follows an untimed call of the same side, so each side
/// is timed in its own warm state (its tape pool sized for its own shapes),
/// not in the state the other side left; `before` runs ahead of every call,
/// outside the timed region, to reset shared state.
pub fn paired_ratio(reps: usize, mut before: impl FnMut(), mut a: impl FnMut(), mut b: impl FnMut()) -> PairedRatio {
    let mut timed = |f: &mut dyn FnMut()| {
        before();
        f();
        before();
        let start = std::time::Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let pairs = reps.max(MIN_PAIRS);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (secs_a, secs_b) = if i % 2 == 0 {
            let secs_a = timed(&mut a);
            (secs_a, timed(&mut b))
        } else {
            let secs_b = timed(&mut b);
            (timed(&mut a), secs_b)
        };
        best_a = best_a.min(secs_a);
        best_b = best_b.min(secs_b);
        ratios.push(secs_a / secs_b);
    }
    ratios.sort_by(f64::total_cmp);
    let mid = pairs / 2;
    let median = if pairs % 2 == 1 { ratios[mid] } else { 0.5 * (ratios[mid - 1] + ratios[mid]) };
    PairedRatio { median, min: ratios[0], max: ratios[pairs - 1], best_a, best_b }
}

/// Host capability metadata as a single-line JSON object — logical cpus,
/// the raw runtime-detected SIMD feature set, and the **active dispatch
/// tier**: `"simd_dispatch"` names what `nn::simd` actually selected for
/// this process (`"avx2+fma"` for the f32 GEMM/gate kernels, `"scalar"`
/// under `E2E_FORCE_SCALAR`), which is what governs the recorded numbers —
/// `target_features` may list capabilities (e.g. `avx512f`) that no kernel
/// here dispatches on.  Every bench harness embeds this in its
/// `BENCH_*.json` so recorded numbers carry the hardware they came from.
pub fn host_capabilities_json() -> String {
    let cpus = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    #[allow(unused_mut)]
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
    }
    let features = features.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", ");
    format!(
        "{{ \"cpus\": {cpus}, \"arch\": \"{}\", \"target_features\": [{features}], \
         \"simd_dispatch\": {{ \"f32\": \"{}\" }} }}",
        std::env::consts::ARCH,
        nn::simd::f32_path_name()
    )
}

/// Experiment scale knobs (read from the environment with small defaults).
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    pub n_titles: usize,
    pub train_queries: usize,
    pub test_queries: usize,
    pub epochs: usize,
}

impl BenchScale {
    /// Read the scale from `E2E_SCALE` / `E2E_QUERIES` / `E2E_TEST_QUERIES`
    /// / `E2E_EPOCHS`.
    pub fn from_env() -> Self {
        let scale: f64 = std::env::var("E2E_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
        let train_queries =
            std::env::var("E2E_QUERIES").ok().and_then(|s| s.parse().ok()).unwrap_or((120.0 * scale) as usize);
        let test_queries = std::env::var("E2E_TEST_QUERIES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or((train_queries / 4).clamp(20, 200));
        let epochs = std::env::var("E2E_EPOCHS").ok().and_then(|s| s.parse().ok()).unwrap_or(5);
        BenchScale { n_titles: (2000.0 * scale) as usize, train_queries: train_queries.max(40), test_queries, epochs }
    }
}

/// One experiment environment: database, feature configuration, workloads.
pub struct Pipeline {
    pub db: Arc<Database>,
    pub scale: BenchScale,
    pub enc_config: EncodingConfig,
}

impl Pipeline {
    /// Build the database and encoding configuration at the current scale.
    pub fn new() -> Self {
        let scale = BenchScale::from_env();
        let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: scale.n_titles, sample_size: 128, seed: 42 }));
        let enc_config = EncodingConfig::from_database(&db, 16, 128);
        Pipeline { db, scale, enc_config }
    }

    /// Build a workload suite of the given kind.
    pub fn suite(&self, kind: WorkloadKind) -> WorkloadSuite {
        WorkloadSuite::build(
            &self.db,
            kind,
            SuiteConfig { train_queries: self.scale.train_queries, test_queries: self.scale.test_queries, seed: 1000 },
        )
    }

    /// Construct a feature extractor with the requested string encoding.
    pub fn extractor(
        &self,
        encoding: Option<StringEncoding>,
        workload: &[QuerySample],
        use_samples: bool,
    ) -> FeatureExtractor {
        let string_encoder: Arc<dyn strembed::StringEncoder> = match encoding {
            None => Arc::new(HashBitmapEncoder::new(16)),
            Some(kind) => {
                let strings = workload_strings(workload);
                build_string_encoder(
                    &self.db,
                    &strings,
                    kind,
                    EmbedderConfig { dim: 16, max_rows_per_table: 300, epochs: 2, ..Default::default() },
                )
            }
        };
        let mut fx = FeatureExtractor::new(self.db.clone(), self.enc_config.clone(), string_encoder);
        fx.use_sample_bitmap = use_samples;
        fx
    }

    /// Build an **unfitted** tree-model estimator variant at the standard
    /// bench hyper-parameters (the registry's tree builders and the serving
    /// bench both start here).
    pub fn tree_estimator(
        &self,
        workload: &[QuerySample],
        cell: RepresentationCellKind,
        predicate: PredicateModelKind,
        task: TaskMode,
        encoding: Option<StringEncoding>,
        use_samples: bool,
    ) -> CostEstimator {
        let fx = self.extractor(encoding, workload, use_samples);
        let model_config = ModelConfig {
            cell,
            predicate,
            task,
            feature_embed_dim: 16,
            hidden_dim: 32,
            estimation_hidden_dim: 16,
            ..Default::default()
        };
        let train_config = TrainConfig {
            epochs: self.scale.epochs,
            batch_size: 16,
            learning_rate: 0.003,
            validation_fraction: 0.1,
            early_stop_patience: None,
            seed: 7,
        };
        CostEstimator::new(fx, model_config, train_config)
    }

    /// Train a tree model variant and return its fitted estimator plus the
    /// encoded test plans.
    pub fn train_tree_model(
        &self,
        suite: &WorkloadSuite,
        cell: RepresentationCellKind,
        predicate: PredicateModelKind,
        task: TaskMode,
        encoding: Option<StringEncoding>,
        use_samples: bool,
    ) -> (CostEstimator, Vec<EncodedPlan>) {
        let mut estimator = self.tree_estimator(&suite.train, cell, predicate, task, encoding, use_samples);
        let train_plans: Vec<_> = suite.train.iter().map(|s| s.plan.clone()).collect();
        estimator.fit(&train_plans);
        let test_encoded: Vec<EncodedPlan> = suite.test.iter().map(|s| estimator.encode(&s.plan)).collect();
        (estimator, test_encoded)
    }

    /// The cost model used for ground truth (exposed for efficiency benches).
    pub fn cost_model(&self) -> CostModel {
        CostModel::default()
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_capabilities_json_names_the_dispatch_path_per_kernel_family() {
        let json = host_capabilities_json();
        assert!(json.contains("\"cpus\":"), "missing cpus: {json}");
        assert!(json.contains("\"target_features\":"), "missing features: {json}");
        assert!(
            json.contains("\"f32\": \"avx2+fma\"") || json.contains("\"f32\": \"scalar\""),
            "missing f32 dispatch tier: {json}"
        );
        assert!(
            json.contains(&format!("\"simd_dispatch\": {{ \"f32\": \"{}\" }}", nn::simd::f32_path_name())),
            "simd_dispatch must name the active f32 tier and nothing else: {json}"
        );
    }

    #[test]
    fn paired_ratio_times_at_least_five_interleaved_pairs() {
        use std::cell::RefCell;
        let order = RefCell::new(String::new());
        let r = paired_ratio(
            2,
            || (),
            || {
                order.borrow_mut().push('a');
                std::thread::sleep(std::time::Duration::from_millis(4));
            },
            || {
                order.borrow_mut().push('b');
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
        );
        // Five pairs alternating which side goes first, each timed call
        // after an untimed one of the same side.
        assert_eq!(order.into_inner(), "aabbbbaaaabbbbaaaabb");
        assert!(r.min <= r.median && r.median <= r.max, "{r:?}");
        assert!(r.median > 1.0, "a sleeps longer than b: {r:?}");
        assert!(r.best_a >= 0.004 && r.best_b >= 0.001, "{r:?}");
        let doubled = r.scaled(2.0);
        assert_eq!((doubled.median, doubled.min, doubled.max), (2.0 * r.median, 2.0 * r.min, 2.0 * r.max));
        assert_eq!(doubled.best_a, r.best_a);
    }

    #[test]
    fn scale_env_defaults_are_sane() {
        let s = BenchScale::from_env();
        assert!(s.n_titles >= 500);
        assert!(s.train_queries >= 40);
        assert!(s.test_queries >= 20);
        assert!(s.epochs >= 1);
    }
}
