//! The hot-swappable model catalog and tenant-scoped sessions.

use crate::feedback::{FeedbackConfig, TenantFeedback};
use estimator_core::{CheckpointError, CostEstimator, Estimator, PlanEstimate, ServingEstimator};
use featurize::EncodedPlan;
use query::PlanNode;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// One catalog entry's backend: the paper's tree estimator, which brings
/// the encoded fast path and the owned serving handle.
pub struct TenantBackend(CostEstimator);

impl TenantBackend {
    /// Wrap a tree estimator.
    pub fn tree(estimator: CostEstimator) -> Self {
        TenantBackend(estimator)
    }
}

/// One immutable published model: the tree estimator, its generation number
/// and — once fitted — the owned serving handle minted at publish time.
/// Sessions pin an `Arc<TenantModel>` per call; a
/// hot-swap replaces the tenant's slot with a new `TenantModel` and never
/// mutates this one, so an in-flight batch completes on exactly the weights
/// and caches it started with.
pub struct TenantModel {
    tree: CostEstimator,
    generation: u64,
    aggregator: Option<BatchAggregator>,
}

impl TenantModel {
    fn new(TenantBackend(tree): TenantBackend, generation: u64) -> Self {
        let aggregator = tree.is_fitted().then(|| BatchAggregator::new(tree.serving()));
        TenantModel { tree, generation, aggregator }
    }

    /// The tree estimator this tenant serves (the encoded fast path:
    /// `encode`, owned serving handles, per-model caches).  Always `Some`,
    /// since the catalog serves only the tree model; the `Option` stays
    /// because optbench reads it, until ROADMAP item 2's benchmark change
    /// may make it plain.
    pub fn tree(&self) -> Option<&CostEstimator> {
        Some(&self.tree)
    }

    /// The publish-time serving handle and its call count (fitted models
    /// only).
    pub fn aggregator(&self) -> Option<&BatchAggregator> {
        self.aggregator.as_ref()
    }

    /// Monotonic per-tenant generation of this model (bumped by every
    /// publish/hot-swap under the same name).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A fitted tree model's publish-time [`ServingEstimator`] and the number of
/// calls it served through [`Session::estimate_encoded`].  Each call runs on
/// the caller's thread; nothing is queued or merged across sessions.
///
/// The `BatchAggregator`, [`WaveStats`] and [`TenantModel::aggregator`]
/// names remain only because optbench reads them (`wave_stats().waves`);
/// ROADMAP item 2's benchmark change deletes them.
pub struct BatchAggregator {
    serving: ServingEstimator,
    waves: AtomicU64,
}

/// Call counts of one [`BatchAggregator`], monotonic since publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveStats {
    /// Non-empty estimate calls served.
    pub waves: u64,
}

impl BatchAggregator {
    /// Wrap a fitted tree model's serving handle.
    pub fn new(serving: ServingEstimator) -> Self {
        BatchAggregator { serving, waves: AtomicU64::new(0) }
    }

    /// `(cost, cardinality)` for each plan, in order:
    /// [`ServingEstimator::estimate_encoded_batch`] on the calling thread.
    /// Plans may be owned or shared (`Arc<EncodedPlan>`, as
    /// [`Session::encode_batch`] returns them).  An empty slice returns an
    /// empty `Vec` and is not counted.
    pub fn estimate<P: Borrow<EncodedPlan>>(&self, plans: &[P]) -> Vec<(f64, f64)> {
        if plans.is_empty() {
            return Vec::new();
        }
        self.waves.fetch_add(1, Ordering::Relaxed);
        let refs: Vec<&EncodedPlan> = plans.iter().map(Borrow::borrow).collect();
        self.serving.estimate_encoded_batch(&refs)
    }

    /// How many non-empty calls this handle served.
    pub fn wave_stats(&self) -> WaveStats {
        WaveStats { waves: self.waves.load(Ordering::Relaxed) }
    }
}

/// Builds a fresh, unfitted backend instance for a tenant — the vessel a
/// checkpoint is loaded into on [`ModelCatalog::install_checkpoint`].
pub type BackendFactory = Box<dyn Fn() -> TenantBackend + Send + Sync>;

/// Per-tenant state: the swappable model slot, the generation counter and
/// an optional backend factory for checkpoint installs.
///
/// Every lock in the catalog is taken through `PoisonError::into_inner`:
/// each write is one store or one map edit, so the data stays valid even if
/// its holder panics, and one panic never poisons a tenant for every later
/// caller.
#[derive(Default)]
struct Tenant {
    slot: RwLock<Option<Arc<TenantModel>>>,
    generations: AtomicU64,
    factory: RwLock<Option<BackendFactory>>,
    /// Online-learning capture state ([`ModelCatalog::enable_feedback`]).
    /// `None` (the default) keeps the hot path feedback-free: sessions pay
    /// one uncontended read lock per *batch* to find that out.  Deliberately
    /// outside [`TenantModel`]: the log and registry describe the tenant's
    /// traffic, so they survive hot-swaps of the model that serves it.
    feedback: RwLock<Option<Arc<TenantFeedback>>>,
}

impl Tenant {
    fn publish(&self, backend: TenantBackend) -> u64 {
        // Generation allocation and the slot store happen under one write
        // lock: with them decoupled, two racing publishes could install
        // their models in the opposite order of their generation numbers
        // and leave the tenant permanently serving the older model.  The
        // lock is held only to wrap the backend and store one Arc.
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        *slot = Some(Arc::new(TenantModel::new(backend, generation)));
        generation
    }
}

/// A named catalog of served models with atomic per-tenant hot-swap.
///
/// The top-level map is only write-locked to add or remove tenant *names*;
/// publishing a model (including a hot-swap) write-locks a single tenant's
/// slot for the duration of one `Arc` store.  Sessions on other tenants
/// never contend with a swap, and sessions on the swapped tenant keep the
/// model they pinned until their next call.
#[derive(Default)]
pub struct ModelCatalog {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
}

impl ModelCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().unwrap_or_else(PoisonError::into_inner).get(name).cloned()
    }

    fn tenant_or_create(&self, name: &str) -> Arc<Tenant> {
        if let Some(t) = self.tenant(name) {
            return t;
        }
        let mut map = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Publish a (fitted or checkpoint-loaded) backend under a name,
    /// creating the tenant or atomically hot-swapping its current model.
    /// Returns the new model's generation.
    pub fn publish(&self, name: &str, backend: TenantBackend) -> u64 {
        self.tenant_or_create(name).publish(backend)
    }

    /// Register the factory that builds fresh backend instances for
    /// [`ModelCatalog::install_checkpoint`] under this name.
    pub fn register_factory(&self, name: &str, factory: BackendFactory) {
        *self.tenant_or_create(name).factory.write().unwrap_or_else(PoisonError::into_inner) = Some(factory);
    }

    /// Build a fresh backend via the tenant's registered factory, load the
    /// checkpoint into it and atomically publish it — the hot-swap path for
    /// rolling out a newly trained model version.  The previous model keeps
    /// serving until the moment of the swap (and beyond, for sessions that
    /// already pinned it); a load error leaves the tenant serving its
    /// current model.
    pub fn install_checkpoint(&self, name: &str, path: impl AsRef<Path>) -> Result<u64, CheckpointError> {
        let tenant = self
            .tenant(name)
            .ok_or(CheckpointError::Unsupported("no such tenant; register_factory/publish it first"))?;
        let mut backend = {
            // Hold the factory read lock only for the build itself — the
            // checkpoint load below can be long, and a concurrent
            // register_factory must not block behind it.
            let factory = tenant.factory.read().unwrap_or_else(PoisonError::into_inner);
            let build =
                factory.as_ref().ok_or(CheckpointError::Unsupported("tenant has no backend factory registered"))?;
            build()
        };
        backend.0.load_checkpoint(path.as_ref())?;
        Ok(tenant.publish(backend))
    }

    /// The tenant's current model, if any is published.
    pub fn current(&self, name: &str) -> Option<Arc<TenantModel>> {
        self.tenant(name).and_then(|t| t.slot.read().unwrap_or_else(PoisonError::into_inner).clone())
    }

    /// Open a session on a tenant (it need not have a model yet; calls
    /// return `None` until one is published).
    pub fn session(&self, name: &str) -> Option<Session> {
        self.tenant(name).map(|tenant| Session { tenant })
    }

    /// All tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.tenants.read().unwrap_or_else(PoisonError::into_inner).keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove a tenant entirely.  In-flight sessions holding the tenant or
    /// a pinned model finish undisturbed; new lookups no longer find it.
    pub fn remove(&self, name: &str) -> bool {
        self.tenants.write().unwrap_or_else(PoisonError::into_inner).remove(name).is_some()
    }

    /// Switch on serving-time feedback capture for a tenant (creating the
    /// tenant if needed): sessions start recording `(signature, estimate)`
    /// into a bounded [`crate::FeedbackLog`] and registering encoded
    /// plans in a bounded [`crate::PlanRegistry`].  Returns the capture
    /// state, typically handed to a [`crate::RefreshController`].  Calling
    /// again replaces the state with a fresh (empty) one.
    pub fn enable_feedback(&self, name: &str, config: FeedbackConfig) -> Arc<TenantFeedback> {
        let tenant = self.tenant_or_create(name);
        let feedback = Arc::new(TenantFeedback::new(config));
        *tenant.feedback.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&feedback));
        feedback
    }

    /// The tenant's capture state, if feedback is enabled.
    pub fn feedback(&self, name: &str) -> Option<Arc<TenantFeedback>> {
        self.tenant(name).and_then(|t| t.feedback.read().unwrap_or_else(PoisonError::into_inner).clone())
    }
}

/// A client handle scoped to one tenant.  Cheap to clone and `Send + Sync`;
/// every estimate call pins the tenant's current model generation, so
/// hot-swaps are observed at call boundaries and never mid-batch.
#[derive(Clone)]
pub struct Session {
    tenant: Arc<Tenant>,
}

impl Session {
    /// Pin the tenant's current model (or `None` before the first publish /
    /// after a remove-and-recreate race).
    pub fn model(&self) -> Option<Arc<TenantModel>> {
        self.tenant.slot.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The current model generation, for observing hot-swaps.
    pub fn generation(&self) -> Option<u64> {
        self.model().map(|m| m.generation())
    }

    /// Estimate physical plans through the pinned model's
    /// [`Estimator::estimate_many`].  `None` when the tenant has no
    /// published model or serves an unfitted one.
    pub fn estimate_plans(&self, plans: &[PlanNode]) -> Option<Vec<PlanEstimate>> {
        let model = self.model()?;
        model.tree.is_fitted().then(|| model.tree.estimate_many(plans))
    }

    /// The fast path: estimate already-encoded plans with the pinned model's
    /// [`ServingEstimator::estimate_encoded_batch`], on the calling thread,
    /// then record them for feedback when capture is on.  `None` when no
    /// model is published or it is not fitted.
    ///
    /// Encoded plans are tied to the feature vocabulary they were encoded
    /// under; across a hot-swap of a model with the *same* vocabulary
    /// (the common retrain-and-roll-out case, enforced at checkpoint load)
    /// they remain valid.
    pub fn estimate_encoded<P: Borrow<EncodedPlan>>(&self, plans: &[P]) -> Option<Vec<(f64, f64)>> {
        let model = self.model()?;
        let estimates = model.aggregator()?.estimate(plans);
        self.capture(plans, &estimates);
        Some(estimates)
    }

    /// Encode a plan with the pinned tree model's extractor
    /// ([`CostEstimator::encode`]): every node reads through the extractor's
    /// node memo, so an operator featurized before costs a lookup and
    /// shares its features.  With feedback capture enabled, the plan is
    /// also registered (annotations cleared) under its signature so the
    /// refresh loop can execute it for ground truth later.
    pub fn encode(&self, plan: &PlanNode) -> Option<EncodedPlan> {
        let encoded = self.model()?.tree.encode(plan);
        if let Some(feedback) = self.tenant.feedback.read().unwrap_or_else(PoisonError::into_inner).as_ref() {
            feedback.registry().register(encoded.signature, plan);
        }
        Some(encoded)
    }

    /// Batch form of [`Session::encode`] through the pinned tree model's
    /// shared encode cache: every distinct (subtree, annotations) across
    /// the batch — and across concurrent sessions of this tenant — is
    /// featurized once while its entry stays, with results bit-identical to
    /// [`Session::encode`] per plan.  Each returned root is its cache
    /// entry's `Arc`: nothing is copied, and [`Session::estimate_encoded`]
    /// takes the roots as they are.  Feedback registration is preserved:
    /// with capture enabled, each plan is registered under its signature
    /// exactly as the one-at-a-time path does.  `None` when no model is
    /// published.
    pub fn encode_batch(&self, plans: &[PlanNode]) -> Option<Vec<Arc<EncodedPlan>>> {
        let encoded = self.model()?.tree.encode_plans(plans);
        if let Some(feedback) = self.tenant.feedback.read().unwrap_or_else(PoisonError::into_inner).as_ref() {
            for (enc, plan) in encoded.iter().zip(plans) {
                feedback.registry().register(enc.signature, plan);
            }
        }
        Some(encoded)
    }

    /// Record a served batch into the tenant's feedback log, when capture is
    /// enabled.  One uncontended `RwLock` read per batch on the hot path,
    /// then one lock of the log for the whole batch.
    fn capture<P: Borrow<EncodedPlan>>(&self, plans: &[P], estimates: &[(f64, f64)]) {
        if let Some(feedback) = self.tenant.feedback.read().unwrap_or_else(PoisonError::into_inner).as_ref() {
            feedback.log().record_batch(plans.iter().map(|p| &p.borrow().signature).zip(estimates.iter()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::execute_plan;
    use estimator_core::{ModelConfig, TrainConfig};
    use featurize::{EncodingConfig, FeatureExtractor};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, Predicate};
    use strembed::HashBitmapEncoder;

    fn make_estimator(db: &Arc<imdb::Database>, seed: u64) -> CostEstimator {
        let cfg = EncodingConfig::from_database(db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
        CostEstimator::new(
            fx,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, seed, ..Default::default() },
            TrainConfig { epochs: 2, batch_size: 8, seed, ..Default::default() },
        )
    }

    fn executed_plans(db: &Arc<imdb::Database>, n: usize) -> Vec<PlanNode> {
        (0..n)
            .map(|i| {
                let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                    table: "title".into(),
                    predicate: Some(Predicate::atom(
                        "title",
                        "production_year",
                        CompareOp::Gt,
                        Operand::Num((1938 + i * 3) as f64),
                    )),
                });
                let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
                let mut join = PlanNode::inner(
                    PhysicalOp::HashJoin {
                        condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id"),
                    },
                    vec![scan_t, scan_mc],
                );
                execute_plan(db, &mut join);
                join
            })
            .collect()
    }

    fn card_bits(estimates: &[PlanEstimate]) -> Vec<u64> {
        estimates.iter().map(|e| e.cardinality.expect("card").to_bits()).collect()
    }

    #[test]
    fn catalog_serves_multiple_named_models() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let plans = executed_plans(&db, 16);
        let mut a = make_estimator(&db, 1);
        a.fit(&plans);
        let mut b = make_estimator(&db, 4242);
        b.fit(&plans);
        let want_a = a.estimate_many(&plans);
        let want_b = b.estimate_many(&plans);
        assert_ne!(card_bits(&want_a), card_bits(&want_b), "seeds must differ for the test to mean anything");

        let catalog = ModelCatalog::new();
        assert_eq!(catalog.publish("tenant_a", TenantBackend::tree(a)), 1);
        assert_eq!(catalog.publish("tenant_b", TenantBackend::tree(b)), 1);
        assert_eq!(catalog.names(), vec!["tenant_a".to_string(), "tenant_b".to_string()]);

        let sa = catalog.session("tenant_a").expect("tenant_a");
        let sb = catalog.session("tenant_b").expect("tenant_b");
        assert_eq!(card_bits(&sa.estimate_plans(&plans).expect("a")), card_bits(&want_a));
        assert_eq!(card_bits(&sb.estimate_plans(&plans).expect("b")), card_bits(&want_b));
        assert!(catalog.session("nope").is_none());
        // A removed tenant is no longer found, and a session that holds it
        // keeps serving.
        assert!(catalog.remove("tenant_b"));
        assert!(catalog.session("tenant_b").is_none());
        assert_eq!(catalog.names(), vec!["tenant_a".to_string()]);
        assert_eq!(card_bits(&sb.estimate_plans(&plans).expect("b")), card_bits(&want_b));
    }

    #[test]
    fn hot_swap_is_observed_at_call_boundaries_and_isolated_per_tenant() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let plans = executed_plans(&db, 14);
        let mut a = make_estimator(&db, 1);
        a.fit(&plans);
        let mut b1 = make_estimator(&db, 2);
        b1.fit(&plans);
        let mut b2 = make_estimator(&db, 4242);
        b2.fit(&plans);
        let want_a = card_bits(&a.estimate_many(&plans));
        let want_b1 = card_bits(&b1.estimate_many(&plans));
        let want_b2 = card_bits(&b2.estimate_many(&plans));
        assert_ne!(want_b1, want_b2);

        let catalog = ModelCatalog::new();
        catalog.publish("a", TenantBackend::tree(a));
        catalog.publish("b", TenantBackend::tree(b1));

        let sa = catalog.session("a").expect("a");
        let sb = catalog.session("b").expect("b");
        assert_eq!(sb.generation(), Some(1));
        assert_eq!(card_bits(&sb.estimate_plans(&plans).expect("b")), want_b1);

        // A pinned model survives the swap it predates...
        let pinned_b1 = sb.model().expect("pinned");
        catalog.publish("b", TenantBackend::tree(b2));
        assert_eq!(card_bits(&pinned_b1.tree().expect("tree").estimate_many(&plans)), want_b1);
        // ...while the session observes the swap at its next call.
        assert_eq!(sb.generation(), Some(2));
        assert_eq!(card_bits(&sb.estimate_plans(&plans).expect("b")), want_b2);
        // And tenant a never noticed.
        assert_eq!(sa.generation(), Some(1));
        assert_eq!(card_bits(&sa.estimate_plans(&plans).expect("a")), want_a);
    }

    #[test]
    fn tenants_have_isolated_caches() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let plans = executed_plans(&db, 12);
        let mut a = make_estimator(&db, 1);
        a.fit(&plans);
        let mut b = make_estimator(&db, 2);
        b.fit(&plans);
        let catalog = ModelCatalog::new();
        catalog.publish("a", TenantBackend::tree(a));
        catalog.publish("b", TenantBackend::tree(b));

        let sa = catalog.session("a").expect("a");
        let sb = catalog.session("b").expect("b");
        // Warm b's subtree cache, then hammer a.
        sb.estimate_plans(&plans).expect("warm b");
        let b_len = catalog.current("b").expect("b").tree().expect("tree").subtree_cache().len();
        assert!(b_len > 0, "warm pass must populate b's cache");
        for _ in 0..5 {
            sa.estimate_plans(&plans).expect("hammer a");
        }
        // a's traffic cannot evict (or even touch) b's entries.
        let b_model = catalog.current("b").expect("b");
        let b_tree = b_model.tree().expect("tree");
        assert_eq!(b_tree.subtree_cache().len(), b_len);
        let (hits_before, misses_before) = b_tree.subtree_cache().stats();
        sb.estimate_plans(&plans).expect("b again");
        let (hits_after, misses_after) = b_tree.subtree_cache().stats();
        assert!(hits_after > hits_before, "b's warm entries must still hit");
        assert_eq!(misses_after, misses_before, "a's traffic must not have evicted b's entries");
    }

    #[test]
    fn encode_batch_matches_one_at_a_time_and_registers_feedback() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let plans = executed_plans(&db, 10);
        let mut est = make_estimator(&db, 7);
        est.fit(&plans);
        let catalog = ModelCatalog::new();
        let feedback = catalog.enable_feedback("t", crate::FeedbackConfig::default());
        catalog.publish("t", TenantBackend::tree(est));
        let session = catalog.session("t").expect("t");

        let batch = session.encode_batch(&plans).expect("batch");
        assert_eq!(batch.len(), plans.len());
        // Bit-identical to the one-at-a-time path, plan for plan.
        let one_at_a_time: Vec<EncodedPlan> = plans.iter().map(|p| session.encode(p).expect("one")).collect();
        for (one, batched) in one_at_a_time.iter().zip(&batch) {
            assert_eq!(one, batched.as_ref(), "memoized batch encode must match Session::encode");
        }
        // The roots are the cache's own entries, handed out uncopied.
        let again = session.encode_batch(&plans).expect("batch");
        for (first, second) in batch.iter().zip(&again) {
            assert!(Arc::ptr_eq(first, second), "two batch encodes of one plan must share its cached root");
        }
        // Shared and owned roots serve the same bits and capture alike.
        let shared = session.estimate_encoded(&batch).expect("shared roots serve");
        let owned = session.estimate_encoded(&one_at_a_time).expect("owned roots serve");
        assert_eq!(estimate_bits(&shared), estimate_bits(&owned));
        assert_eq!(feedback.log().total_recorded(), 2 * plans.len() as u64);
        // Feedback registration preserved: every plan is executable again.
        for enc in &batch {
            assert!(feedback.registry().get(enc.signature).is_some(), "batch encode must register each plan");
        }
        // The shared encode cache was actually warmed by the batch.
        let model = catalog.current("t").expect("t");
        let tree = model.tree().expect("tree");
        assert!(!tree.encode_cache().is_empty(), "batch encode must populate the shared encode cache");
        let (hits, _misses) = tree.encode_cache().stats();
        assert!(hits > 0, "shared scans across the batch must hit the encode cache");
    }

    #[test]
    fn install_checkpoint_builds_loads_and_swaps() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let plans = executed_plans(&db, 12);
        let mut trained = make_estimator(&db, 4242);
        trained.fit(&plans);
        let want = card_bits(&trained.estimate_many(&plans));
        let path = std::env::temp_dir().join(format!("serving-install-{}.ckpt", std::process::id()));
        trained.save_checkpoint(&path).expect("save");

        let catalog = ModelCatalog::new();
        // No tenant yet: typed refusal.
        assert!(matches!(catalog.install_checkpoint("m", &path), Err(CheckpointError::Unsupported(_))));
        let factory_db = db.clone();
        catalog.register_factory("m", Box::new(move || TenantBackend::tree(make_estimator(&factory_db, 4242))));
        let generation = catalog.install_checkpoint("m", &path).expect("install");
        assert_eq!(generation, 1);
        let s = catalog.session("m").expect("m");
        assert_eq!(card_bits(&s.estimate_plans(&plans).expect("est")), want);

        // Installing again is a hot-swap onto generation 2.
        assert_eq!(catalog.install_checkpoint("m", &path).expect("reinstall"), 2);
        assert_eq!(s.generation(), Some(2));
        // A failed install (missing file) leaves generation 2 serving.
        assert!(catalog.install_checkpoint("m", path.with_extension("missing")).is_err());
        assert_eq!(s.generation(), Some(2));
        assert_eq!(card_bits(&s.estimate_plans(&plans).expect("est")), want);
        let _ = std::fs::remove_file(&path);
    }

    /// Generation allocation and the slot store must be one atomic step —
    /// with them decoupled, racing publishes could install models in the
    /// opposite order of their generation numbers and leave the tenant
    /// serving an older model than `publish` reported.  The published
    /// estimators are unfitted: only the generations matter here.
    #[test]
    fn concurrent_publishes_never_regress_the_served_generation() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let catalog = ModelCatalog::new();
        catalog.publish("m", TenantBackend::tree(make_estimator(&db, 1)));
        const THREADS: usize = 8;
        const PER_THREAD: usize = 20;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let (catalog, db) = (&catalog, &db);
                scope.spawn(move || {
                    let mut last_seen = 0;
                    for _ in 0..PER_THREAD {
                        let mine = catalog.publish("m", TenantBackend::tree(make_estimator(db, 1)));
                        // The served generation may already be past ours,
                        // but it must never move backwards.
                        let served = catalog.current("m").expect("published").generation();
                        assert!(served >= mine, "served generation {served} regressed below published {mine}");
                        assert!(served >= last_seen, "served generation moved backwards: {last_seen} -> {served}");
                        last_seen = served;
                    }
                });
            }
        });
        let final_generation = catalog.current("m").expect("published").generation();
        assert_eq!(final_generation as usize, 1 + THREADS * PER_THREAD, "every publish must claim its own generation");
    }

    #[test]
    fn an_unfitted_tree_tenant_serves_none() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let plans = executed_plans(&db, 4);
        let unfitted = make_estimator(&db, 1);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| unfitted.encode(p)).collect();
        let catalog = ModelCatalog::new();
        catalog.publish("m", TenantBackend::tree(unfitted));
        let s = catalog.session("m").expect("m");
        assert!(s.estimate_encoded(&encoded).is_none());
        assert!(s.estimate_plans(&plans).is_none());
    }

    fn estimate_bits(estimates: &[(f64, f64)]) -> Vec<(u64, u64)> {
        estimates.iter().map(|(cost, card)| (cost.to_bits(), card.to_bits())).collect()
    }

    /// A fitted tree model published as tenant `t`, with 24 executed plans
    /// encoded by its extractor and their fresh level-batch estimates.
    struct Served {
        db: Arc<imdb::Database>,
        catalog: ModelCatalog,
        plans: Vec<PlanNode>,
        encoded: Vec<EncodedPlan>,
        expected: Vec<(f64, f64)>,
    }

    fn served_tree() -> Served {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let plans = executed_plans(&db, 24);
        let mut est = make_estimator(&db, 3);
        est.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        let expected = est.estimate_encoded_batch(&encoded);
        let catalog = ModelCatalog::new();
        catalog.publish("t", TenantBackend::tree(est));
        Served { db, catalog, plans, encoded, expected }
    }

    /// Non-empty `estimate_encoded` calls the tenant's current model served.
    fn served_calls(catalog: &ModelCatalog) -> u64 {
        catalog.current("t").and_then(|m| m.aggregator().map(|a| a.wave_stats().waves)).expect("fitted tree tenant")
    }

    #[test]
    fn estimate_encoded_matches_the_serving_handle_bit_for_bit() {
        let Served { catalog, encoded, expected, .. } = served_tree();
        let session = catalog.session("t").expect("t");
        // The session's call runs first, on a cold cache.
        let served = session.estimate_encoded(&encoded).expect("fitted tree serves");
        let model = session.model().expect("published");
        let refs: Vec<&EncodedPlan> = encoded.iter().collect();
        let direct = model.tree().expect("tree").serving().estimate_encoded_batch(&refs);
        assert_eq!(estimate_bits(&served), estimate_bits(&direct));
        assert_eq!(estimate_bits(&served), estimate_bits(&expected));
        assert_eq!(served_calls(&catalog), 1);
        // An empty call is served but not counted.
        assert_eq!(session.estimate_encoded::<EncodedPlan>(&[]), Some(vec![]));
        assert_eq!(served_calls(&catalog), 1);
    }

    /// The publish-time generation a session serves through is the one the
    /// tree backend reports: the slab `Session::estimate_encoded` fills is
    /// `CostEstimator::subtree_cache()`, with its node counters.
    #[test]
    fn estimate_encoded_fills_the_slab_the_tree_reports() {
        let Served { catalog, encoded, .. } = served_tree();
        let session = catalog.session("t").expect("t");
        let model = session.model().expect("published");
        let slab = model.tree().expect("tree").subtree_cache();
        assert!(slab.is_empty(), "nothing has been served yet");
        let nodes: u64 = encoded.iter().map(|p| p.size() as u64).sum();

        session.estimate_encoded(&encoded).expect("fitted tree serves");
        let (seen, computed) = slab.node_stats();
        assert_eq!(seen, nodes, "the tree's slab must count every node the session submitted");
        assert!(computed > 0, "a cold call embeds");
        assert_eq!(slab.len() as u64, computed, "every node the session embedded is in the tree's slab");

        session.estimate_encoded(&encoded).expect("fitted tree serves");
        assert_eq!(slab.node_stats(), (2 * nodes, computed), "a warm call is served from the tree's slab");
    }

    #[test]
    fn concurrent_sessions_each_get_their_own_rows() {
        let Served { catalog, encoded, expected, .. } = served_tree();
        // Eight sessions, each repeatedly asking for its own window of the
        // plans; every response must be that window's rows.
        std::thread::scope(|scope| {
            for window in 0..8usize {
                let session = catalog.session("t").expect("t");
                let (encoded, expected) = (&encoded, &expected);
                scope.spawn(move || {
                    let rows = window * 3..window * 3 + 3;
                    for _ in 0..20 {
                        let got = session.estimate_encoded(&encoded[rows.clone()]).expect("fitted tree serves");
                        assert_eq!(
                            estimate_bits(&got),
                            estimate_bits(&expected[rows.clone()]),
                            "session {window} got another window's rows"
                        );
                    }
                });
            }
        });
        assert_eq!(served_calls(&catalog), 8 * 20);
    }

    #[test]
    fn a_panicking_call_leaves_the_session_serving() {
        let Served { db, catalog, plans, encoded, expected } = served_tree();
        // The model was fitted on 32 sample bits; plans encoded with 64 make
        // the first level's embedding panic, as long as the cache is cold (a
        // warm cache would serve their signatures without embedding).
        let wide = FeatureExtractor::new(
            db.clone(),
            EncodingConfig::from_database(&db, 8, 64),
            Arc::new(HashBitmapEncoder::new(8)),
        );
        let malformed: Vec<EncodedPlan> = plans.iter().map(|p| wide.encode_plan(p)).collect();
        let session = catalog.session("t").expect("t");
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.estimate_encoded(&malformed)));
        assert!(failed.is_err(), "mis-encoded plans must panic on a cold cache");
        let served = session.estimate_encoded(&encoded).expect("fitted tree serves");
        assert_eq!(estimate_bits(&served), estimate_bits(&expected));
        // Both calls count, the one that panicked included.
        assert_eq!(served_calls(&catalog), 2);
    }
}
