//! The public end-to-end estimator API.
//!
//! [`CostEstimator`] wires everything together the way the paper's Figure 2
//! does: a feature extractor (with a pluggable string encoder), the tree
//! model, the trainer and the serving caches (the subtree-state cache is
//! the paper's representation memory pool).  Downstream users hand it
//! annotated training plans once, then ask it for `(cost, cardinality)` of
//! new physical plans.
//!
//! Every tree estimate comes from one of two f32 forwards:
//!
//! * the per-node recursion ([`CostEstimator::estimate_encoded`]) — the
//!   independent oracle and Table 12's one-by-one row;
//! * the level loop ([`crate::batch`]), with one of two head sweeps:
//!   - over the roots, with no memoization
//!     ([`CostEstimator::estimate_encoded_batch`]) — training, validation,
//!     the fresh oracle and Table 12's batch row;
//!   - over every fresh sub-plan, memoized ([`ServingEstimator`]), on the
//!     generation's packed weights — all serving traffic, including
//!     [`CostEstimator::estimate`] and the [`Estimator`] impl.  Raw plans enter it state first
//!     ([`ServingEstimator::estimate_plans`]): a sub-plan whose state the
//!     subtree-state cache holds costs a signature walk and a lookup, and
//!     only the fringe above the cached states is featurized and embedded.
//!
//! All of them return the same bits for the same plan and weights.

use crate::backend::{Estimator, EstimatorCapabilities, PlanEstimate};
use crate::batch::{estimate_batch, estimate_batch_memo, estimate_plans_memo};
use crate::checkpoint;
use crate::memory::SubtreeStateCache;
use crate::model::{ModelConfig, TaskMode, TreeModel};
use crate::trainer::{EpochStats, TargetNormalization, TrainConfig, Trainer};
use featurize::encode::ENCODE_SLOTS_PER_SHARD;
use featurize::{EncodedPlan, FeatureExtractor};
use nn::checkpoint as ckpt;
use nn::checkpoint::CheckpointError;
use nn::PackedWeights;
use query::{PlanNode, SigCache};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// An end-to-end learned cost and cardinality estimator.
pub struct CostEstimator {
    extractor: Arc<FeatureExtractor>,
    model_config: ModelConfig,
    train_config: TrainConfig,
    /// The trainer and the generation serving its weights, replaced
    /// together by [`CostEstimator::install`]; `None` before fit.
    fitted: Option<(Trainer, ServingEstimator)>,
    /// Memoized subtree *encodings* behind [`CostEstimator::encode_plans`].
    /// They depend only on the extractor, so refits and loads keep them.
    encode_cache: SigCache<Arc<EncodedPlan>>,
}

impl CostEstimator {
    /// Create an estimator with the given feature extractor and configuration.
    pub fn new(extractor: FeatureExtractor, model_config: ModelConfig, train_config: TrainConfig) -> Self {
        CostEstimator {
            extractor: Arc::new(extractor),
            model_config,
            train_config,
            fitted: None,
            encode_cache: SigCache::new(ENCODE_SLOTS_PER_SHARD, 0),
        }
    }

    /// Install `trainer` beside a new generation serving its weights, whose
    /// subtree-state cache starts empty; the pair replaces the previous
    /// one.  Handles to the previous generation keep serving it, cache and
    /// all.
    fn install(&mut self, trainer: Trainer) {
        let serving = ServingEstimator::new(&trainer, Arc::clone(&self.extractor));
        self.fitted = Some((trainer, serving));
    }

    /// The fitted trainer and the generation serving its weights.
    ///
    /// # Panics
    /// Panics if the estimator has not been fitted.
    fn fitted(&self) -> &(Trainer, ServingEstimator) {
        self.fitted.as_ref().expect("CostEstimator used before fit")
    }

    /// The feature extractor (exposed for encoding plans externally).
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Encode an annotated physical plan into the model's input format.
    /// Every node reads through the extractor's node memo
    /// ([`FeatureExtractor::encode_node`]), so a node whose operator was
    /// featurized before costs a key hash and a lookup, and shares those
    /// features.
    pub fn encode(&self, plan: &PlanNode) -> EncodedPlan {
        self.extractor.encode_plan(plan)
    }

    /// Encode a batch through the estimator's shared encode cache: each
    /// distinct subtree (within the batch *and* across previous calls,
    /// refits and loads included) is featurized once while its entry stays.
    /// Bit-identical to [`CostEstimator::encode`] per plan.
    pub fn encode_plans(&self, plans: &[PlanNode]) -> Vec<Arc<EncodedPlan>> {
        self.extractor.encode_plans_cached(plans, &self.encode_cache)
    }

    /// The memoized-encode cache backing [`CostEstimator::encode_plans`]
    /// (and, through it, the serving catalog's batch encode).  Raw-plan
    /// estimation ([`ServingEstimator::estimate_plans`]) never touches it.
    pub fn encode_cache(&self) -> &SigCache<Arc<EncodedPlan>> {
        &self.encode_cache
    }

    /// Train on already-encoded plans; returns per-epoch statistics.
    pub fn fit_encoded(&mut self, samples: &[EncodedPlan]) -> Vec<EpochStats> {
        let model = TreeModel::new(self.extractor.config(), self.model_config);
        let mut trainer = Trainer::new(model, samples, self.train_config);
        let stats = trainer.train(samples);
        self.install(trainer);
        stats
    }

    /// Train on executed (annotated) physical plans.
    pub fn fit(&mut self, plans: &[PlanNode]) -> Vec<EpochStats> {
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| self.encode(p)).collect();
        self.fit_encoded(&encoded)
    }

    /// Continue an interrupted training run on already-encoded plans —
    /// after [`CostEstimator::resume_from_checkpoint`] — until
    /// `train_config.epochs` total epochs are done.  With the same samples
    /// and hyper-parameters as the interrupted run, the result is
    /// **bit-identical** to never having been interrupted.  Unlike
    /// [`CostEstimator::fit_encoded`], nothing is re-initialized.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Unsupported`] when there is nothing to
    /// resume: no trainer at all, or a trainer without resumable training
    /// state (e.g. after a model-only v1 checkpoint load) — silently
    /// restarting training from epoch 0 with a fresh optimizer would
    /// masquerade as a continuation.  Callers that can retrain from scratch
    /// (the serving refresh controller) fall back to
    /// [`CostEstimator::fit_encoded`] on this error instead of aborting.
    pub fn fit_resumed_encoded(&mut self, samples: &[EncodedPlan]) -> Result<Vec<EpochStats>, CheckpointError> {
        let (trainer, _) = self.fitted.as_ref().ok_or(CheckpointError::Unsupported(
            "fit_resumed called with nothing to resume: the estimator has never been fitted or loaded",
        ))?;
        if !trainer.is_resumable() {
            return Err(CheckpointError::Unsupported(
                "fit_resumed called with nothing to resume: the checkpoint carried no resumable training state",
            ));
        }
        // Retire this estimator's own generation before training: the
        // weights are then updated in place, and copied only while an
        // outstanding handle still pins them.
        let (mut trainer, retired) = self.fitted.take().expect("checked above");
        drop(retired);
        let stats = trainer.train(samples);
        self.install(trainer);
        Ok(stats)
    }

    /// [`CostEstimator::fit_resumed_encoded`] over raw annotated plans.
    pub fn fit_resumed(&mut self, plans: &[PlanNode]) -> Result<Vec<EpochStats>, CheckpointError> {
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| self.encode(p)).collect();
        self.fit_resumed_encoded(&encoded)
    }

    /// Raise the total epoch budget by `extra` so a *completed* training run
    /// can be fine-tuned with [`CostEstimator::fit_resumed_encoded`].
    ///
    /// Resumable training counts epochs against `train_config.epochs`; once a
    /// fit has run them all, `fit_resumed` is a no-op.  Online fine-tuning
    /// (the serving refresh loop) instead wants "N more epochs on fresh
    /// data": this bumps the budget on both the estimator's config and the
    /// live trainer, and clears a tripped early-stop so the new data is
    /// actually looked at.  Has no effect on what checkpoints round-trip —
    /// the raised budget is persisted like any other hyper-parameter.
    pub fn extend_training_epochs(&mut self, extra: usize) {
        self.train_config.epochs += extra;
        if let Some((trainer, _)) = self.fitted.as_mut() {
            trainer.extend_epochs(extra);
        }
    }

    /// True once the model has been trained.
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// True when [`CostEstimator::fit_resumed`] can continue training: the
    /// model trained in this process, or was restored (with training state)
    /// by [`CostEstimator::resume_from_checkpoint`] /
    /// [`CostEstimator::load_checkpoint`] from a v2 checkpoint.
    pub fn is_resumable(&self) -> bool {
        self.fitted.as_ref().is_some_and(|(trainer, _)| trainer.is_resumable())
    }

    /// Estimate `(cost, cardinality)` for a physical plan through the
    /// serving path ([`ServingEstimator::estimate_plans`]): a repeated plan
    /// is answered from its subtree-state cache entry by one signature walk
    /// and one lookup, without featurizing, embedding or scoring a single
    /// node.
    ///
    /// # Panics
    /// Panics if the estimator has not been fitted.
    pub fn estimate(&self, plan: &PlanNode) -> (f64, f64) {
        self.fitted().1.estimate_plans(std::slice::from_ref(plan))[0]
    }

    /// Estimate `(cost, cardinality)` for an already-encoded plan with the
    /// per-node recursion ([`Trainer::estimate`]).  It shares no code with
    /// the level-batched forwards and returns the same bits, so it is their
    /// oracle, and it is Table 12's one-by-one row.
    ///
    /// # Panics
    /// Panics if the estimator has not been fitted.
    pub fn estimate_encoded(&self, plan: &EncodedPlan) -> (f64, f64) {
        self.fitted().0.estimate(plan)
    }

    /// Level-batched estimation of many encoded plans at once, with no
    /// memoization (Table 12's batch row).
    ///
    /// # Panics
    /// Panics if the estimator has not been fitted.
    pub fn estimate_encoded_batch(&self, plans: &[EncodedPlan]) -> Vec<(f64, f64)> {
        let (trainer, _) = self.fitted();
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        estimate_batch(&trainer.model, &trainer.normalization, &refs)
    }

    /// A handle to the served generation: the fitted weights, the
    /// normalization, the extractor and the subtree-state cache filled from
    /// them (see [`ServingEstimator`]).  A refit or a load on this
    /// estimator leaves the handle serving the generation it was taken
    /// from.
    ///
    /// # Panics
    /// Panics if the estimator has not been fitted.
    pub fn serving(&self) -> ServingEstimator {
        self.fitted().1.clone()
    }

    /// The served generation's subtree-state cache.
    ///
    /// # Panics
    /// Panics if the estimator has not been fitted.
    pub fn subtree_cache(&self) -> &SubtreeStateCache {
        self.fitted().1.cache()
    }

    /// Persist the fitted model as a versioned binary checkpoint: model
    /// configuration, target normalization, the extractor's one-hot
    /// vocabulary and every parameter tensor (raw `f32` bit patterns).  A
    /// checkpoint loaded by [`CostEstimator::load_checkpoint`] serves
    /// bit-identical estimates with zero retraining.
    /// (Format v2 additionally appends the trainer's resumable state —
    /// schedule position, Adam step counter + moments, early-stop state —
    /// when the model was trained in this process; see
    /// [`CostEstimator::resume_from_checkpoint`].  Format v3's optional
    /// quantized-weights block is always written absent: the f32
    /// parameters are the whole model.)
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.save_checkpoint_impl(path.as_ref(), true)
    }

    /// [`CostEstimator::save_checkpoint`] without the resumable training
    /// state: the file keeps format v3 but a load yields a serving-only
    /// estimator — [`CostEstimator::fit_resumed`] on it reports
    /// `Unsupported` instead of continuing training.  The
    /// deployment artifact for hosts that serve but never train: no Adam
    /// moments, so roughly a third smaller than the full checkpoint.
    pub fn save_checkpoint_model_only(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.save_checkpoint_impl(path.as_ref(), false)
    }

    fn save_checkpoint_impl(&self, path: &Path, with_state: bool) -> Result<(), CheckpointError> {
        let (trainer, _) =
            self.fitted.as_ref().ok_or(CheckpointError::Unsupported("save_checkpoint called before fit"))?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        ckpt::write_header(&mut w, ckpt::KIND_TREE_ESTIMATOR)?;
        checkpoint::write_model_config(&mut w, &trainer.model.config)?;
        checkpoint::write_normalization(&mut w, &trainer.normalization)?;
        checkpoint::write_vocab(&mut w, self.extractor.config(), self.extractor.use_sample_bitmap)?;
        checkpoint::write_encoder_fingerprint(&mut w, &self.extractor)?;
        trainer.model.params.save_to(&mut w)?;
        if with_state {
            trainer.write_training_state(&mut w)?;
        } else {
            // The absent-state flag: readers see a valid v2 block that
            // simply carries nothing to resume.
            ckpt::write_u8(&mut w, 0)?;
        }
        // The absent quantized-weights flag: a valid v3 block with nothing
        // in it (see `checkpoint::skip_quant_block`).
        ckpt::write_u8(&mut w, 0)?;
        Ok(w.flush()?)
    }

    /// Restore a model saved by [`CostEstimator::save_checkpoint`],
    /// replacing any current fit.
    ///
    /// The checkpoint's stored vocabulary is verified entry-by-entry
    /// against this estimator's extractor, and the extractor's string
    /// encoder is checked against the stored probe-encoding fingerprint
    /// ([`CheckpointError::VocabMismatch`] on either), so loaded weights
    /// can never be applied to features laid out differently than the ones
    /// they were trained on.  Exactly like a re-fit, a successful load
    /// installs a new generation, whose subtree-state cache starts empty;
    /// the encode cache, which depends only on the extractor, is kept.  A v3 file's
    /// quantized-weights block, if present, is shape-checked against the
    /// model and skipped.  On error the estimator is left untouched.
    pub fn load_checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.load_checkpoint_impl(path.as_ref(), false)
    }

    /// Restore a checkpoint **including its training state**, so a
    /// following [`CostEstimator::fit_resumed`] continues the interrupted
    /// run — with the same samples and hyper-parameters, bit-identically to
    /// never having stopped (Adam moments and step counter, the schedule's
    /// replayed RNG position and the early-stop state all come back).
    ///
    /// Fails with [`CheckpointError::Unsupported`] on a v1 file or a v2
    /// file saved without training state (e.g. from a loaded-not-trained
    /// estimator): those are model-only checkpoints — use
    /// [`CostEstimator::load_checkpoint`].
    pub fn resume_from_checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.load_checkpoint_impl(path.as_ref(), true)
    }

    fn load_checkpoint_impl(&mut self, path: &Path, resume: bool) -> Result<(), CheckpointError> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        let version = ckpt::read_header(&mut r, ckpt::KIND_TREE_ESTIMATOR)?;
        if resume && version < 2 {
            return Err(CheckpointError::Unsupported("v1 checkpoints carry no training state to resume from"));
        }
        let model_config = checkpoint::read_model_config(&mut r)?;
        let normalization = checkpoint::read_normalization(&mut r)?;
        let vocab = checkpoint::read_vocab(&mut r)?;
        vocab.verify(self.extractor.config(), self.extractor.use_sample_bitmap)?;
        checkpoint::verify_encoder_fingerprint(&mut r, &self.extractor)?;
        let mut model = TreeModel::new(self.extractor.config(), model_config);
        model.params.load_values_from(&mut r)?;
        let mut trainer = Trainer::from_parts(model, normalization, self.train_config);
        if version >= 2 {
            // Always consume and validate the training-state block — a
            // truncated or corrupt tail must fail the load — and keep the
            // restored progress, so a loaded checkpoint stays resumable.
            let has_state = trainer.read_training_state(&mut r)?;
            if resume && !has_state {
                return Err(CheckpointError::Unsupported("checkpoint was saved without training state"));
            }
        }
        if version >= 3 {
            checkpoint::skip_quant_block(&mut r, &trainer.model.params)?;
        }
        self.model_config = model_config;
        self.install(trainer);
        Ok(())
    }
}

impl Estimator for CostEstimator {
    fn capabilities(&self) -> EstimatorCapabilities {
        EstimatorCapabilities {
            cost: matches!(self.model_config.task, TaskMode::CostOnly | TaskMode::Multitask),
            cardinality: matches!(self.model_config.task, TaskMode::CardinalityOnly | TaskMode::Multitask),
            checkpointable: true,
        }
    }

    fn fit_plans(&mut self, plans: &[PlanNode]) -> Vec<EpochStats> {
        self.fit(plans)
    }

    fn is_fitted(&self) -> bool {
        CostEstimator::is_fitted(self)
    }

    fn estimate_many(&self, plans: &[PlanNode]) -> Vec<PlanEstimate> {
        let caps = self.capabilities();
        if plans.is_empty() {
            return Vec::new();
        }
        // State first: a sub-plan whose state is cached costs a signature
        // walk and a lookup, and only the fringe above the cached states is
        // featurized — trait-driven serving (catalog sessions) shares the
        // generation's subtree-state cache across calls.
        let (_, serving) = self.fitted();
        serving
            .estimate_plans(plans)
            .into_iter()
            .map(|(cost, card)| PlanEstimate {
                cost: caps.cost.then_some(cost),
                cardinality: caps.cardinality.then_some(card),
            })
            .collect()
    }

    fn save_checkpoint_to(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_checkpoint(path)
    }

    fn load_checkpoint_from(&mut self, path: &Path) -> Result<(), CheckpointError> {
        self.load_checkpoint(path)
    }
}

/// One served model generation: the tree model's weights and their packed
/// copy, the target normalization, the feature extractor, and the
/// subtree-state cache of the states those weights computed (the paper's
/// representation memory pool).
///
/// A generation never changes.  A refit or a checkpoint load on the
/// [`CostEstimator`] that made it installs a new generation, with an empty
/// cache of its own, and leaves this one as it was: no state computed under
/// one set of weights can serve another, by construction.  A handle is
/// `Clone + Send + Sync`, and clones share the weights and the cache.  It
/// owns what it serves, so it outlives the estimator and trainer that made
/// it: a model catalog can drop or hot-swap the source estimator while
/// in-flight sessions finish on the generation they pinned.  Tapes are
/// per-thread and the cache is sharded, so concurrent sessions sharing one
/// generation serialize on no global lock.  Obtain one via
/// [`CostEstimator::serving`].
#[derive(Clone)]
pub struct ServingEstimator(Arc<Generation>);

struct Generation {
    model: Arc<TreeModel>,
    /// `model`'s layers packed once ([`TreeModel::pack`]): every tape pass
    /// of this generation reads them, and none copies a weight.
    weights: PackedWeights,
    normalization: TargetNormalization,
    /// The feature extractor the model was fitted with, so the generation
    /// can accept raw [`PlanNode`]s and featurize the nodes it must embed.
    extractor: Arc<FeatureExtractor>,
    cache: SubtreeStateCache,
}

impl ServingEstimator {
    /// A generation serving `trainer`'s current weights, packed once, with
    /// an empty subtree-state cache as wide as their hidden states.
    pub(crate) fn new(trainer: &Trainer, extractor: Arc<FeatureExtractor>) -> Self {
        let model = Arc::clone(&trainer.model);
        let weights = model.pack();
        let cache = SubtreeStateCache::new(model.config.hidden_dim);
        let normalization = trainer.normalization;
        ServingEstimator(Arc::new(Generation { model, weights, normalization, extractor, cache }))
    }

    /// The end-to-end front door: score a batch of **raw plans** state
    /// first; `(cost, cardinality)` per plan, in input order.  One
    /// signature walk per plan keys every sub-plan; a sub-plan already in
    /// the batch or in the subtree-state cache is served from there, and
    /// only the nodes above those states are featurized and embedded — no
    /// [`EncodedPlan`] tree is built.  A plan whose root is cached is
    /// answered from the entry's stored estimate: a walk and a lookup, no
    /// tape and no heads.  The heads run once per call, over the sub-plans
    /// embedded fresh, whose entries then store their estimates.
    /// Bit-identical to encoding each plan and calling
    /// [`ServingEstimator::estimate_encoded_batch`], with which it shares
    /// cache entries.
    pub fn estimate_plans(&self, plans: &[PlanNode]) -> Vec<(f64, f64)> {
        estimate_plans_memo(self, plans)
    }

    /// Score a batch of encoded candidate plans with subtree memoization;
    /// `(cost, cardinality)` per plan, in input order.
    pub fn estimate_encoded_batch(&self, plans: &[&EncodedPlan]) -> Vec<(f64, f64)> {
        estimate_batch_memo(self, plans)
    }

    /// The generation's subtree-state cache (for hit-rate reporting).
    pub fn cache(&self) -> &SubtreeStateCache {
        &self.0.cache
    }

    /// The feature extractor this generation featurizes raw plans with.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.0.extractor
    }

    /// The generation's model weights.
    pub fn model(&self) -> &TreeModel {
        &self.0.model
    }

    /// The same weights packed for the fused kernel, which every tape pass
    /// of this generation reads.
    pub(crate) fn weights(&self) -> &PackedWeights {
        &self.0.weights
    }

    /// The target normalization the heads' outputs are denormalized with.
    pub(crate) fn normalization(&self) -> &TargetNormalization {
        &self.0.normalization
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use featurize::EncodingConfig;
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, Predicate};
    use std::sync::Arc;
    use strembed::HashBitmapEncoder;

    fn make_estimator() -> (CostEstimator, Arc<imdb::Database>) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
        let est = CostEstimator::new(
            fx,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
            TrainConfig { epochs: 3, batch_size: 8, ..Default::default() },
        );
        (est, db)
    }

    fn executed_plans(db: &imdb::Database, n: usize) -> Vec<PlanNode> {
        let cost = engine::CostModel::default();
        (0..n)
            .map(|i| {
                let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                    table: "title".into(),
                    predicate: Some(Predicate::atom(
                        "title",
                        "production_year",
                        CompareOp::Gt,
                        Operand::Num((1945 + i * 2) as f64),
                    )),
                });
                let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
                let mut join = PlanNode::inner(
                    PhysicalOp::HashJoin {
                        condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id"),
                    },
                    vec![scan_t, scan_mc],
                );
                engine::execute_plan(db, &mut join, &cost);
                join
            })
            .collect()
    }

    #[test]
    fn fit_then_estimate() {
        let (mut est, db) = make_estimator();
        assert!(!est.is_fitted());
        let plans = executed_plans(&db, 30);
        let stats = est.fit(&plans);
        assert_eq!(stats.len(), 3);
        assert!(est.is_fitted());
        let (cost, card) = est.estimate(&plans[0]);
        assert!(cost >= 1.0 && card >= 1.0);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn estimate_before_fit_panics() {
        let (est, db) = make_estimator();
        let plans = executed_plans(&db, 1);
        est.estimate(&plans[0]);
    }

    #[test]
    fn repeated_plans_are_served_from_the_subtree_cache() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 10);
        est.fit(&plans);
        let a = est.estimate(&plans[0]);
        let computed = est.subtree_cache().node_stats().1;
        assert!(computed > 0, "the first estimate must embed the plan");
        let b = est.estimate(&plans[0]);
        assert_eq!(bits(&[a]), bits(&[b]));
        assert_eq!(est.subtree_cache().node_stats().1, computed, "a repeated plan must embed no node");
    }

    #[test]
    fn serving_handle_is_shareable_and_memoized_matches_batched() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 12);
        est.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        let batched = est.estimate_encoded_batch(&encoded);
        let memo = serve_encoded(&est, &encoded);
        assert_eq!(batched, memo, "memoized serving must be bit-identical to the batched path");

        // Four serving threads share one generation and its sharded cache.
        let serving = est.serving();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let refs: Vec<&EncodedPlan> = encoded.iter().collect();
                    assert_eq!(serving.estimate_encoded_batch(&refs), batched);
                });
            }
        });
        assert!(est.subtree_cache().node_hit_rate() > 0.5, "warm serving passes must hit the subtree cache");
        // A refit installs a new generation, whose cache starts empty.
        est.fit(&plans);
        assert!(est.subtree_cache().is_empty());
    }

    #[test]
    fn memoized_pass_on_a_dirtied_tape_matches_fresh_batch() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 24);
        est.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        let small = &encoded[..3];
        let want = est.estimate_encoded_batch(small);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // A larger memo pass whose fresh roots read cached children
                // leaves wide, non-zero buffers in this thread's tape pool
                // where its injected states sat (an all-hit pass touches no
                // tape).  The cold pass below records its zero states first,
                // so it draws exactly those buffers.
                let children: Vec<&EncodedPlan> =
                    encoded.iter().flat_map(|p| p.children.iter().map(|c| c.as_ref())).collect();
                est.serving().estimate_encoded_batch(&children);
                serve_encoded(&est, &encoded);
                est.subtree_cache().clear();
                let got = serve_encoded(&est, small);
                assert_eq!(bits(&got), bits(&want), "memoized pass on a reused tape diverged from the fresh batch");
            });
        });
    }

    fn temp_ckpt(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("e2e-api-test-{}-{tag}.ckpt", std::process::id()))
    }

    fn bits(estimates: &[(f64, f64)]) -> Vec<(u64, u64)> {
        estimates.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect()
    }

    /// Encoded plans through the memoized serving forward.
    fn serve_encoded(est: &CostEstimator, plans: &[EncodedPlan]) -> Vec<(f64, f64)> {
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        est.serving().estimate_encoded_batch(&refs)
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical_in_fresh_context() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 20);
        est.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        let before = serve_encoded(&est, &encoded);

        let path = temp_ckpt("roundtrip");
        est.save_checkpoint(&path).expect("save");

        // A fresh estimator, fresh extractor, fresh database instance — the
        // process-restart posture.  Nothing is fitted before the load.
        let (mut warm, warm_db) = make_estimator();
        assert!(!warm.is_fitted());
        warm.load_checkpoint(&path).expect("load");
        assert!(warm.is_fitted());
        let warm_encoded: Vec<EncodedPlan> = plans.iter().map(|p| warm.encode(p)).collect();
        assert_eq!(
            bits(&serve_encoded(&warm, &warm_encoded)),
            bits(&before),
            "a reloaded checkpoint must serve bit-identical estimates"
        );
        // And per-plan single estimates agree too.
        let single = warm.estimate(&plans[0]);
        assert_eq!(single.0.to_bits(), before[0].0.to_bits());
        assert_eq!(single.1.to_bits(), before[0].1.to_bits());
        drop(warm_db);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_plans_are_served_state_first() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 12);
        est.fit(&plans);
        let serving = est.serving();
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        let want = bits(&est.estimate_encoded_batch(&encoded));

        // The raw walk keys every state exactly as an encoded plan does, so
        // the encoded path finds all of them and embeds nothing.
        assert_eq!(bits(&serving.estimate_plans(&plans)), want);
        let computed = est.subtree_cache().node_stats().1;
        assert!(computed > 0, "the cold pass must embed the plans");
        assert_eq!(bits(&serve_encoded(&est, &encoded)), want);
        assert_eq!(est.subtree_cache().node_stats().1, computed, "the encoded path must reuse the raw walk's states");

        // A warm pass is a signature walk and a lookup per plan: it embeds
        // nothing and probes neither the encode cache nor the node memo.
        let encode_stats = est.encode_cache().stats();
        let bitmap_stats = est.extractor().bitmap_memo_stats();
        assert_eq!(bits(&serving.estimate_plans(&plans)), want);
        assert_eq!(est.subtree_cache().node_stats().1, computed, "a warm pass must embed no node");
        assert_eq!(est.encode_cache().stats(), encode_stats, "a warm pass must not touch the encode cache");
        assert_eq!(est.extractor().bitmap_memo_stats(), bitmap_stats, "a warm pass must featurize no node");
    }

    #[test]
    fn malformed_raw_plans_serve_the_bits_of_their_encodings() {
        let (mut est, db) = make_estimator();
        est.fit(&executed_plans(&db, 10));
        let scan = |table: &str, predicate| PlanNode::leaf(PhysicalOp::SeqScan { table: table.into(), predicate });
        let year = |v: f64| Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(v)));
        let malformed = vec![
            scan("no_such_table", None),
            scan("title", Some(Predicate::atom("title", "no_such_column", CompareOp::Eq, Operand::Num(1.0)))),
            scan("title", year(f64::NAN)),
            scan("title", year(f64::INFINITY)),
            scan("title", year(f64::NEG_INFINITY)),
            PlanNode::inner(
                PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
                vec![scan("title", None), scan("movie_companies", None), scan("keyword", None)],
            ),
        ];
        let encoded: Vec<EncodedPlan> = malformed.iter().map(|p| est.encode(p)).collect();
        let want = bits(&est.estimate_encoded_batch(&encoded));
        assert_eq!(bits(&est.serving().estimate_plans(&malformed)), want, "cold");
        assert_eq!(bits(&est.serving().estimate_plans(&malformed)), want, "warm");
    }

    /// An estimator like [`make_estimator`]'s, seeded differently, so its
    /// fitted model gives visibly different estimates.
    fn reseeded_estimator(db: &Arc<imdb::Database>) -> CostEstimator {
        let cfg = EncodingConfig::from_database(db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
        CostEstimator::new(
            fx,
            ModelConfig {
                feature_embed_dim: 8,
                hidden_dim: 12,
                estimation_hidden_dim: 8,
                seed: 4242,
                ..Default::default()
            },
            TrainConfig { epochs: 5, batch_size: 8, seed: 99, ..Default::default() },
        )
    }

    /// Satellite regression guard: swapping a checkpoint in must start a
    /// new generation, with an empty subtree-state cache, exactly like a
    /// re-fit — a stale cached state from the old parameters must not leak
    /// into post-swap estimates.
    #[test]
    fn load_checkpoint_clears_stale_caches() {
        let (mut a, db) = make_estimator();
        let plans = executed_plans(&db, 14);
        a.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| a.encode(p)).collect();

        // A differently-seeded model with visibly different estimates.
        let mut b = reseeded_estimator(&db);
        b.fit(&plans);
        let b_estimates = serve_encoded(&b, &encoded);

        // Warm A's subtree and encode caches under the OLD parameters.
        let stale_memo = serve_encoded(&a, &encoded);
        let _ = a.encode_plans(&plans);
        assert!(!a.subtree_cache().is_empty(), "test needs a warm subtree cache");
        assert!(!a.encode_cache().is_empty(), "test needs a warm encode cache");
        assert_ne!(bits(&stale_memo), bits(&b_estimates), "models must differ for the guard to mean anything");

        // Swap B's checkpoint into A.
        let path = temp_ckpt("stale-cache");
        b.save_checkpoint(&path).expect("save");
        a.load_checkpoint(&path).expect("load");
        assert!(a.subtree_cache().is_empty(), "subtree cache must be cleared by a checkpoint swap");

        // The memoized path after the swap must match B exactly: no column
        // may be served from a pre-swap cached state.
        assert_eq!(bits(&serve_encoded(&a, &encoded)), bits(&b_estimates));
        assert_eq!(a.estimate(&plans[0]).1.to_bits(), b_estimates[0].1.to_bits());
        let _ = std::fs::remove_file(&path);
    }

    /// A way to replace an estimator's weights: refit, resume or load.
    type Swap = fn(&mut CostEstimator, &[PlanNode], &Path);

    /// Refit on fewer plans, fine-tune two more epochs, and load another
    /// model's checkpoint (at `path`): each moves the served weights.
    const SWAPS: [(&str, Swap); 3] = [
        ("refit", |est, plans, _| {
            est.fit(&plans[..plans.len() / 2]);
        }),
        ("resume", |est, plans, _| {
            est.extend_training_epochs(2);
            est.fit_resumed(plans).expect("resume");
        }),
        ("load", |est, _, path| est.load_checkpoint(path).expect("load")),
    ];

    /// A generation taken before a refit, a resume or a load keeps serving
    /// its own weights bit for bit, and the estimator's new generation
    /// neither reads nor fills its cache: it starts with an empty one.  Each
    /// generation computes on the weights it packed when it was built: the
    /// new one serves the memo-free oracle's bits for the new weights, and
    /// the old one, its cache emptied, recomputes its own.
    #[test]
    fn a_generation_outlives_refits_and_loads_of_its_estimator() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 14);
        est.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        let mut other = reseeded_estimator(&db);
        other.fit(&plans);
        let path = temp_ckpt("generation");
        other.save_checkpoint(&path).expect("save");

        for (swap, apply) in SWAPS {
            let old = est.serving();
            let want = bits(&old.estimate_plans(&plans));
            let (entries, nodes) = (old.cache().len(), old.cache().node_stats());
            apply(&mut est, &plans, &path);
            assert!(est.subtree_cache().is_empty(), "{swap}: the new generation starts with an empty cache");
            let new = bits(&est.serving().estimate_plans(&plans));
            assert_ne!(new, want, "{swap}: the weights must move for the test to mean anything");
            assert_eq!(
                new,
                bits(&est.estimate_encoded_batch(&encoded)),
                "{swap}: the new generation's weights are stale"
            );
            assert!(!est.subtree_cache().is_empty(), "{swap}: the new generation fills its own cache");
            assert_eq!(old.cache().len(), entries, "{swap}: the new generation wrote into the old cache");
            assert_eq!(old.cache().node_stats(), nodes, "{swap}: the new generation counted in the old cache");
            assert_eq!(bits(&old.estimate_plans(&plans)), want, "{swap}: the old generation's answers moved");
            assert_eq!(old.cache().len(), entries, "{swap}: a warm pass of the old generation added entries");
            old.cache().clear();
            assert_eq!(bits(&old.estimate_plans(&plans)), want, "{swap}: the old generation's weights moved");
        }

        // With no handle pinning them, a resume updates the weights in
        // place; the generation installed after it packs the updated ones.
        est.extend_training_epochs(2);
        let before = bits(&est.serving().estimate_plans(&plans));
        est.fit_resumed(&plans).expect("resume");
        let after = bits(&est.serving().estimate_plans(&plans));
        assert_ne!(after, before, "resume in place: the weights must move for the test to mean anything");
        assert_eq!(after, bits(&est.estimate_encoded_batch(&encoded)), "resume in place: the packed weights are stale");
        let _ = std::fs::remove_file(&path);
    }

    /// The encode cache depends only on the extractor, so refits and loads
    /// keep it: after each, a batch encode hits at every node, and each plan
    /// it returns is the plan's own encoding.
    #[test]
    fn the_encode_cache_outlives_refits_and_loads() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 14);
        est.fit(&plans);
        let mut other = reseeded_estimator(&db);
        other.fit(&plans);
        let path = temp_ckpt("encode-cache");
        other.save_checkpoint(&path).expect("save");
        est.encode_plans(&plans);
        let entries = est.encode_cache().len();
        let nodes: u64 = plans.iter().map(|p| est.encode(p).size() as u64).sum();

        for (swap, apply) in SWAPS {
            apply(&mut est, &plans, &path);
            assert_eq!(est.encode_cache().len(), entries, "{swap}: encode-cache entries were dropped");
            let (hits, misses) = est.encode_cache().stats();
            let encoded = est.encode_plans(&plans);
            assert_eq!(est.encode_cache().stats(), (hits + nodes, misses), "{swap}: a warm batch encode missed");
            for (plan, hit) in plans.iter().zip(&encoded) {
                assert_eq!(**hit, est.encode(plan), "{swap}: a hit is not the plan's own encoding");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_string_encoder_of_same_width_is_rejected() {
        use nn::checkpoint::CheckpointError;
        use strembed::EmbeddingEncoder;
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 10);
        est.fit(&plans);
        let path = temp_ckpt("encoder-fingerprint");
        est.save_checkpoint(&path).expect("save");

        // Identical EncodingConfig (same string width), but an embedding
        // encoder instead of the hash bitmap the model was trained under —
        // only the probe fingerprint can tell them apart.
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let emb = EmbeddingEncoder::new([("Din".to_string(), vec![0.25; 8])], 8);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(emb));
        let mut other = CostEstimator::new(
            fx,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
            TrainConfig::default(),
        );
        assert!(matches!(other.load_checkpoint(&path), Err(CheckpointError::VocabMismatch(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_checkpoints_fail_with_typed_errors_not_panics() {
        use nn::checkpoint::CheckpointError;
        let (mut est, db) = make_estimator();

        // Saving before fit is a typed error.
        let path = temp_ckpt("typed-errors");
        assert!(matches!(est.save_checkpoint(&path), Err(CheckpointError::Unsupported(_))));

        let plans = executed_plans(&db, 10);
        est.fit(&plans);
        est.save_checkpoint(&path).expect("save");
        let good = std::fs::read(&path).expect("read back");

        let write_variant = |bytes: &[u8]| {
            let p = temp_ckpt("typed-errors-variant");
            std::fs::write(&p, bytes).expect("write variant");
            p
        };

        // Truncated anywhere — header, vocab, payload.
        for cut in [3, 20, good.len() / 2, good.len() - 3] {
            let p = write_variant(&good[..cut]);
            let before = est.estimate(&plans[0]);
            assert!(
                matches!(est.load_checkpoint(&p), Err(CheckpointError::Truncated { .. })),
                "cut at {cut} must be a typed truncation error"
            );
            // A failed load leaves the estimator serving the old model.
            assert_eq!(est.estimate(&plans[0]), before);
        }
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'Z';
        let p = write_variant(&bad);
        assert!(matches!(est.load_checkpoint(&p), Err(CheckpointError::BadMagic { .. })));
        // Unsupported (future) version.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&1234u32.to_le_bytes());
        let p = write_variant(&future);
        assert!(matches!(est.load_checkpoint(&p), Err(CheckpointError::UnsupportedVersion { found: 1234, .. })));
        // Wrong section kind (an MSCN checkpoint fed to the tree loader).
        let mut wrong_kind = good.clone();
        wrong_kind[12] = nn::checkpoint::KIND_MSCN;
        let p = write_variant(&wrong_kind);
        assert!(matches!(est.load_checkpoint(&p), Err(CheckpointError::WrongKind { .. })));
        // Vocabulary drift: an estimator with a different sample-bitmap
        // width must refuse the checkpoint.
        let cfg16 = EncodingConfig::from_database(&db, 8, 16);
        let fx16 = FeatureExtractor::new(db.clone(), cfg16, Arc::new(HashBitmapEncoder::new(8)));
        let mut other = CostEstimator::new(
            fx16,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
            TrainConfig::default(),
        );
        assert!(matches!(other.load_checkpoint(&path), Err(CheckpointError::VocabMismatch(_))));
        // Nonexistent path.
        assert!(matches!(est.load_checkpoint(temp_ckpt("does-not-exist")), Err(CheckpointError::Io(_))));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(temp_ckpt("typed-errors-variant"));
    }

    #[test]
    fn batched_api_matches_single() {
        let (mut est, db) = make_estimator();
        let plans = executed_plans(&db, 8);
        est.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        let batched = est.estimate_encoded_batch(&encoded);
        let single: Vec<(f64, f64)> = encoded.iter().map(|e| est.estimate_encoded(e)).collect();
        assert_eq!(bits(&single), bits(&batched), "per-node and batched estimates diverge");
    }

    mod resume_property {
        //! Satellite guard: `fit` for N epochs must be **bit-identical** to
        //! `fit` for k epochs → `save_checkpoint` → `resume_from_checkpoint`
        //! into a fresh estimator → `fit_resumed` for the remaining N−k —
        //! same estimates to the bit, and the resumed epoch curve equal to
        //! the uninterrupted run's tail.  All (N, k) combinations in range
        //! are verified once; repeated proptest cases hit the memo.

        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;
        use std::sync::{Mutex, OnceLock};

        struct Fixture {
            db: Arc<imdb::Database>,
            plans: Vec<PlanNode>,
            verified: Mutex<HashSet<(usize, usize)>>,
        }

        fn fixture() -> &'static Fixture {
            static FIX: OnceLock<Fixture> = OnceLock::new();
            FIX.get_or_init(|| {
                let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
                let plans = executed_plans(&db, 24);
                Fixture { db, plans, verified: Mutex::new(HashSet::new()) }
            })
        }

        fn estimator_with_epochs(db: &Arc<imdb::Database>, epochs: usize) -> CostEstimator {
            let cfg = EncodingConfig::from_database(db, 8, 32);
            let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
            CostEstimator::new(
                fx,
                ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
                TrainConfig { epochs, batch_size: 8, learning_rate: 0.005, ..Default::default() },
            )
        }

        fn verify_combo(fixture: &Fixture, n: usize, k: usize) {
            let plans = &fixture.plans;
            // The uninterrupted reference run: N epochs in one sitting.
            let mut uninterrupted = estimator_with_epochs(&fixture.db, n);
            let full_stats = uninterrupted.fit(plans);
            let encoded: Vec<EncodedPlan> = plans.iter().map(|p| uninterrupted.encode(p)).collect();
            let want = bits(&serve_encoded(&uninterrupted, &encoded));

            // The interrupted run: k epochs, checkpoint, process "restart".
            let mut interrupted = estimator_with_epochs(&fixture.db, k);
            interrupted.fit(plans);
            assert!(interrupted.is_resumable());
            let path = std::env::temp_dir().join(format!("e2e-resume-{}-{n}-{k}.ckpt", std::process::id()));
            interrupted.save_checkpoint(&path).expect("save mid-training checkpoint");
            drop(interrupted);

            let mut resumed = estimator_with_epochs(&fixture.db, n);
            resumed.resume_from_checkpoint(&path).expect("resume");
            let _ = std::fs::remove_file(&path);
            assert!(resumed.is_resumable());
            let tail_stats = resumed.fit_resumed(plans).expect("resume");

            assert_eq!(tail_stats.len(), full_stats.len() - k, "resume must run exactly the remaining epochs");
            for (tail, full) in tail_stats.iter().zip(&full_stats[k..]) {
                assert_eq!(tail.epoch, full.epoch, "resumed epoch numbering must continue");
                assert_eq!(
                    tail.train_loss.to_bits(),
                    full.train_loss.to_bits(),
                    "epoch {} loss diverged after resume (N={n}, k={k})",
                    full.epoch
                );
            }
            assert_eq!(
                bits(&serve_encoded(&resumed, &encoded)),
                want,
                "resumed training must be bit-identical to uninterrupted (N={n}, k={k})"
            );
        }

        proptest! {
            #[test]
            fn resumed_training_is_bit_identical_to_uninterrupted(n in 2usize..5, k_sel in 0usize..8) {
                let fixture = fixture();
                let k = 1 + k_sel % (n - 1);
                if fixture.verified.lock().expect("memo").insert((n, k)) {
                    verify_combo(fixture, n, k);
                }
            }
        }
    }

    mod checkpoint_property {
        //! Satellite guard: for randomized planner output (generated queries
        //! expanded into DP candidate join orders), a `save_checkpoint` →
        //! `load_checkpoint` round trip into a fresh process-like context
        //! (new database instance, new extractor, never-fitted estimator)
        //! must yield **bit-identical** memoized serving results — across cold
        //! and warm caches of the reloaded model.

        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;
        use workloads::{generate_enumeration_workload, EnumerationConfig};

        struct Fixture {
            db: Arc<imdb::Database>,
            original: CostEstimator,
            reloaded: CostEstimator,
        }

        fn fixture() -> &'static Fixture {
            static FIX: OnceLock<Fixture> = OnceLock::new();
            FIX.get_or_init(|| {
                let (mut original, db) = make_estimator();
                let plans = executed_plans(&db, 24);
                original.fit(&plans);
                let path = std::env::temp_dir().join(format!("e2e-ckpt-prop-{}.ckpt", std::process::id()));
                original.save_checkpoint(&path).expect("save checkpoint");
                // Fresh context: regenerate the database and the extractor
                // from scratch rather than sharing the fitted instance's.
                let (mut reloaded, fresh_db) = make_estimator();
                reloaded.load_checkpoint(&path).expect("load checkpoint");
                let _ = std::fs::remove_file(&path);
                drop(db);
                Fixture { db: fresh_db, original, reloaded }
            })
        }

        proptest! {
            #[test]
            fn save_load_roundtrip_bit_identical_on_randomized_planner_output(seed in 0u64..1_000_000) {
                let fixture = fixture();
                let workload = generate_enumeration_workload(
                    &fixture.db,
                    EnumerationConfig {
                        num_queries: 1,
                        min_joins: 1,
                        max_joins: 3,
                        max_candidates_per_query: 10,
                        seed,
                    },
                );
                prop_assert!(!workload.is_empty(), "no enumerable query for seed {seed}");
                let encoded: Vec<EncodedPlan> =
                    workload[0].candidates.iter().map(|c| fixture.original.encode(c)).collect();
                let re_encoded: Vec<EncodedPlan> =
                    workload[0].candidates.iter().map(|c| fixture.reloaded.encode(c)).collect();
                prop_assert_eq!(&encoded, &re_encoded);

                let want = serve_encoded(&fixture.original, &encoded);
                let cold = serve_encoded(&fixture.reloaded, &re_encoded);
                let warm = serve_encoded(&fixture.reloaded, &re_encoded);
                prop_assert_eq!(bits(&want), bits(&cold));
                prop_assert_eq!(bits(&want), bits(&warm));
            }
        }
    }
}
