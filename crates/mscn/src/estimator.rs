//! MSCN behind the pluggable-backend contract.
//!
//! [`MscnEstimator`] packages the featurizer, the model configuration and a
//! (possibly absent) fitted trainer into one object implementing
//! [`estimator_core::Estimator`], so the registry-driven bench loop treats
//! MSCN exactly like the tree model — fit from annotated plans, batched
//! estimation, versioned checkpointing.  MSCN is single-task: the
//! capability flags advertise only the target selected by
//! [`MscnConfig::predict_cost`], and the other estimate slot stays `None`.

use crate::featurize_query::{MscnFeaturizer, QuerySets};
use crate::model::{MscnConfig, MscnModel, MscnTrainer};
use estimator_core::checkpoint as vocab_ckpt;
use estimator_core::{Estimator, EstimatorCapabilities, PlanEstimate};
use featurize::EncodingConfig;
use imdb::Database;
use metrics::EpochStats;
use nn::checkpoint::CheckpointError;
use query::PlanNode;
use std::path::Path;
use std::sync::Arc;

/// The MSCN baseline as a pluggable estimator backend.
pub struct MscnEstimator {
    featurizer: MscnFeaturizer,
    config: MscnConfig,
    trainer: Option<MscnTrainer>,
}

impl MscnEstimator {
    /// Build an unfitted backend over the shared encoding configuration.
    pub fn new(db: Arc<Database>, enc: EncodingConfig, config: MscnConfig) -> Self {
        MscnEstimator { featurizer: MscnFeaturizer::new(db, enc), config, trainer: None }
    }

    /// Fit on annotated plans (featurize + train), replacing any prior fit.
    pub fn fit(&mut self, plans: &[PlanNode]) -> Vec<EpochStats> {
        let sets: Vec<QuerySets> = plans.iter().map(|p| self.featurizer.featurize(p)).collect();
        let model = MscnModel::new(
            self.featurizer.table_dim(),
            self.featurizer.join_dim(),
            self.featurizer.predicate_dim(),
            self.config,
        );
        let mut trainer = MscnTrainer::new(model, &sets);
        let stats = trainer.train(&sets);
        self.trainer = Some(trainer);
        stats
    }

    /// Restore a checkpoint including its training state, so
    /// [`MscnEstimator::fit_resumed`] can continue the interrupted run.
    /// Verifies the vocabulary exactly like
    /// [`Estimator::load_checkpoint_from`]; fails with
    /// [`CheckpointError::Unsupported`] on a v1 or model-only file.  On any
    /// error the estimator is left untouched.
    pub fn resume_from_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        self.load_impl(path, true)
    }

    fn load_impl(&mut self, path: &Path, require_state: bool) -> Result<(), CheckpointError> {
        // One pass over the stream: the trainer body, then the vocab section
        // the save appended.  Everything is verified before `self` changes.
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        let trainer = MscnTrainer::load_checkpoint_from(&mut r)?;
        if require_state && !trainer.is_resumable() {
            return Err(CheckpointError::Unsupported("checkpoint carries no MSCN training state to resume from"));
        }
        let vocab = vocab_ckpt::read_vocab(&mut r)?;
        vocab.verify(self.featurizer.config(), self.featurizer.use_sample_bitmap)?;
        if trainer.model.table_dim() != self.featurizer.table_dim()
            || trainer.model.join_dim() != self.featurizer.join_dim()
            || trainer.model.predicate_dim() != self.featurizer.predicate_dim()
        {
            return Err(CheckpointError::VocabMismatch("MSCN set-element widths differ".into()));
        }
        // Adopt only what describes the loaded weights: the served target
        // (capabilities must match the checkpoint) and the architecture
        // width a re-fit would rebuild.  Training hyper-parameters (epochs,
        // learning rate, splits, patience, seed) stay the caller's — same
        // policy as `CostEstimator::load_checkpoint`, which keeps its
        // `TrainConfig` and restores only the model configuration.
        self.config.predict_cost = trainer.model.config.predict_cost;
        self.config.hidden_dim = trainer.model.config.hidden_dim;
        self.trainer = Some(trainer);
        Ok(())
    }

    /// Continue an interrupted training run (after
    /// [`MscnEstimator::resume_from_checkpoint`]) until `config.epochs`
    /// total epochs are done — bit-identical to an uninterrupted fit given
    /// the same plans and hyper-parameters.  Unlike [`MscnEstimator::fit`],
    /// nothing is re-initialized.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Unsupported`] when there is nothing to
    /// resume: no trainer, or a trainer without resumable training state (a
    /// model-only v1 load) — restarting from epoch 0 would masquerade as a
    /// continuation.  The estimator is left untouched.
    pub fn fit_resumed(&mut self, plans: &[PlanNode]) -> Result<Vec<EpochStats>, CheckpointError> {
        let trainer = self.trainer.as_mut().ok_or(CheckpointError::Unsupported(
            "fit_resumed called with nothing to resume: the estimator has never been fitted or loaded",
        ))?;
        if !trainer.is_resumable() {
            return Err(CheckpointError::Unsupported(
                "fit_resumed called with nothing to resume: the checkpoint carried no resumable training state",
            ));
        }
        let sets: Vec<QuerySets> = plans.iter().map(|p| self.featurizer.featurize(p)).collect();
        // The caller's epoch budget is the resumed target; every other
        // hyper-parameter comes from the checkpoint and must match the
        // interrupted run for bit-identical continuation.
        trainer.model.config.epochs = self.config.epochs;
        Ok(trainer.train(&sets))
    }

    fn fitted(&self) -> &MscnTrainer {
        self.trainer.as_ref().expect("MscnEstimator used before fit")
    }

    fn wrap(&self, value: f64) -> PlanEstimate {
        if self.config.predict_cost {
            PlanEstimate { cost: Some(value), cardinality: None }
        } else {
            PlanEstimate { cost: None, cardinality: Some(value) }
        }
    }
}

impl Estimator for MscnEstimator {
    fn capabilities(&self) -> EstimatorCapabilities {
        EstimatorCapabilities {
            cost: self.config.predict_cost,
            cardinality: !self.config.predict_cost,
            checkpointable: true,
        }
    }

    fn fit_plans(&mut self, plans: &[PlanNode]) -> Vec<EpochStats> {
        self.fit(plans)
    }

    fn is_fitted(&self) -> bool {
        self.trainer.is_some()
    }

    fn estimate_many(&self, plans: &[PlanNode]) -> Vec<PlanEstimate> {
        let sets: Vec<QuerySets> = plans.iter().map(|p| self.featurizer.featurize(p)).collect();
        self.fitted().estimate_batch(&sets).into_iter().map(|v| self.wrap(v)).collect()
    }

    fn save_checkpoint_to(&self, path: &Path) -> Result<(), CheckpointError> {
        use std::io::Write as _;
        let trainer = self.trainer.as_ref().ok_or(CheckpointError::Unsupported("save_checkpoint called before fit"))?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        trainer.save_checkpoint_to(&mut w)?;
        // Trailing section: the featurizer's vocabulary, so a load can
        // verify feature positions exactly like the tree estimator does.
        vocab_ckpt::write_vocab(&mut w, self.featurizer.config(), self.featurizer.use_sample_bitmap)?;
        Ok(w.flush()?)
    }

    fn load_checkpoint_from(&mut self, path: &Path) -> Result<(), CheckpointError> {
        self.load_impl(path, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{execute_plan, CostModel};
    use imdb::{generate_imdb, GeneratorConfig};
    use nn::checkpoint as ckpt;
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, Predicate};

    fn setup(predict_cost: bool) -> (MscnEstimator, Vec<PlanNode>) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let enc = EncodingConfig::from_database(&db, 8, 32);
        let config = MscnConfig { epochs: 3, hidden_dim: 16, predict_cost, ..Default::default() };
        let est = MscnEstimator::new(db.clone(), enc, config);
        let cost = CostModel::default();
        let plans: Vec<PlanNode> = (0..24)
            .map(|i| {
                let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                    table: "title".into(),
                    predicate: Some(Predicate::atom(
                        "title",
                        "production_year",
                        CompareOp::Gt,
                        Operand::Num((1935 + i * 2) as f64),
                    )),
                });
                let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
                let mut join = PlanNode::inner(
                    PhysicalOp::HashJoin {
                        condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id"),
                    },
                    vec![scan_t, scan_mc],
                );
                execute_plan(&db, &mut join, &cost);
                join
            })
            .collect();
        (est, plans)
    }

    #[test]
    fn trait_driven_fit_and_estimate_respects_capabilities() {
        let (mut est, plans) = setup(false);
        assert!(!Estimator::is_fitted(&est));
        let stats = est.fit_plans(&plans);
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.train_loss.is_finite()));
        assert!(stats.iter().all(|s| s.validation_card_qerror_mean.is_finite()));
        assert!(stats.iter().all(|s| s.validation_cost_qerror_mean.is_nan()));
        assert!(stats.iter().all(|s| s.wall_time_secs > 0.0));

        let caps = est.capabilities();
        assert!(caps.cardinality && !caps.cost && caps.checkpointable);
        let many = est.estimate_many(&plans);
        assert_eq!(many.len(), plans.len());
        assert!(many.iter().all(|e| e.cost.is_none() && e.cardinality.expect("card slot").is_finite()));
    }

    mod resume_property {
        //! Satellite guard (MSCN half): `fit` for N epochs bit-identical to
        //! `fit` for k → checkpoint → `resume_from_checkpoint` →
        //! `fit_resumed` for N−k.  Distinct (N, k) combos verified once.

        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;
        use std::sync::{Mutex, OnceLock};

        fn verified() -> &'static Mutex<HashSet<(usize, usize)>> {
            static MEMO: OnceLock<Mutex<HashSet<(usize, usize)>>> = OnceLock::new();
            MEMO.get_or_init(|| Mutex::new(HashSet::new()))
        }

        fn setup_with_epochs(epochs: usize) -> (MscnEstimator, Vec<PlanNode>) {
            let (mut est, plans) = setup(false);
            est.config.epochs = epochs;
            (est, plans)
        }

        fn verify_combo(n: usize, k: usize) {
            let (mut uninterrupted, plans) = setup_with_epochs(n);
            let full_stats = uninterrupted.fit_plans(&plans);
            let bits = |est: &MscnEstimator| -> Vec<u64> {
                est.estimate_many(&plans).iter().map(|e| e.cardinality.expect("card").to_bits()).collect()
            };
            let want = bits(&uninterrupted);

            let (mut interrupted, _) = setup_with_epochs(k);
            interrupted.fit_plans(&plans);
            let path = std::env::temp_dir().join(format!("e2e-mscn-resume-{}-{n}-{k}.ckpt", std::process::id()));
            Estimator::save_checkpoint_to(&interrupted, &path).expect("save mid-training checkpoint");
            drop(interrupted);

            let (mut resumed, _) = setup_with_epochs(n);
            resumed.resume_from_checkpoint(&path).expect("resume");
            let _ = std::fs::remove_file(&path);
            let tail_stats = resumed.fit_resumed(&plans).expect("a resumed checkpoint carries training state");
            assert_eq!(tail_stats.len(), full_stats.len() - k);
            for (tail, full) in tail_stats.iter().zip(&full_stats[k..]) {
                assert_eq!(tail.epoch, full.epoch);
                assert_eq!(
                    tail.train_loss.to_bits(),
                    full.train_loss.to_bits(),
                    "MSCN epoch {} loss diverged after resume (N={n}, k={k})",
                    full.epoch
                );
            }
            assert_eq!(bits(&resumed), want, "resumed MSCN training must be bit-identical (N={n}, k={k})");
        }

        proptest! {
            #[test]
            fn resumed_mscn_training_is_bit_identical(n in 2usize..5, k_sel in 0usize..8) {
                let k = 1 + k_sel % (n - 1);
                if verified().lock().expect("memo").insert((n, k)) {
                    verify_combo(n, k);
                }
            }
        }
    }

    #[test]
    fn model_only_and_stateless_checkpoints_refuse_to_resume() {
        let (mut est, plans) = setup(false);
        est.fit_plans(&plans);
        let path = std::env::temp_dir().join(format!("e2e-mscn-noresume-{}.ckpt", std::process::id()));
        Estimator::save_checkpoint_to(&est, &path).expect("save");
        // A loaded checkpoint keeps its training state, so resume works...
        let (mut resumable, _) = setup(false);
        resumable.resume_from_checkpoint(&path).expect("v2 with state resumes");
        // ...but the estimates of a failed resume target stay untouched.
        let (mut other, _) = setup(false);
        other.fit_plans(&plans);
        let before: Vec<_> = other.estimate_many(&plans);
        assert!(matches!(other.resume_from_checkpoint(&path.with_extension("missing")), Err(CheckpointError::Io(_))));
        assert_eq!(other.estimate_many(&plans), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_roundtrip_bit_identical_and_vocab_checked() {
        let (mut est, plans) = setup(true);
        est.fit_plans(&plans);
        let before: Vec<u64> = est.estimate_many(&plans).iter().map(|e| e.cost.expect("cost slot").to_bits()).collect();
        let path = std::env::temp_dir().join(format!("e2e-mscn-test-{}.ckpt", std::process::id()));
        est.save_checkpoint_to(&path).expect("save");

        // Fresh-context reload.
        let (mut warm, _) = setup(true);
        assert!(!Estimator::is_fitted(&warm));
        warm.load_checkpoint_from(&path).expect("load");
        let after: Vec<u64> = warm.estimate_many(&plans).iter().map(|e| e.cost.expect("cost slot").to_bits()).collect();
        assert_eq!(before, after, "reloaded MSCN checkpoint must serve bit-identical estimates");

        // A featurizer with a different sample width must refuse the file.
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let enc16 = EncodingConfig::from_database(&db, 8, 16);
        let mut other = MscnEstimator::new(db, enc16, MscnConfig { predict_cost: true, ..Default::default() });
        assert!(matches!(other.load_checkpoint_from(&path), Err(CheckpointError::VocabMismatch(_))));
        // Feeding an MSCN checkpoint to the tree loader is a typed error in
        // the other direction too: wrong kind byte.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[12] = ckpt::KIND_TREE_ESTIMATOR;
        std::fs::write(&path, &bytes).expect("write");
        let (mut wrong, _) = setup(true);
        assert!(matches!(wrong.load_checkpoint_from(&path), Err(CheckpointError::WrongKind { .. })));
        let _ = std::fs::remove_file(&path);
    }
}
