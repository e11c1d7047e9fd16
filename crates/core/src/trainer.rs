//! Training loop (Section 4.3): q-error loss on normalized log targets,
//! multitask cost+cardinality learning, Adam, mini-batches, per-epoch
//! validation statistics (the curves of Figures 7 and 8).
//!
//! Each mini-batch runs as **one** level-batched forward pass
//! ([`crate::batch::forward_batch`]) over a single reused tape, followed by a
//! single backward sweep seeded at both estimation heads
//! (`Graph::backward_multi`) — the same batching that accelerates inference
//! accelerates training.  Validation also goes through the batched path.

use crate::batch::{estimate_batch, forward_batch};
use crate::model::{TaskMode, TreeModel};
use featurize::EncodedPlan;
use metrics::q_error;
pub use metrics::EpochStats;
use nn::checkpoint::CheckpointError;
use nn::loss::NormalizationStats;
use nn::{Graph, Matrix, MiniBatchSchedule, TrainProgress};
use std::sync::Arc;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// Fraction of the samples held out for validation.
    pub validation_fraction: f64,
    /// Stop after this many epochs without validation improvement
    /// (`None` disables early stopping).
    pub early_stop_patience: Option<usize>,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            learning_rate: 0.001,
            validation_fraction: 0.1,
            early_stop_patience: None,
            seed: 1,
        }
    }
}

/// Target normalization fitted on the training set.
#[derive(Debug, Clone, Copy)]
pub struct TargetNormalization {
    pub cost: NormalizationStats,
    pub cardinality: NormalizationStats,
}

impl TargetNormalization {
    /// Fit normalization statistics over a training set.
    pub fn fit(samples: &[EncodedPlan]) -> Self {
        let costs: Vec<f64> = samples.iter().map(|s| s.true_cost).collect();
        let cards: Vec<f64> = samples.iter().map(|s| s.true_cardinality).collect();
        TargetNormalization { cost: NormalizationStats::fit(&costs), cardinality: NormalizationStats::fit(&cards) }
    }
}

/// Trainer: owns the model, the optimizer state and the normalization.
///
/// The model sits behind an `Arc` so serving handles
/// ([`crate::ServingEstimator`]) own the weights independently of the
/// trainer's lifetime; training mutates via copy-on-write
/// (`Arc::make_mut`), which is free while no handle is outstanding and
/// leaves outstanding handles pinned to the pre-training weights otherwise.
pub struct Trainer {
    pub model: Arc<TreeModel>,
    pub normalization: TargetNormalization,
    config: TrainConfig,
    progress: Option<TrainProgress>,
}

impl Trainer {
    /// Create a trainer; normalization is fitted on `samples`.
    pub fn new(model: TreeModel, samples: &[EncodedPlan], config: TrainConfig) -> Self {
        Trainer { model: Arc::new(model), normalization: TargetNormalization::fit(samples), config, progress: None }
    }

    /// Reassemble a trainer around an already-parameterized model and a
    /// previously-fitted normalization — the checkpoint-restore path.
    pub fn from_parts(model: TreeModel, normalization: TargetNormalization, config: TrainConfig) -> Self {
        Trainer { model: Arc::new(model), normalization, config, progress: None }
    }

    /// True when the trainer carries resumable training state (it trained
    /// in this process, or was restored from a v2 checkpoint with state);
    /// false after a model-only checkpoint load.
    pub fn is_resumable(&self) -> bool {
        self.progress.is_some()
    }

    /// Raise the total epoch budget by `extra` epochs so a completed run can
    /// be continued with [`Trainer::train`] (online fine-tuning).  Clears a
    /// tripped early-stop: the caller is explicitly asking for more epochs,
    /// typically on *new* data the old validation verdict knows nothing
    /// about.  The early-stop tracker itself (best metric, patience counter)
    /// is kept, so stopping can re-trip if the fresh data also plateaus.
    pub fn extend_epochs(&mut self, extra: usize) {
        self.config.epochs += extra;
        if let Some(progress) = self.progress.as_mut() {
            progress.stopped_early = false;
        }
    }

    /// Train on `samples`, returning per-epoch statistics.  A
    /// `validation_fraction` slice of the (shuffled) samples is held out and
    /// evaluated after each epoch; with `early_stop_patience` set, training
    /// stops once the validation metric goes that many epochs without
    /// improving.
    ///
    /// A fresh trainer runs epochs `0..config.epochs`.  A trainer carrying
    /// restored [`TrainProgress`] (resumed from a v2 checkpoint) continues
    /// at `epochs_done` and — given the same samples and hyper-parameters —
    /// reproduces the uninterrupted run bit for bit: the schedule's RNG
    /// stream is replayed through the completed epochs, and the Adam
    /// moments/step counter were restored with the parameters.
    pub fn train(&mut self, samples: &[EncodedPlan]) -> Vec<EpochStats> {
        let mut schedule = MiniBatchSchedule::new(
            samples.len(),
            self.config.validation_fraction,
            self.config.batch_size,
            self.config.seed,
        );
        let mut progress = self
            .progress
            .take()
            .unwrap_or_else(|| TrainProgress::new(self.config.learning_rate, self.config.early_stop_patience));
        schedule.skip_epochs(progress.epochs_done);
        let mut stats = Vec::with_capacity(self.config.epochs.saturating_sub(progress.epochs_done));
        // One tape reused across every mini-batch of every epoch: after the
        // first batch the forward pass draws all buffers from the pool.
        let mut g = Graph::new();

        while progress.wants_epoch(self.config.epochs) {
            let epoch = progress.epochs_done;
            let started = std::time::Instant::now();
            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            for batch_idx in schedule.epoch_batches() {
                let model = Arc::make_mut(&mut self.model);
                model.params.zero_grad();
                g.reset();
                epoch_loss += Self::train_batch(model, &self.normalization, &mut g, samples, batch_idx);
                seen += batch_idx.len();
                progress.optimizer.step(&mut Arc::make_mut(&mut self.model).params);
            }
            let (card_q, cost_q) = self.validation_error(samples, schedule.validation());
            let epoch_stats = EpochStats {
                epoch,
                train_loss: if seen > 0 { epoch_loss / seen as f64 } else { 0.0 },
                validation_card_qerror_mean: card_q,
                validation_cost_qerror_mean: cost_q,
                wall_time_secs: started.elapsed().as_secs_f64(),
            };
            progress.end_epoch(self.validation_metric(&epoch_stats));
            stats.push(epoch_stats);
        }
        self.progress = Some(progress);
        stats
    }

    /// The validation metric early stopping tracks for this trainer's task.
    fn validation_metric(&self, stats: &EpochStats) -> f64 {
        match self.model.config.task {
            TaskMode::CardinalityOnly => stats.validation_card_qerror_mean,
            TaskMode::CostOnly => stats.validation_cost_qerror_mean,
            TaskMode::Multitask => stats.validation_metric(),
        }
    }

    /// One level-batched forward + one two-head backward sweep over a
    /// mini-batch; returns the summed loss.
    fn train_batch(
        model: &mut TreeModel,
        normalization: &TargetNormalization,
        g: &mut Graph,
        samples: &[EncodedPlan],
        batch_idx: &[usize],
    ) -> f64 {
        let batch: Vec<&EncodedPlan> = batch_idx.iter().map(|&si| &samples[si]).collect();
        let (cost_out, card_out) = forward_batch(model, g, &batch);

        let task = model.config.task;
        let omega = model.config.cost_loss_weight as f32;
        let n = batch.len();
        let mut loss = 0.0f64;
        let mut seeds = Vec::with_capacity(2);
        if matches!(task, TaskMode::CostOnly | TaskMode::Multitask) {
            let mut seed = Matrix::zeros(1, n);
            for (j, sample) in batch.iter().enumerate() {
                let target = normalization.cost.normalize(sample.true_cost);
                let (l, grad) = normalization.cost.loss_and_grad(g.value(cost_out).get(0, j), target);
                loss += model.config.cost_loss_weight * l;
                seed.set(0, j, omega * grad);
            }
            seeds.push((cost_out, seed));
        }
        if matches!(task, TaskMode::CardinalityOnly | TaskMode::Multitask) {
            let mut seed = Matrix::zeros(1, n);
            for (j, sample) in batch.iter().enumerate() {
                let target = normalization.cardinality.normalize(sample.true_cardinality);
                let (l, grad) = normalization.cardinality.loss_and_grad(g.value(card_out).get(0, j), target);
                loss += l;
                seed.set(0, j, grad);
            }
            seeds.push((card_out, seed));
        }
        g.backward_multi(seeds, &mut model.params);
        loss
    }

    /// Mean validation q-errors `(cardinality, cost)`, computed with the
    /// level-batched inference path.  Unmeasured values are `NaN` — with no
    /// validation split at all, and for the head a single-task model does
    /// not train (its output exists but never received a gradient).  A fake
    /// finite number there would read as real data to any [`EpochStats`]
    /// consumer, and an empty-split 1.0 would make the early-stop policy
    /// fire after exactly `patience` epochs on zero signal (`EarlyStop`
    /// skips non-finite metrics instead).
    fn validation_error(&self, samples: &[EncodedPlan], val_idx: &[usize]) -> (f64, f64) {
        if val_idx.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        let val: Vec<&EncodedPlan> = val_idx.iter().map(|&i| &samples[i]).collect();
        let estimates = estimate_batch(&self.model, &self.normalization, &val);
        let mut card_sum = 0.0;
        let mut cost_sum = 0.0;
        for (plan, (cost, card)) in val.iter().zip(estimates.iter()) {
            cost_sum += q_error(*cost, plan.true_cost);
            card_sum += q_error(*card, plan.true_cardinality);
        }
        let task = self.model.config.task;
        let card_q = if matches!(task, TaskMode::CardinalityOnly | TaskMode::Multitask) {
            card_sum / val.len() as f64
        } else {
            f64::NAN
        };
        let cost_q = if matches!(task, TaskMode::CostOnly | TaskMode::Multitask) {
            cost_sum / val.len() as f64
        } else {
            f64::NAN
        };
        (card_q, cost_q)
    }

    /// Append the v2 training-state block ([`TrainProgress::write_block`]):
    /// a model-only trainer (fresh `from_parts`, e.g. after a plain
    /// checkpoint load) writes just the absent flag.
    pub(crate) fn write_training_state(&self, w: &mut impl std::io::Write) -> Result<(), CheckpointError> {
        TrainProgress::write_block(self.progress.as_ref(), &self.model.params, w)
    }

    /// Read a training-state block written by
    /// [`Trainer::write_training_state`], restoring the optimizer moments
    /// into this trainer's param store and the progress so the next `train`
    /// call resumes.  Returns whether the block carried any state.
    pub(crate) fn read_training_state(&mut self, r: &mut impl std::io::Read) -> Result<bool, CheckpointError> {
        let store = &mut Arc::make_mut(&mut self.model).params;
        self.progress =
            TrainProgress::read_block(r, store, self.config.learning_rate, self.config.early_stop_patience)?;
        Ok(self.progress.is_some())
    }

    /// Estimate (denormalized) `(cost, cardinality)` for one encoded plan via
    /// the per-node recursive forward on an inference-mode tape.
    pub fn estimate(&self, plan: &EncodedPlan) -> (f64, f64) {
        let mut g = Graph::inference();
        let (cost_out, card_out) = self.model.forward(&mut g, plan);
        (
            self.normalization.cost.denormalize(g.value(cost_out).data()[0]),
            self.normalization.cardinality.denormalize(g.value(card_out).data()[0]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, PredicateModelKind, RepresentationCellKind, TreeModel};
    use featurize::{EncodingConfig, FeatureExtractor};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, PlanNode, Predicate};
    use std::sync::Arc;
    use strembed::HashBitmapEncoder;

    /// Build a small synthetic training set of executed single-join plans.
    fn training_samples(n: usize) -> (Vec<EncodedPlan>, EncodingConfig) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
        let mut out = Vec::new();
        for i in 0..n {
            let year = 1940 + (i * 7) % 75;
            let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(year as f64))),
            });
            let other = if i % 2 == 0 { "movie_companies" } else { "movie_info_idx" };
            let scan_o = PlanNode::leaf(PhysicalOp::SeqScan { table: other.into(), predicate: None });
            let mut join = PlanNode::inner(
                PhysicalOp::HashJoin { condition: JoinPredicate::new(other, "movie_id", "title", "id") },
                vec![scan_t, scan_o],
            );
            engine::execute_plan(&db, &mut join);
            out.push(fx.encode_plan(&join));
        }
        (out, cfg)
    }

    #[test]
    fn training_reduces_validation_error() {
        let (samples, cfg) = training_samples(60);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, ..Default::default() },
        );
        let mut trainer = Trainer::new(
            model,
            &samples,
            TrainConfig { epochs: 8, batch_size: 8, learning_rate: 0.005, ..Default::default() },
        );
        let stats = trainer.train(&samples);
        assert_eq!(stats.len(), 8);
        let first = stats.first().expect("stats");
        let last = stats.last().expect("stats");
        assert!(
            last.validation_card_qerror_mean <= first.validation_card_qerror_mean * 1.5,
            "validation error exploded: {} -> {}",
            first.validation_card_qerror_mean,
            last.validation_card_qerror_mean
        );
        assert!(last.train_loss.is_finite());
    }

    #[test]
    fn trained_model_beats_untrained_on_training_data() {
        let (samples, cfg) = training_samples(50);
        let mk = || {
            TreeModel::new(
                &cfg,
                ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, ..Default::default() },
            )
        };
        let untrained = Trainer::new(mk(), &samples, TrainConfig::default());
        let mut trained = Trainer::new(
            mk(),
            &samples,
            TrainConfig { epochs: 12, batch_size: 8, learning_rate: 0.005, ..Default::default() },
        );
        trained.train(&samples);

        let mean_q = |t: &Trainer| {
            samples.iter().map(|s| q_error(t.estimate(s).1, s.true_cardinality)).sum::<f64>() / samples.len() as f64
        };
        let q_untrained = mean_q(&untrained);
        let q_trained = mean_q(&trained);
        assert!(
            q_trained < q_untrained,
            "training did not improve cardinality q-error: {q_untrained:.2} -> {q_trained:.2}"
        );
    }

    #[test]
    fn all_model_variants_train_one_epoch() {
        let (samples, cfg) = training_samples(12);
        for cell in [RepresentationCellKind::Lstm, RepresentationCellKind::Nn] {
            for pred in [PredicateModelKind::MinMaxPool, PredicateModelKind::TreeLstm] {
                for task in [TaskMode::CardinalityOnly, TaskMode::CostOnly, TaskMode::Multitask] {
                    let model = TreeModel::new(
                        &cfg,
                        ModelConfig {
                            cell,
                            predicate: pred,
                            task,
                            feature_embed_dim: 8,
                            hidden_dim: 12,
                            estimation_hidden_dim: 8,
                            ..Default::default()
                        },
                    );
                    let mut trainer =
                        Trainer::new(model, &samples, TrainConfig { epochs: 1, batch_size: 4, ..Default::default() });
                    let stats = trainer.train(&samples);
                    assert_eq!(stats.len(), 1);
                    assert!(stats[0].train_loss.is_finite());
                    // Only trained heads report a (finite) validation error;
                    // untrained heads are NaN per the EpochStats contract.
                    let card_q = stats[0].validation_card_qerror_mean;
                    let cost_q = stats[0].validation_cost_qerror_mean;
                    match task {
                        TaskMode::CardinalityOnly => assert!(card_q.is_finite() && cost_q.is_nan()),
                        TaskMode::CostOnly => assert!(card_q.is_nan() && cost_q.is_finite()),
                        TaskMode::Multitask => assert!(card_q.is_finite() && cost_q.is_finite()),
                    }
                }
            }
        }
    }

    #[test]
    fn no_validation_split_reports_nan_and_never_trips_early_stop() {
        let (samples, cfg) = training_samples(16);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let mut trainer = Trainer::new(
            model,
            &samples,
            TrainConfig {
                epochs: 4,
                batch_size: 8,
                validation_fraction: 0.0,
                early_stop_patience: Some(1),
                ..Default::default()
            },
        );
        let stats = trainer.train(&samples);
        // No validation data: every epoch runs (nothing to stop on) and the
        // unmeasured q-errors are NaN, not a fake 1.0.
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.validation_card_qerror_mean.is_nan()));
        assert!(stats.iter().all(|s| s.validation_cost_qerror_mean.is_nan()));
        assert!(stats.iter().all(|s| s.train_loss.is_finite()));
    }

    #[test]
    fn early_stop_halts_before_epoch_budget() {
        let (samples, cfg) = training_samples(40);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        // Zero learning rate: the validation metric can never improve after
        // epoch 0, so patience=2 must stop training at epoch 3 of 50.
        let mut trainer = Trainer::new(
            model,
            &samples,
            TrainConfig {
                epochs: 50,
                batch_size: 8,
                learning_rate: 0.0,
                early_stop_patience: Some(2),
                ..Default::default()
            },
        );
        let stats = trainer.train(&samples);
        assert_eq!(stats.len(), 3, "patience 2 with a flat metric must stop after epoch 2");
    }

    #[test]
    fn estimates_are_positive_and_finite() {
        let (samples, cfg) = training_samples(20);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 16, estimation_hidden_dim: 8, ..Default::default() },
        );
        let mut trainer = Trainer::new(model, &samples, TrainConfig { epochs: 2, batch_size: 8, ..Default::default() });
        trainer.train(&samples);
        for s in &samples {
            let (cost, card) = trainer.estimate(s);
            assert!(cost.is_finite() && cost >= 1.0);
            assert!(card.is_finite() && card >= 1.0);
        }
    }
}
