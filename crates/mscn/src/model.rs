//! The MSCN model: per-set MLPs, average pooling, final MLP.

use crate::featurize_query::QuerySets;
use metrics::{q_error, EpochStats};
use nn::checkpoint as ckpt;
use nn::checkpoint::CheckpointError;
use nn::layers::Mlp2;
use nn::loss::NormalizationStats;
use nn::{Graph, Matrix, MiniBatchSchedule, NodeId, ParamStore, TrainProgress};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// MSCN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct MscnConfig {
    pub hidden_dim: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// Train the cost head (true) or the cardinality head (false) — MSCN is a
    /// single-task model in the paper; both are provided for Tables 7 and 8.
    pub predict_cost: bool,
    /// Fraction of the samples held out for validation.
    pub validation_fraction: f64,
    /// Stop after this many epochs without validation improvement
    /// (`None` disables early stopping).
    pub early_stop_patience: Option<usize>,
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        MscnConfig {
            hidden_dim: 32,
            epochs: 10,
            batch_size: 32,
            learning_rate: 0.001,
            predict_cost: false,
            validation_fraction: 0.1,
            early_stop_patience: None,
            seed: 3,
        }
    }
}

/// The MSCN network parameters.
pub struct MscnModel {
    pub config: MscnConfig,
    pub params: ParamStore,
    table_mlp: Mlp2,
    join_mlp: Mlp2,
    pred_mlp: Mlp2,
    out_mlp: Mlp2,
}

impl MscnModel {
    /// Build a model for the given set-element widths.
    pub fn new(table_dim: usize, join_dim: usize, pred_dim: usize, config: MscnConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut params = ParamStore::new();
        let h = config.hidden_dim;
        let table_mlp = Mlp2::new(&mut params, "mscn.table", table_dim, h, h, &mut rng);
        let join_mlp = Mlp2::new(&mut params, "mscn.join", join_dim, h, h, &mut rng);
        let pred_mlp = Mlp2::new(&mut params, "mscn.pred", pred_dim, h, h, &mut rng);
        let out_mlp = Mlp2::new(&mut params, "mscn.out", 3 * h, h, 1, &mut rng);
        MscnModel { config, params, table_mlp, join_mlp, pred_mlp, out_mlp }
    }

    /// Width of one table-set element (as constructed).
    pub fn table_dim(&self) -> usize {
        self.table_mlp.l1.in_dim()
    }

    /// Width of one join-set element (as constructed).
    pub fn join_dim(&self) -> usize {
        self.join_mlp.l1.in_dim()
    }

    /// Width of one predicate-set element (as constructed).
    pub fn predicate_dim(&self) -> usize {
        self.pred_mlp.l1.in_dim()
    }

    /// Average-pool the per-element MLP outputs of one set.
    fn pool_set(&self, g: &mut Graph, store: &ParamStore, mlp: &Mlp2, set: &[Vec<f32>]) -> NodeId {
        let outs: Vec<NodeId> = set
            .iter()
            .map(|v| {
                let x = g.input(Matrix::column(v));
                let h = mlp.forward(g, store, x);
                g.relu(h)
            })
            .collect();
        let mut acc = outs[0];
        for &o in &outs[1..] {
            acc = g.add(acc, o);
        }
        g.scale(acc, 1.0 / set.len() as f32)
    }

    /// Forward pass: the normalized prediction (sigmoid output).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, sets: &QuerySets) -> NodeId {
        let t = self.pool_set(g, store, &self.table_mlp, &sets.tables);
        let j = self.pool_set(g, store, &self.join_mlp, &sets.joins);
        let p = self.pool_set(g, store, &self.pred_mlp, &sets.predicates);
        let concat = g.concat_rows(&[t, j, p]);
        self.out_mlp.forward_sigmoid(g, store, concat)
    }

    /// One set kind across a whole batch of queries: every element of every
    /// query's set is column-stacked into a single `dim x total` input so
    /// the set MLP runs as **one** blocked matmul per layer (instead of one
    /// tiny matmul per element per query), then the per-query averages fall
    /// out of one matmul with a sparse pooling matrix whose column `q` holds
    /// `1/|set_q|` on the rows of query `q`'s elements.
    ///
    /// The pooling matmul is dense (`hidden x total x queries` MACs, of
    /// which only the block diagonal is non-zero), so it scales a factor of
    /// `queries` worse than a segment-sum; at estimation batch sizes (tens
    /// to hundreds of queries) it stays far below the set-MLP cost it
    /// amortizes, but a many-thousand-query batch would want a dedicated
    /// segment-mean kernel instead.
    fn pool_sets_batch(&self, g: &mut Graph, store: &ParamStore, mlp: &Mlp2, sets: &[&[Vec<f32>]]) -> NodeId {
        let dim = mlp.l1.in_dim();
        let total: usize = sets.iter().map(|s| s.len()).sum();
        let mut x = Matrix::zeros(dim, total);
        let mut col = 0;
        for set in sets {
            for v in *set {
                for (r, &val) in v.iter().enumerate() {
                    x.set(r, col, val);
                }
                col += 1;
            }
        }
        let x = g.input(x);
        let h = mlp.forward(g, store, x);
        let h = g.relu(h);
        let mut pool = Matrix::zeros(total, sets.len());
        let mut row = 0;
        for (q, set) in sets.iter().enumerate() {
            let w = 1.0 / set.len() as f32;
            for _ in 0..set.len() {
                pool.set(row, q, w);
                row += 1;
            }
        }
        let pool = g.input(pool);
        g.matmul(h, pool)
    }

    /// Batched forward pass over many queries: the normalized predictions as
    /// a `1 x queries.len()` node, in input order.  Matches
    /// [`MscnModel::forward`] per query up to f32 summation order (the
    /// per-query path pools with an add chain, this one with a dot product).
    ///
    /// # Panics
    /// Panics if `queries` is empty.
    pub fn forward_batch(&self, g: &mut Graph, store: &ParamStore, queries: &[&QuerySets]) -> NodeId {
        assert!(!queries.is_empty(), "forward_batch needs at least one query");
        let tables: Vec<&[Vec<f32>]> = queries.iter().map(|s| s.tables.as_slice()).collect();
        let joins: Vec<&[Vec<f32>]> = queries.iter().map(|s| s.joins.as_slice()).collect();
        let preds: Vec<&[Vec<f32>]> = queries.iter().map(|s| s.predicates.as_slice()).collect();
        let t = self.pool_sets_batch(g, store, &self.table_mlp, &tables);
        let j = self.pool_sets_batch(g, store, &self.join_mlp, &joins);
        let p = self.pool_sets_batch(g, store, &self.pred_mlp, &preds);
        let concat = g.concat_rows(&[t, j, p]);
        self.out_mlp.forward_sigmoid(g, store, concat)
    }
}

/// Trainer for MSCN (single-task, MSE-style loss on normalized log targets).
pub struct MscnTrainer {
    pub model: MscnModel,
    pub normalization: NormalizationStats,
    progress: Option<TrainProgress>,
}

impl MscnTrainer {
    /// Fit target normalization and wrap the model.
    pub fn new(model: MscnModel, samples: &[QuerySets]) -> Self {
        let targets: Vec<f64> =
            samples.iter().map(|s| if model.config.predict_cost { s.true_cost } else { s.true_cardinality }).collect();
        MscnTrainer { model, normalization: NormalizationStats::fit(&targets), progress: None }
    }

    fn target(&self, s: &QuerySets) -> f64 {
        if self.model.config.predict_cost {
            s.true_cost
        } else {
            s.true_cardinality
        }
    }

    /// Train on `samples`, returning the shared per-epoch statistics
    /// (training loss, validation q-error of the trained target, wall time).
    ///
    /// The validation split, per-epoch mini-batch shuffling and the
    /// early-stop policy all come from the shared
    /// [`nn::MiniBatchSchedule`] / [`nn::EarlyStop`] helpers — the same
    /// scaffolding the tree-model trainer runs on.  The q-error slot of the
    /// target MSCN does not train is `f64::NAN`.
    /// A fresh trainer runs epochs `0..config.epochs`; one carrying restored
    /// progress (via [`crate::MscnEstimator::resume_from_checkpoint`]) continues at
    /// `epochs_done`, replaying the schedule's RNG through the completed
    /// epochs so the resumed run is bit-identical to an uninterrupted one.
    pub fn train(&mut self, samples: &[QuerySets]) -> Vec<EpochStats> {
        let cfg = self.model.config;
        let mut schedule = MiniBatchSchedule::new(samples.len(), cfg.validation_fraction, cfg.batch_size, cfg.seed);
        let mut progress =
            self.progress.take().unwrap_or_else(|| TrainProgress::new(cfg.learning_rate, cfg.early_stop_patience));
        schedule.skip_epochs(progress.epochs_done);
        let mut stats = Vec::with_capacity(cfg.epochs.saturating_sub(progress.epochs_done));
        let val_refs: Vec<&QuerySets> = schedule.validation().iter().map(|&i| &samples[i]).collect();
        while progress.wants_epoch(cfg.epochs) {
            let epoch = progress.epochs_done;
            let started = std::time::Instant::now();
            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            for batch in schedule.epoch_batches() {
                self.model.params.zero_grad();
                for &si in batch {
                    let s = &samples[si];
                    let target = self.normalization.normalize(self.target(s));
                    let mut g = Graph::new();
                    let out = self.model.forward(&mut g, &self.model.params, s);
                    let val = g.value(out).data()[0];
                    let (loss, grad) = self.normalization.loss_and_grad(val, target);
                    epoch_loss += loss;
                    g.backward(out, Matrix::from_vec(1, 1, vec![grad]), &mut self.model.params);
                }
                seen += batch.len();
                progress.optimizer.step(&mut self.model.params);
            }
            let val_q = if val_refs.is_empty() {
                f64::NAN
            } else {
                let estimates = self.estimate_refs(&val_refs);
                val_refs.iter().zip(estimates.iter()).map(|(s, &e)| q_error(e, self.target(s))).sum::<f64>()
                    / val_refs.len() as f64
            };
            let (card_q, cost_q) = if cfg.predict_cost { (f64::NAN, val_q) } else { (val_q, f64::NAN) };
            stats.push(EpochStats {
                epoch,
                train_loss: if seen > 0 { epoch_loss / seen as f64 } else { 0.0 },
                validation_card_qerror_mean: card_q,
                validation_cost_qerror_mean: cost_q,
                wall_time_secs: started.elapsed().as_secs_f64(),
            });
            progress.end_epoch(val_q);
        }
        self.progress = Some(progress);
        stats
    }

    /// Predict the denormalized target for one query.
    pub fn estimate(&self, sets: &QuerySets) -> f64 {
        let mut g = Graph::new();
        let out = self.model.forward(&mut g, &self.model.params, sets);
        self.normalization.denormalize(g.value(out).data()[0])
    }

    /// Predict the denormalized target for a whole batch of queries at once
    /// on an inference-mode tape, packing every set through one blocked
    /// matmul per layer ([`MscnModel::forward_batch`]) — the MSCN analogue
    /// of the tree models' level-batched inference.
    pub fn estimate_batch(&self, samples: &[QuerySets]) -> Vec<f64> {
        let refs: Vec<&QuerySets> = samples.iter().collect();
        self.estimate_refs(&refs)
    }

    /// Batched estimation over borrowed queries (the validation loop's path).
    pub fn estimate_refs(&self, refs: &[&QuerySets]) -> Vec<f64> {
        if refs.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::inference();
        let out = self.model.forward_batch(&mut g, &self.model.params, refs);
        let vals = g.value(out);
        (0..refs.len()).map(|i| self.normalization.denormalize(vals.get(0, i))).collect()
    }

    /// Serialize the fitted MSCN model (config + set-element widths +
    /// target normalization + parameters) into `w` — the MSCN equivalent of
    /// `CostEstimator::save_checkpoint`, and just as bit-identical on
    /// reload.  Callers may append further sections (e.g. a vocab snapshot)
    /// to the same stream.
    pub fn save_checkpoint_to(&self, w: &mut impl std::io::Write) -> Result<(), CheckpointError> {
        let cfg = self.model.config;
        ckpt::write_header(w, ckpt::KIND_MSCN)?;
        ckpt::write_u64(w, cfg.hidden_dim as u64)?;
        ckpt::write_u64(w, cfg.epochs as u64)?;
        ckpt::write_u64(w, cfg.batch_size as u64)?;
        ckpt::write_f64(w, cfg.learning_rate as f64)?;
        ckpt::write_u8(w, cfg.predict_cost as u8)?;
        ckpt::write_f64(w, cfg.validation_fraction)?;
        ckpt::write_u8(w, cfg.early_stop_patience.is_some() as u8)?;
        ckpt::write_u64(w, cfg.early_stop_patience.unwrap_or(0) as u64)?;
        ckpt::write_u64(w, cfg.seed)?;
        ckpt::write_u64(w, self.model.table_dim() as u64)?;
        ckpt::write_u64(w, self.model.join_dim() as u64)?;
        ckpt::write_u64(w, self.model.predicate_dim() as u64)?;
        ckpt::write_f64(w, self.normalization.log_min)?;
        ckpt::write_f64(w, self.normalization.log_max)?;
        self.model.params.save_to(w)?;
        // The v2 training-state block: presence flag, then the resumable state.
        TrainProgress::write_block(self.progress.as_ref(), &self.model.params, w)
    }

    /// Restore a trainer saved by [`MscnTrainer::save_checkpoint_to`]; the
    /// returned trainer serves bit-identical estimates with zero
    /// retraining.  The reader is left positioned after the parameter
    /// payload, so callers can read any sections they appended.
    pub fn load_checkpoint_from(r: &mut impl std::io::Read) -> Result<MscnTrainer, CheckpointError> {
        let version = ckpt::read_header(r, ckpt::KIND_MSCN)?;
        let hidden_dim = ckpt::read_u64(r, "hidden dim")? as usize;
        let epochs = ckpt::read_u64(r, "epochs")? as usize;
        let batch_size = ckpt::read_u64(r, "batch size")? as usize;
        let learning_rate = ckpt::read_f64(r, "learning rate")? as f32;
        let predict_cost = ckpt::read_u8(r, "predict_cost flag")? != 0;
        let validation_fraction = ckpt::read_f64(r, "validation fraction")?;
        let has_patience = ckpt::read_u8(r, "early-stop flag")? != 0;
        let patience = ckpt::read_u64(r, "early-stop patience")? as usize;
        let seed = ckpt::read_u64(r, "seed")?;
        let config = MscnConfig {
            hidden_dim,
            epochs,
            batch_size,
            learning_rate,
            predict_cost,
            validation_fraction,
            early_stop_patience: has_patience.then_some(patience),
            seed,
        };
        let table_dim = ckpt::read_u64(r, "table dim")? as usize;
        let join_dim = ckpt::read_u64(r, "join dim")? as usize;
        let pred_dim = ckpt::read_u64(r, "predicate dim")? as usize;
        let normalization = NormalizationStats {
            log_min: ckpt::read_f64(r, "target log_min")?,
            log_max: ckpt::read_f64(r, "target log_max")?,
        };
        let mut model = MscnModel::new(table_dim, join_dim, pred_dim, config);
        model.params.load_values_from(r)?;
        // The v2 training-state block sits between the parameters and any
        // caller-appended sections, so it must be consumed even by a
        // model-only load; v1 files simply do not have it.
        let progress = if version >= 2 {
            TrainProgress::read_block(r, &mut model.params, config.learning_rate, config.early_stop_patience)?
        } else {
            None
        };
        Ok(MscnTrainer { model, normalization, progress })
    }

    /// True when the trainer carries resumable training state.
    pub fn is_resumable(&self) -> bool {
        self.progress.is_some()
    }

    /// Mean q-error over a workload.
    pub fn mean_qerror(&self, samples: &[QuerySets]) -> f64 {
        if samples.is_empty() {
            return 1.0;
        }
        samples.iter().map(|s| q_error(self.estimate(s), self.target(s))).sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize_query::MscnFeaturizer;
    use engine::{execute_plan, CostModel};
    use featurize::EncodingConfig;
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, PlanNode, Predicate};
    use std::sync::Arc;

    fn dataset(n: usize) -> (Vec<QuerySets>, MscnFeaturizer) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = MscnFeaturizer::new(db.clone(), cfg);
        let cost = CostModel::default();
        let mut out = Vec::new();
        for i in 0..n {
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
                PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
                vec![scan_t, scan_mc],
            );
            execute_plan(&db, &mut join, &cost);
            out.push(fx.featurize(&join));
        }
        (out, fx)
    }

    #[test]
    fn forward_produces_unit_interval_output() {
        let (samples, fx) = dataset(4);
        let model = MscnModel::new(fx.table_dim(), fx.join_dim(), fx.predicate_dim(), MscnConfig::default());
        let mut g = Graph::new();
        let out = model.forward(&mut g, &model.params, &samples[0]);
        let v = g.value(out).data()[0];
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn training_improves_cardinality_qerror() {
        let (samples, fx) = dataset(40);
        let config = MscnConfig { epochs: 15, hidden_dim: 16, learning_rate: 0.005, ..Default::default() };
        let model = MscnModel::new(fx.table_dim(), fx.join_dim(), fx.predicate_dim(), config);
        let mut trainer = MscnTrainer::new(model, &samples);
        let before = trainer.mean_qerror(&samples);
        let losses = trainer.train(&samples);
        let after = trainer.mean_qerror(&samples);
        assert_eq!(losses.len(), 15);
        assert!(after < before, "MSCN training did not improve q-error: {before:.2} -> {after:.2}");
    }

    #[test]
    fn batched_estimates_match_per_query() {
        let (samples, fx) = dataset(24);
        let config = MscnConfig { epochs: 3, hidden_dim: 16, ..Default::default() };
        let model = MscnModel::new(fx.table_dim(), fx.join_dim(), fx.predicate_dim(), config);
        let mut trainer = MscnTrainer::new(model, &samples);
        trainer.train(&samples);
        let batched = trainer.estimate_batch(&samples);
        assert_eq!(batched.len(), samples.len());
        for (s, b) in samples.iter().zip(batched.iter()) {
            let one = trainer.estimate(s);
            assert!((one.ln() - b.ln()).abs() < 1e-3, "batched MSCN diverged: {one} vs {b}");
        }
        assert!(trainer.estimate_batch(&[]).is_empty());
        // A single-query batch matches too (degenerate pooling matrix).
        let single = trainer.estimate_batch(std::slice::from_ref(&samples[0]));
        assert!((single[0].ln() - trainer.estimate(&samples[0]).ln()).abs() < 1e-3);
    }

    #[test]
    fn batched_estimates_handle_mixed_set_sizes() {
        // Zero-join single-table plans pad their join set; mix them with
        // joined plans so the pooling segments have different widths.
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = MscnFeaturizer::new(db.clone(), cfg);
        let cost = CostModel::default();
        let mut samples = Vec::new();
        for i in 0..6 {
            let mut scan = PlanNode::leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(Predicate::atom(
                    "title",
                    "production_year",
                    CompareOp::Gt,
                    Operand::Num((1950 + i * 5) as f64),
                )),
            });
            execute_plan(&db, &mut scan, &cost);
            samples.push(fx.featurize(&scan));
        }
        let (joined, _) = dataset(6);
        samples.extend(joined);
        let model = MscnModel::new(fx.table_dim(), fx.join_dim(), fx.predicate_dim(), MscnConfig::default());
        let trainer = MscnTrainer::new(model, &samples);
        let batched = trainer.estimate_batch(&samples);
        for (s, b) in samples.iter().zip(batched.iter()) {
            let one = trainer.estimate(s);
            assert!((one.ln() - b.ln()).abs() < 1e-3, "mixed-size batch diverged: {one} vs {b}");
        }
    }

    #[test]
    fn cost_mode_trains() {
        let (samples, fx) = dataset(10);
        let config = MscnConfig { epochs: 2, hidden_dim: 8, predict_cost: true, ..Default::default() };
        let model = MscnModel::new(fx.table_dim(), fx.join_dim(), fx.predicate_dim(), config);
        let mut trainer = MscnTrainer::new(model, &samples);
        trainer.train(&samples);
        let est = trainer.estimate(&samples[0]);
        assert!(est.is_finite() && est >= 1.0);
    }
}
