//! The adapt stage of the online learning loop: sample ground truth, detect
//! drift, fine-tune, republish.
//!
//! A [`RefreshController`] owns one tenant's loop state: a **training
//! replica** of the served model (fine-tuning never touches the weights the
//! catalog is serving), a [`metrics::QErrorWindow`] tracking recent accuracy
//! against a frozen baseline, and a bounded buffer of labeled plans awaiting
//! a fine-tune.  Driving the loop is one method — [`RefreshController::tick`]
//! — meant to be called periodically from a background thread, never from
//! the serving path:
//!
//! 1. **drain** the tenant's [`crate::FeedbackLog`], dedup by plan signature
//!    (keeping the newest estimate per plan);
//! 2. **sample**: resolve each signature through the
//!    [`crate::PlanRegistry`], draw a seeded subset within the ground-truth
//!    execution budget from a frame ordered by plan content, and execute it
//!    with [`engine::execute_plan`], the counting executor — cheap exact
//!    cardinalities;
//! 3. **observe**: push each plan's cardinality q-error into the window;
//!    the first full window freezes the tenant's healthy baseline;
//! 4. **adapt**: when the windowed mean degrades past
//!    `baseline * drift_factor` and enough labeled pairs have accumulated,
//!    extend the replica's epoch budget, fine-tune with
//!    `CostEstimator::fit_resumed_encoded` (falling back to a full
//!    `fit_encoded` when the replica carries no resumable state and the
//!    resume fails with `CheckpointError::Unsupported`), save a v3
//!    checkpoint and republish through
//!    [`crate::ModelCatalog::install_checkpoint`].
//!
//! The republish is the catalog's ordinary atomic hot-swap: in-flight
//! batches finish on the old weights and sessions observe the new
//! generation at their next call.

use crate::catalog::ModelCatalog;
use crate::feedback::{FeedbackRecord, PlanRegistry, TenantFeedback};
use engine::execute_plan;
use estimator_core::{CheckpointError, CostEstimator};
use featurize::EncodedPlan;
use imdb::Database;
use metrics::{q_error, QErrorWindow};
use query::PlanNode;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// Tuning knobs for one tenant's refresh loop.
#[derive(Debug, Clone)]
pub struct RefreshConfig {
    /// Maximum ground-truth executions per [`RefreshController::tick`].
    pub sample_budget: usize,
    /// Sliding-window size for drift detection.
    pub window: usize,
    /// Drift fires when `window mean > baseline * drift_factor`.
    pub drift_factor: f64,
    /// Minimum labeled pairs accumulated before a fine-tune is attempted.
    pub min_pairs: usize,
    /// Extra epochs granted to the training replica per fine-tune.
    pub fine_tune_epochs: usize,
    /// Bound on buffered labeled pairs (oldest dropped first).
    pub max_pending: usize,
    /// Seed for the sampling policy (deterministic given the same traffic).
    pub seed: u64,
    /// Where the fine-tuned checkpoint is written before republish; defaults
    /// to a per-process file in the system temp directory.
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            sample_budget: 64,
            window: 32,
            drift_factor: 1.5,
            min_pairs: 32,
            fine_tune_epochs: 2,
            max_pending: 1024,
            seed: 0x5eed_f00d,
            checkpoint_path: None,
        }
    }
}

/// What one [`RefreshController::tick`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum RefreshOutcome {
    /// Nothing in the log (or nothing resolvable through the registry).
    Idle,
    /// Ground truth was sampled; no refresh was warranted (or possible yet).
    Observed {
        /// Plans executed for ground truth this tick.
        sampled: usize,
        /// Current windowed mean q-error, if any observations exist.
        window_mean: Option<f64>,
        /// The frozen baseline, once the first window filled.
        baseline: Option<f64>,
        /// Whether drift was detected but the fine-tune gate (`min_pairs`)
        /// was not yet met.
        drifted: bool,
    },
    /// Drift was confirmed and a fine-tuned model was republished.
    Refreshed {
        /// The generation the catalog now serves for this tenant.
        generation: u64,
        /// Plans executed for ground truth this tick.
        sampled: usize,
        /// Labeled pairs the fine-tune trained on.
        pairs: usize,
        /// Windowed mean q-error that triggered the refresh.
        window_mean: f64,
        /// The baseline it was compared against.
        baseline: f64,
        /// True when the replica could not resume training (no resumable
        /// state) and the controller fell back to a full refit.
        refit_fallback: bool,
    },
}

/// Drives capture → sample → detect → adapt for one tenant.
pub struct RefreshController {
    catalog: Arc<ModelCatalog>,
    tenant: String,
    feedback: Arc<TenantFeedback>,
    db: Arc<Database>,
    /// The training replica: same weights as the published model at
    /// construction time, fine-tuned in place, never served directly.
    trainer: CostEstimator,
    window: QErrorWindow,
    pending: VecDeque<EncodedPlan>,
    config: RefreshConfig,
    rng: u64,
}

impl RefreshController {
    /// Build a controller for `tenant`.  `trainer` must hold the same
    /// weights as the tenant's published model (load it from the checkpoint
    /// that was installed, or move in the estimator that trained it) —
    /// otherwise the first fine-tune starts from different parameters than
    /// the traffic that triggered it was served with.
    ///
    /// The tenant must have a backend factory registered
    /// ([`ModelCatalog::register_factory`]): republish goes through
    /// [`ModelCatalog::install_checkpoint`] so the rolled-out model is
    /// exactly what a process restart would load.
    pub fn new(
        catalog: Arc<ModelCatalog>,
        tenant: impl Into<String>,
        feedback: Arc<TenantFeedback>,
        db: Arc<Database>,
        trainer: CostEstimator,
        config: RefreshConfig,
    ) -> Self {
        let tenant = tenant.into();
        let window = QErrorWindow::new(config.window.max(1));
        let rng = config.seed ^ 0x9e37_79b9_7f4a_7c15;
        RefreshController { catalog, tenant, feedback, db, trainer, window, pending: VecDeque::new(), config, rng }
    }

    /// The drift-detection window (for observability/tests).
    pub fn window(&self) -> &QErrorWindow {
        &self.window
    }

    /// Run one capture→sample→detect→adapt cycle.  Cheap when the log is
    /// empty; executes at most `sample_budget` plans otherwise.  Never
    /// called on the serving path.
    ///
    /// # Errors
    /// Propagates checkpoint save/install failures from the republish step;
    /// the catalog keeps serving the previous generation in that case, and
    /// the buffered pairs are retained for the next attempt.
    pub fn tick(&mut self) -> Result<RefreshOutcome, CheckpointError> {
        let drained = self.feedback.log().drain();
        let sampled_records = sample(drained, self.feedback.registry(), self.config.sample_budget, &mut self.rng);
        let mut sampled = 0usize;
        for (record, plan) in &sampled_records {
            let Some(plan) = plan else {
                // Logged before the registry learned the plan (or the
                // registry was full): unresolvable, skip.
                continue;
            };
            let mut plan = PlanNode::clone(plan);
            let truth = execute_plan(&self.db, &mut plan);
            sampled += 1;
            self.window.push(q_error(record.cardinality, truth.cardinality));
            // `execute_plan` annotated the plan in place; encoding it
            // now captures the fresh labels for fine-tuning.
            self.pending.push_back(self.trainer.encode(&plan));
            while self.pending.len() > self.config.max_pending {
                self.pending.pop_front();
            }
        }
        if sampled == 0 {
            return Ok(RefreshOutcome::Idle);
        }
        // The first full window defines "healthy" for this model.
        if self.window.baseline().is_none() && self.window.is_full() {
            self.window.freeze_baseline();
        }
        let drifted = self.window.is_drifted(self.config.drift_factor);
        if !(drifted && self.pending.len() >= self.config.min_pairs) {
            return Ok(RefreshOutcome::Observed {
                sampled,
                window_mean: self.window.mean(),
                baseline: self.window.baseline(),
                drifted,
            });
        }

        // Adapt: fine-tune the replica off the serving path and republish.
        let window_mean = self.window.mean().unwrap_or(f64::NAN);
        let baseline = self.window.baseline().unwrap_or(f64::NAN);
        let pairs: Vec<EncodedPlan> = self.pending.iter().cloned().collect();
        self.trainer.extend_training_epochs(self.config.fine_tune_epochs);
        let refit_fallback = match self.trainer.fit_resumed_encoded(&pairs) {
            Ok(_) => false,
            // A replica without resumable training state (e.g. restored
            // from a model-only checkpoint) yields a typed error instead of
            // aborting the server, and the controller falls back to a full
            // refit on the fresh pairs.
            Err(CheckpointError::Unsupported(_)) => {
                self.trainer.fit_encoded(&pairs);
                true
            }
            Err(other) => return Err(other),
        };
        let path = self.config.checkpoint_path.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("refresh-{}-{}.ckpt", self.tenant, std::process::id()))
        });
        self.trainer.save_checkpoint(&path)?;
        let generation = self.catalog.install_checkpoint(&self.tenant, &path)?;
        // Only now that the swap landed: discard the evidence that belonged
        // to the replaced model.  The baseline survives — it describes the
        // accuracy this tenant considers healthy, not one model's weights.
        self.window.clear();
        self.pending.clear();
        Ok(RefreshOutcome::Refreshed { generation, sampled, pairs: pairs.len(), window_mean, baseline, refit_fallback })
    }
}

/// One splitmix64 step: tiny, seedable, plenty for subsampling — keeps the
/// serving crate free of an RNG dependency.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Dedup drained records by signature (newest estimate wins — the log
/// drains oldest first), resolve each through `registry` (`None` when the
/// plan was never registered) and pick at most `budget` of them, uniformly
/// via a partial Fisher–Yates driven by the seeded `rng`.
///
/// The frame the draw runs over is ordered by plan content, the textual
/// [`PlanNode::signature`], so which plans a tick executes, and the order
/// their q-errors enter the window, do not depend on the signature hash
/// function.  Unregistered records sort first; ties (unregistered records,
/// equal texts) fall back to the signature value.
fn sample(
    drained: Vec<FeedbackRecord>,
    registry: &PlanRegistry,
    budget: usize,
    rng: &mut u64,
) -> Vec<(FeedbackRecord, Option<Arc<PlanNode>>)> {
    let mut newest: HashMap<u64, FeedbackRecord> = HashMap::with_capacity(drained.len());
    for record in drained {
        newest.insert(record.signature, record);
    }
    let mut frame: Vec<(FeedbackRecord, Option<Arc<PlanNode>>)> =
        newest.into_values().map(|record| (record, registry.get(record.signature))).collect();
    frame.sort_by_cached_key(|(record, plan)| (plan.as_ref().map(|p| p.signature()), record.signature));
    let budget = budget.min(frame.len());
    for i in 0..budget {
        let j = i + (next_rand(rng) as usize) % (frame.len() - i);
        frame.swap(i, j);
    }
    frame.truncate(budget);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::{CompareOp, Operand, PhysicalOp, Predicate};

    #[test]
    fn the_sample_follows_plan_content_not_signature_values() {
        let plans: Vec<PlanNode> = (0..40)
            .map(|year| {
                let predicate = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(year as f64));
                PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: Some(predicate) })
            })
            .collect();
        // Draw from a log holding every plan twice under `label`: the
        // registry is keyed to match, and the later record must win.
        let draw = |label: fn(u64) -> u64| {
            let registry = PlanRegistry::new(1024);
            let mut drained = Vec::new();
            for round in 0..2 {
                for (i, plan) in plans.iter().enumerate() {
                    let signature = label(plan.signature_hash());
                    registry.register(signature, plan);
                    drained.push(FeedbackRecord { signature, cost: round as f64, cardinality: i as f64 });
                }
            }
            let mut rng = 0x5eed;
            sample(drained, &registry, 16, &mut rng)
                .into_iter()
                .map(|(record, plan)| {
                    assert_eq!(record.cost, 1.0, "the newest record per signature must be kept");
                    (plan.expect("every plan is registered").signature(), record.cardinality)
                })
                .collect::<Vec<_>>()
        };
        let picked = draw(|signature| signature);
        assert_eq!(picked.len(), 16);
        // Any bijection on signatures: a different hash function.
        let relabeled = draw(|signature| signature.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xfeed);
        assert_eq!(picked, relabeled, "relabeling the signatures re-drew the sample");
    }
}
