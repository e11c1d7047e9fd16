//! The pluggable estimator-backend layer.
//!
//! The paper's evaluation is comparative: the tree-structured model against
//! the MSCN set model and a traditional histogram estimator, on the same
//! workloads.  [`Estimator`] is the contract all three families implement,
//! so the bench registry fits and evaluates any backend generically:
//!
//! * `CostEstimator` (this crate) — the tree model, both targets,
//!   checkpointable;
//! * `mscn::MscnEstimator` — single-target learned baseline,
//!   checkpointable;
//! * `pgest::TraditionalEstimator` — both targets from `ANALYZE`
//!   statistics, nothing to fit or checkpoint.
//!
//! Capability flags ([`EstimatorCapabilities`]) say which targets a backend
//! actually models and whether it can persist itself; estimates come back
//! as [`PlanEstimate`] with `None` in the slots the backend cannot fill, so
//! a cost-less backend never smuggles a fake number into a report.

use crate::trainer::EpochStats;
use nn::checkpoint::CheckpointError;
use query::PlanNode;
use std::path::Path;

/// What an estimator backend can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorCapabilities {
    /// The backend models plan **cost**.
    pub cost: bool,
    /// The backend models plan **cardinality**.
    pub cardinality: bool,
    /// The backend supports `save_checkpoint_to` / `load_checkpoint_from`.
    pub checkpointable: bool,
}

/// One backend's estimate for one plan; `None` in a slot the backend does
/// not model (see [`EstimatorCapabilities`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    pub cost: Option<f64>,
    pub cardinality: Option<f64>,
}

impl PlanEstimate {
    /// An estimate carrying both targets.
    pub fn both(cost: f64, cardinality: f64) -> Self {
        PlanEstimate { cost: Some(cost), cardinality: Some(cardinality) }
    }
}

/// An estimator over physical plans, fitted from executed (annotated)
/// plans or backed by statistics.
pub trait Estimator {
    /// Which targets this backend models and whether it checkpoints.
    fn capabilities(&self) -> EstimatorCapabilities;

    /// Fit the backend on annotated plans, returning the shared per-epoch
    /// statistics (empty for backends with nothing iterative to train).
    fn fit_plans(&mut self, plans: &[PlanNode]) -> Vec<EpochStats>;

    /// True once the backend can serve estimates.
    fn is_fitted(&self) -> bool;

    /// Estimate each plan, in order, with the backend's batched inference
    /// path.
    ///
    /// # Panics
    /// May panic if the backend requires fitting and has not been fitted;
    /// use [`Estimator::is_fitted`] to check first.
    fn estimate_many(&self, plans: &[PlanNode]) -> Vec<PlanEstimate>;

    /// Persist the fitted model (versioned binary checkpoint).
    fn save_checkpoint_to(&self, _path: &Path) -> Result<(), CheckpointError> {
        Err(CheckpointError::Unsupported("this backend does not checkpoint"))
    }

    /// Restore a fitted model saved by `save_checkpoint_to`, replacing any
    /// current fit: no estimate cached for the replaced fit may serve the
    /// restored one.
    fn load_checkpoint_from(&mut self, _path: &Path) -> Result<(), CheckpointError> {
        Err(CheckpointError::Unsupported("this backend does not checkpoint"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl Estimator for Fixed {
        fn capabilities(&self) -> EstimatorCapabilities {
            EstimatorCapabilities { cost: false, cardinality: true, checkpointable: false }
        }
        fn fit_plans(&mut self, _plans: &[PlanNode]) -> Vec<EpochStats> {
            Vec::new()
        }
        fn is_fitted(&self) -> bool {
            true
        }
        fn estimate_many(&self, plans: &[PlanNode]) -> Vec<PlanEstimate> {
            vec![PlanEstimate { cost: None, cardinality: Some(42.0) }; plans.len()]
        }
    }

    #[test]
    fn default_batch_maps_single_and_checkpoint_is_typed_unsupported() {
        use query::{PhysicalOp, PlanNode};
        let mut est = Fixed;
        let plans = vec![PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None }); 3];
        let out = est.estimate_many(&plans);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], PlanEstimate { cost: None, cardinality: Some(42.0) });
        assert!(matches!(est.save_checkpoint_to(Path::new("/nonexistent")), Err(CheckpointError::Unsupported(_))));
        assert!(matches!(est.load_checkpoint_from(Path::new("/nonexistent")), Err(CheckpointError::Unsupported(_))));
    }
}
