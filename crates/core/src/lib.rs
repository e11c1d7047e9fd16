//! The paper's primary contribution: the end-to-end tree-structured learned
//! cost and cardinality estimator.
//!
//! * [`model`] — embedding layer (with min/max predicate-tree pooling or
//!   tree-LSTM predicates), the tree-LSTM / tree-NN representation layer and
//!   the multitask estimation layer (Section 4.2).
//! * [`trainer`] — q-error loss on normalized log targets, Adam,
//!   mini-batches, per-epoch validation statistics (Section 4.3).
//! * [`batch`] — level-wise batched inference (the batching technique of
//!   Section 4.3, measured in Table 12): one level loop, whose heads run
//!   over the roots for training and the fresh oracle, and over every fresh
//!   sub-plan for the subtree-memoized serving forward of the optimizer
//!   loop.
//! * [`memory`] — the subtree-state cache of the online workflow (Section
//!   3), the paper's representation memory pool: a [`query::SigCache`] of
//!   each embedded sub-plan's estimate and `G‖R` state.
//! * [`api`] — the [`CostEstimator`] façade downstream users interact with,
//!   plus the thread-shareable [`ServingEstimator`] handle.
//! * [`backend`] — the pluggable-backend contract ([`Estimator`] /
//!   [`TrainableEstimator`]) the tree model, MSCN and the traditional
//!   estimator all implement, so benches and serving drive any of them
//!   generically.
//! * [`checkpoint`] — the versioned binary tree-estimator checkpoint
//!   (model config + normalization + extractor vocab + parameters) behind
//!   [`CostEstimator::save_checkpoint`] / `load_checkpoint`.

pub mod api;
pub mod backend;
pub mod batch;
pub mod checkpoint;
pub mod memory;
pub mod model;
pub mod trainer;

pub use api::{CostEstimator, ServingEstimator};
pub use backend::{Estimator, EstimatorCapabilities, PlanEstimate, TrainableEstimator};
pub use batch::{estimate_batch, forward_batch};
pub use memory::SubtreeStateCache;
pub use model::{ModelConfig, PredicateModelKind, RepresentationCellKind, TaskMode, TreeModel};
pub use nn::checkpoint::CheckpointError;
pub use trainer::{EpochStats, TargetNormalization, TrainConfig, Trainer};
