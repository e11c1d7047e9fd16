//! A small, self-contained neural-network substrate used by the learned cost
//! estimator reproduction.
//!
//! The paper's models (tree-structured LSTM over query plans, min/max tree
//! pooling over predicate trees, multitask estimation heads) build a *new*
//! computation graph for every query plan, because the graph topology follows
//! the plan.  Frameworks with static graphs are a poor fit and the usual Rust
//! bindings (tch-rs / burn) are not available offline, so this crate provides
//! a minimal reverse-mode automatic-differentiation engine over dense `f32`
//! matrices, plus the layers, cells, optimizer and losses the estimator
//! needs:
//!
//! * [`Matrix`] — dense row-major matrix with the usual BLAS-1/2 helpers.
//! * [`Graph`] — a tape of operations supporting backward propagation.
//! * [`ParamStore`] / [`ParamId`] — model parameters shared across graphs
//!   (the tree model re-uses the same cell weights at every plan node).
//! * [`Linear`], activation ops, element-wise min/max pooling (the AND/OR
//!   predicate pooling of Section 4.2.1), and the LSTM-style representation
//!   cell of Section 4.2.2 ([`cells::TreeLstmCell`]).
//! * the [`Adam`] optimizer, the training schedule and its resumable state
//!   ([`schedule`]), and the q-error-based loss of Section 4.3 ([`loss`]).
//! * [`simd`] — runtime-dispatched (AVX2 / scalar) f32 microkernels behind
//!   the matrix hot loops.

pub mod cells;
pub mod checkpoint;
pub mod graph;
pub mod init;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod schedule;
pub mod simd;

pub use cells::{TreeLstmCell, TreeNnCell};
pub use checkpoint::CheckpointError;
pub use graph::{Graph, NodeId};
pub use layers::{Linear, PackedLinear, PackedWeights, Weights};
pub use loss::{qerror_from_normalized, NormalizationStats};
pub use matrix::Matrix;
pub use optim::Adam;
pub use params::{ParamId, ParamStore};
pub use schedule::{EarlyStop, MiniBatchSchedule, TrainProgress};
pub use simd::DispatchPath;
