//! Multi-tenant serving runtime.
//!
//! One process, many trained models, many concurrent optimizer sessions —
//! the production posture the paper's estimator needs inside a real
//! database.  Three pieces:
//!
//! * [`ModelCatalog`] — a named catalog of checkpoint-loaded backends (any
//!   [`estimator_core::Estimator`]).  Publishing a new model under an
//!   existing name is an **atomic hot-swap**: the tenant's `Arc` slot is
//!   replaced under a per-tenant lock held for nanoseconds, in-flight
//!   sessions finish on the model they pinned, and sessions on *other*
//!   tenants never touch the swapped tenant's lock at all.  Each published
//!   model owns its own sharded caches (they arrive freshly invalidated
//!   from `load_checkpoint`), so tenants cannot evict each other and a
//!   swap can never serve a stale subtree state.
//! * [`Session`] — a tenant-scoped client handle.  Every estimate call
//!   pins the tenant's current model generation, so a session observes a
//!   hot-swap at its next call boundary while the batch it already
//!   submitted completes on the old weights.
//! * [`BatchAggregator`] — the admission layer: estimate requests arriving
//!   concurrently from sessions of the **same** tenant are coalesced into
//!   one level-batched, subtree-memoized inference call
//!   ([`estimator_core::ServingEstimator::estimate_encoded_batch`]),
//!   amortizing the blocked matmuls across sessions the way level batching
//!   amortizes them within one.
//!
//! Ownership is the load-bearing design: `CostEstimator::serving()` hands
//! out an *owned* `ServingEstimator` (model + cache behind `Arc`s), so a
//! model's lifetime is decoupled from its trainer and from the catalog
//! slot it was published under.  Nothing here blocks on a global lock —
//! the catalog map is only write-locked to add/remove tenant *names*.
//!
//! On top of the frozen-model runtime sits the **online learning loop**
//! (PR 7): [`ModelCatalog::enable_feedback`] makes a tenant's sessions
//! record `(plan signature, estimate)` into a bounded, sharded
//! [`FeedbackLog`] and remember encoded plans in a bounded
//! [`PlanRegistry`]; a [`RefreshController`], ticked from a background
//! thread, executes a sampled subset for exact ground truth
//! (`engine::ExecMode::Count`), watches windowed q-error against a frozen
//! baseline ([`metrics::QErrorWindow`]), and on drift fine-tunes a training
//! replica and republishes it through the catalog's ordinary zero-downtime
//! hot-swap.

mod aggregate;
mod catalog;
mod feedback;
mod refresh;

pub use aggregate::{BatchAggregator, WaveStats};
pub use catalog::{BackendFactory, ModelCatalog, Session, TenantBackend, TenantModel};
pub use feedback::{FeedbackConfig, FeedbackLog, FeedbackRecord, PlanRegistry, TenantFeedback};
pub use refresh::{RefreshConfig, RefreshController, RefreshOutcome};
