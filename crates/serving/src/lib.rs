//! Multi-tenant serving runtime.
//!
//! One process, many trained models, many concurrent optimizer sessions —
//! the production posture the paper's estimator needs inside a real
//! database.  Two pieces:
//!
//! * [`ModelCatalog`] — a named catalog of fitted or checkpoint-loaded
//!   tree estimators ([`estimator_core::CostEstimator`]).  Publishing a new
//!   model under an existing name is an **atomic hot-swap**: the tenant's
//!   `Arc` slot is replaced under a per-tenant lock held for nanoseconds,
//!   in-flight sessions finish on the model they pinned, and sessions on
//!   *other* tenants never touch the swapped tenant's lock at all.  Each published
//!   model owns its own sharded caches: its served generation's
//!   subtree-state cache, built with the weights it serves, and its
//!   extractor's encode cache.  So tenants cannot evict each other, and a
//!   swap can never serve a stale subtree state.
//! * [`Session`] — a tenant-scoped client handle.  Every estimate call
//!   pins the tenant's current model generation, so a session observes a
//!   hot-swap at its next call boundary while the batch it already
//!   submitted completes on the old weights.  The call runs on the
//!   caller's thread through the pinned model's
//!   [`estimator_core::ServingEstimator`]: concurrent sessions of one
//!   tenant are never merged into one batch, and they share work only
//!   through the model's sharded subtree-state cache (the paper's
//!   representation memory pool).
//!
//! Ownership is the load-bearing design: `CostEstimator::serving()` hands
//! out an *owned* `ServingEstimator`, the immutable served generation
//! (weights, normalization, extractor and the subtree-state cache filled
//! from them), so a model's lifetime is decoupled from its trainer and from
//! the catalog slot it was published under, and its cached states die with
//! it.  Nothing here blocks on a global lock —
//! the catalog map is only write-locked to add/remove tenant *names*.
//!
//! On top of the frozen-model runtime sits the **online learning loop**:
//! [`ModelCatalog::enable_feedback`] makes a tenant's sessions record
//! `(plan signature, estimate)` into a bounded ring, the [`FeedbackLog`],
//! and remember encoded plans in a bounded [`PlanRegistry`], each behind
//! one lock; a [`RefreshController`], ticked from a background thread,
//! executes a sampled subset for exact ground truth
//! (`engine::ExecMode::Count`), watches windowed q-error against a frozen
//! baseline ([`metrics::QErrorWindow`]), and on drift fine-tunes a training
//! replica and republishes it through the catalog's ordinary zero-downtime
//! hot-swap.

mod catalog;
mod feedback;
mod refresh;

pub use catalog::{BackendFactory, BatchAggregator, ModelCatalog, Session, TenantBackend, TenantModel, WaveStats};
pub use feedback::{FeedbackConfig, FeedbackLog, FeedbackRecord, PlanRegistry, TenantFeedback};
pub use refresh::{RefreshConfig, RefreshController, RefreshOutcome};
