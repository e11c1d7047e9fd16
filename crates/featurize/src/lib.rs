//! Feature extraction and encoding (Section 4.1 of the paper).
//!
//! Encodes physical plan nodes into the four feature groups the model
//! consumes — Operation, Metadata, Predicate and Sample Bitmap — and whole
//! plans into tree-shaped tensors with the true cost/cardinality attached as
//! training targets.
//!
//! * [`config::EncodingConfig`] fixes every one-hot dictionary and vector
//!   width up-front from the database schema.
//! * [`encode::FeatureExtractor`] performs the encoding, delegating string
//!   operands to a pluggable [`strembed::StringEncoder`] so the model
//!   variants of Table 9 (hash bitmap vs. embeddings with/without rules) are
//!   just different extractor configurations.  It featurizes each distinct
//!   operator once: node encodings are memoized by operator content and
//!   shared by `Arc` in every [`encode::EncodedPlan`].

pub mod config;
pub mod encode;

pub use config::EncodingConfig;
pub use encode::{EncodedPlan, EncodedPlanCache, FeatureExtractor, LocalEncodeCache, NodeFeatures, PredicateEncoding};
