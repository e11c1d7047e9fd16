//! Query, predicate and physical-plan model.
//!
//! This crate defines the structures the whole reproduction pipeline speaks:
//!
//! * [`predicate`] — predicate expression trees (atomic comparisons combined
//!   with AND/OR), including `LIKE`/`NOT LIKE`/`IN` string predicates, and
//!   their evaluation against table rows;
//! * [`logical`] — a logical query: the set of joined tables (a connected
//!   subgraph of the schema's join graph), per-table predicates and the
//!   projection/aggregation list;
//! * [`plan`] — physical plan trees (the input of the cost estimator):
//!   Seq/Index scans, Hash/Merge/Nested-loop joins, Sort and Aggregate nodes,
//!   each optionally annotated with estimated and true cost/cardinality.

pub mod like;
pub mod logical;
pub mod plan;
pub mod predicate;
pub mod sighash;

pub use like::like_match;
pub use logical::{Aggregate, JoinPredicate, LogicalQuery, Projection};
pub use plan::{PhysicalOp, PlanNode, PlanNodeId};
pub use predicate::{AtomPredicate, CompareOp, Operand, Predicate};
pub use sighash::{IdentityHasher, SigHasher};
