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
//!   each optionally annotated with estimated and true cost/cardinality;
//! * [`name`] — [`Name`], the interned, 8-byte `Copy` handle every table and
//!   column name above is stored as.  A plan node holds handles, not heap
//!   strings (160 bytes instead of 224), so an optimizer's candidate plans
//!   take about half the memory and clone without allocating per name;
//! * [`sighash`] — the allocation-free 64-bit structural signatures that key
//!   the serving caches.  A node enters as 64-bit words, two per fold, and
//!   each name as its text's key, computed once when the name is interned,
//!   so signatures depend on names' texts alone, not on how they are stored;
//! * [`sigcache`] — [`SigCache`], the one bounded, sharded cache those
//!   signatures key: the node memo, the encode cache and the subtree-state
//!   cache are each one.  It lives here because its shard selection and its
//!   identity-hashed index rely on the signature finalizer.

pub mod like;
pub mod logical;
pub mod name;
pub mod plan;
pub mod predicate;
pub mod sigcache;
pub mod sighash;

pub use like::like_match;
pub use logical::{Aggregate, JoinPredicate, LogicalQuery, Projection};
pub use name::Name;
pub use plan::{PhysicalOp, PlanNode, PlanNodeId};
pub use predicate::{AtomPredicate, CompareOp, Operand, Predicate};
pub use sigcache::SigCache;
pub use sighash::{IdentityHasher, SigHasher};
