//! Plan generation and ground-truth execution.
//!
//! The paper trains on triples `<physical plan, real cost, real cardinality>`
//! obtained by running queries through PostgreSQL.  This crate provides the
//! equivalent substrate:
//!
//! * [`cost`] — a deterministic, PostgreSQL-style work-unit cost model
//!   (sequential/random page, CPU-per-tuple/operator terms), applied by one
//!   pass, [`annotate_costs`], that writes every node's cumulative cost from
//!   per-node cardinalities.  Run over *true* cardinalities it defines the
//!   "real cost" training target; run over *estimated* cardinalities it is
//!   the traditional cost estimator baseline's cost.
//! * [`executor`] — executes a physical plan against the in-memory database,
//!   annotating every node with its true output cardinality, then runs the
//!   cost pass for its true (cumulative) cost.  The default
//!   [`executor::ExecMode::Count`] path propagates per-key match counts
//!   through the join tree without ever materializing intermediate tuples,
//!   so ground truth stays cheap even for skewed star joins;
//!   [`executor::ExecMode::Materialize`] is the tuple-materializing oracle
//!   it is tested against.
//! * [`planner`] — a heuristic cost-based planner that turns a logical query
//!   into a physical plan (scan choice, greedy join ordering, join operator
//!   selection), playing the role of the PostgreSQL optimizer that produced
//!   the paper's training plans.

pub mod cost;
pub mod executor;
pub mod planner;

pub use cost::{annotate_costs, Annotation};
pub use executor::{execute_plan, execute_plan_mode, execute_plans, ExecMode, ExecutionResult};
pub use planner::{enumerate_join_orders, plan_query, PlannerConfig};
