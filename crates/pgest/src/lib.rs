//! Traditional (PostgreSQL-style) cost and cardinality estimator — the
//! `PGCard` / `PGCost` baseline of the paper's evaluation.
//!
//! The estimator follows the textbook recipe PostgreSQL implements:
//!
//! * per-column statistics (equi-depth histograms for numeric columns, MCV
//!   lists for strings) collected by [`histogram`];
//! * per-predicate selectivities combined under the **attribute-value
//!   independence** assumption (`AND` multiplies, `OR` adds-minus-product)
//!   in [`selectivity`];
//! * join cardinalities estimated with the classic
//!   `|L| * |R| / max(ndv(L.a), ndv(R.b))` formula, in [`estimator`];
//! * plan costs from the ground truth's own cost pass,
//!   [`engine::annotate_costs`], run over the *estimated* cardinalities and
//!   the ANALYZE row counts: `PGCost` differs from the true cost only
//!   through its cardinalities.
//!
//! Because the synthetic data is deliberately correlated across columns and
//! tables, this estimator exhibits the same error-amplification-with-joins
//! behaviour the paper reports for PostgreSQL on IMDB.

pub mod estimator;
pub mod histogram;
pub mod selectivity;

pub use estimator::TraditionalEstimator;
pub use histogram::{ColumnStats, NumericStats, StringStats};
pub use selectivity::predicate_selectivity;
