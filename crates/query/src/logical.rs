//! Logical queries: joined tables, join predicates, filters and projections.
//!
//! A [`LogicalQuery`] is the object the training-data generator produces and
//! the planner consumes.  It corresponds to the SELECT-PROJECT-JOIN-AGGREGATE
//! queries of the JOB / JOB-light / synthetic workloads.

use crate::name::Name;
use crate::predicate::Predicate;
use std::collections::HashMap;
use std::fmt;

/// An equi-join predicate between two tables' integer columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinPredicate {
    pub left_table: Name,
    pub left_column: Name,
    pub right_table: Name,
    pub right_column: Name,
}

impl JoinPredicate {
    /// Construct a join predicate.
    pub fn new(left_table: &str, left_column: &str, right_table: &str, right_column: &str) -> Self {
        JoinPredicate {
            left_table: left_table.into(),
            left_column: left_column.into(),
            right_table: right_table.into(),
            right_column: right_column.into(),
        }
    }

    /// True when this join touches the given table.
    pub fn involves(&self, table: Name) -> bool {
        self.left_table == table || self.right_table == table
    }

    /// The join column for a given side table, if the table participates.
    pub fn column_for(&self, table: Name) -> Option<Name> {
        if self.left_table == table {
            Some(self.left_column)
        } else if self.right_table == table {
            Some(self.right_column)
        } else {
            None
        }
    }
}

impl fmt::Display for JoinPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} = {}.{}", self.left_table, self.left_column, self.right_table, self.right_column)
    }
}

/// Aggregate function applied to a projected column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    None,
    Min,
    Max,
    Count,
}

/// A projected output column with an optional aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Projection {
    pub table: Name,
    pub column: Name,
    pub aggregate: Aggregate,
}

/// A logical SPJA query.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalQuery {
    /// Tables involved, in no particular order.
    pub tables: Vec<Name>,
    /// Equi-join predicates connecting the tables.
    pub joins: Vec<JoinPredicate>,
    /// Filter predicate per table (a table may have none).
    pub filters: HashMap<Name, Predicate>,
    /// Output columns.
    pub projections: Vec<Projection>,
}

impl LogicalQuery {
    /// A single-table query with an optional filter.
    pub fn single_table(table: &str, filter: Option<Predicate>) -> Self {
        let mut filters = HashMap::new();
        if let Some(f) = filter {
            filters.insert(table.into(), f);
        }
        LogicalQuery {
            tables: vec![table.into()],
            joins: Vec::new(),
            filters,
            projections: vec![Projection { table: table.into(), column: "id".into(), aggregate: Aggregate::Count }],
        }
    }

    /// Number of join predicates.
    pub fn num_joins(&self) -> usize {
        self.joins.len()
    }

    /// Filter for a table, if any.
    pub fn filter(&self, table: &str) -> Option<&Predicate> {
        self.filters.get(table)
    }

    /// True when the join graph over `tables` induced by `joins` is connected
    /// (every multi-table query the generator emits must be connected, or the
    /// plan would contain a cross product).
    pub fn is_connected(&self) -> bool {
        if self.tables.len() <= 1 {
            return true;
        }
        let mut reached: Vec<Name> = vec![self.tables[0]];
        let mut changed = true;
        while changed {
            changed = false;
            for j in &self.joins {
                let l_in = reached.contains(&j.left_table);
                let r_in = reached.contains(&j.right_table);
                if l_in && !r_in {
                    reached.push(j.right_table);
                    changed = true;
                } else if r_in && !l_in {
                    reached.push(j.left_table);
                    changed = true;
                }
            }
        }
        self.tables.iter().all(|t| reached.contains(t))
    }

    /// A human-readable SQL-ish rendering (for logs and examples).
    pub fn to_sql(&self) -> String {
        let mut proj: Vec<String> = self
            .projections
            .iter()
            .map(|p| match p.aggregate {
                Aggregate::None => format!("{}.{}", p.table, p.column),
                Aggregate::Min => format!("MIN({}.{})", p.table, p.column),
                Aggregate::Max => format!("MAX({}.{})", p.table, p.column),
                Aggregate::Count => format!("COUNT({}.{})", p.table, p.column),
            })
            .collect();
        if proj.is_empty() {
            proj.push("*".to_string());
        }
        let mut where_parts: Vec<String> = self.joins.iter().map(|j| j.to_string()).collect();
        for t in &self.tables {
            if let Some(f) = self.filters.get(t) {
                where_parts.push(f.to_string());
            }
        }
        let where_clause =
            if where_parts.is_empty() { String::new() } else { format!(" WHERE {}", where_parts.join(" AND ")) };
        format!("SELECT {} FROM {}{}", proj.join(", "), self.tables.join(", "), where_clause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompareOp, Operand, Predicate};

    fn two_table_query() -> LogicalQuery {
        let mut filters = HashMap::new();
        filters
            .insert("title".into(), Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(2000.0)));
        LogicalQuery {
            tables: vec!["title".into(), "movie_companies".into()],
            joins: vec![JoinPredicate::new("movie_companies", "movie_id", "title", "id")],
            filters,
            projections: vec![Projection { table: "title".into(), column: "id".into(), aggregate: Aggregate::Count }],
        }
    }

    #[test]
    fn join_predicate_accessors() {
        let j = JoinPredicate::new("movie_companies", "movie_id", "title", "id");
        assert!(j.involves("title".into()));
        assert!(j.involves("movie_companies".into()));
        assert!(!j.involves("cast_info".into()));
        assert_eq!(j.column_for("title".into()), Some("id".into()));
        assert_eq!(j.column_for("movie_companies".into()), Some("movie_id".into()));
        assert_eq!(j.column_for("cast_info".into()), None);
        assert_eq!(j.to_string(), "movie_companies.movie_id = title.id");
    }

    #[test]
    fn connectivity() {
        let q = two_table_query();
        assert!(q.is_connected());
        let disconnected = LogicalQuery {
            tables: vec!["title".into(), "cast_info".into()],
            joins: vec![],
            filters: HashMap::new(),
            projections: vec![],
        };
        assert!(!disconnected.is_connected());
        let single = LogicalQuery::single_table("title", None);
        assert!(single.is_connected());
    }

    #[test]
    fn sql_rendering_mentions_all_parts() {
        let q = two_table_query();
        let sql = q.to_sql();
        assert!(sql.contains("SELECT COUNT(title.id)"));
        assert!(sql.contains("FROM title, movie_companies"));
        assert!(sql.contains("movie_companies.movie_id = title.id"));
        assert!(sql.contains("production_year > 2000"));
    }

    #[test]
    fn single_table_helper() {
        let q = LogicalQuery::single_table(
            "movie_companies",
            Some(Predicate::atom("movie_companies", "note", CompareOp::Like, Operand::Str("%(presents)%".into()))),
        );
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.num_joins(), 0);
        assert!(q.filter("movie_companies").is_some());
        assert!(q.filter("title").is_none());
    }
}
