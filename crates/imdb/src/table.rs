//! In-memory columnar table storage.

use crate::schema::{ColumnType, TableDef};
use crate::value::{Value, ValueRef};

/// A single column of data, stored densely by type.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int(Vec<i64>),
    Str(Vec<String>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn ty(&self) -> ColumnType {
        match self {
            Column::Int(_) => ColumnType::Int,
            Column::Str(_) => ColumnType::Str,
        }
    }

    /// Value at a row.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// Borrowed value at a row (no `String` clone for string columns).
    pub fn value_ref(&self, row: usize) -> ValueRef<'_> {
        match self {
            Column::Int(v) => ValueRef::Int(v[row]),
            Column::Str(v) => ValueRef::Str(&v[row]),
        }
    }

    /// Integer at a row (None for string columns).
    pub fn int(&self, row: usize) -> Option<i64> {
        match self {
            Column::Int(v) => Some(v[row]),
            Column::Str(_) => None,
        }
    }

    /// String at a row (None for integer columns).
    pub fn str(&self, row: usize) -> Option<&str> {
        match self {
            Column::Int(_) => None,
            Column::Str(v) => Some(&v[row]),
        }
    }
}

/// An in-memory table: a definition plus one [`Column`] per column definition.
#[derive(Debug, Clone)]
pub struct Table {
    def: TableDef,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Build a table from its definition and column data.
    ///
    /// # Panics
    /// Panics if the number or types of the columns do not match the
    /// definition, or if columns have differing lengths.
    pub fn new(def: TableDef, columns: Vec<Column>) -> Self {
        assert_eq!(def.columns.len(), columns.len(), "column count mismatch for table {}", def.name);
        let n_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (cd, col) in def.columns.iter().zip(columns.iter()) {
            assert_eq!(cd.ty, col.ty(), "type mismatch for {}.{}", def.name, cd.name);
            assert_eq!(col.len(), n_rows, "ragged column {}.{}", def.name, cd.name);
        }
        Table { def, columns, n_rows }
    }

    /// The table's definition.
    pub fn def(&self) -> &TableDef {
        &self.def
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.def.column_index(name).map(|i| &self.columns[i])
    }

    /// Integer value of a named column at a row.
    pub fn int(&self, column: &str, row: usize) -> Option<i64> {
        self.column_by_name(column).and_then(|c| c.int(row))
    }

    /// String value of a named column at a row.
    pub fn str(&self, column: &str, row: usize) -> Option<&str> {
        self.column_by_name(column).and_then(|c| c.str(row))
    }

    /// Value of a named column at a row.
    pub fn value(&self, column: &str, row: usize) -> Option<Value> {
        self.column_by_name(column).map(|c| c.value(row))
    }

    /// Borrowed value of a named column at a row.
    pub fn value_ref(&self, column: &str, row: usize) -> Option<ValueRef<'_>> {
        self.column_by_name(column).map(|c| c.value_ref(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn mini_title() -> Table {
        let def = Schema::imdb().table("company_type").expect("exists").clone();
        Table::new(
            def,
            vec![
                Column::Int(vec![1, 2, 3, 4]),
                Column::Str(vec![
                    "production companies".into(),
                    "distributors".into(),
                    "special effects companies".into(),
                    "miscellaneous companies".into(),
                ]),
            ],
        )
    }

    #[test]
    fn accessors_work() {
        let t = mini_title();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.int("id", 2), Some(3));
        assert_eq!(t.str("kind", 0), Some("production companies"));
        assert_eq!(t.value("id", 1), Some(Value::Int(2)));
        assert_eq!(t.value_ref("id", 1), Some(ValueRef::Int(2)));
        assert_eq!(t.value_ref("kind", 1), Some(ValueRef::Str("distributors")));
        assert_eq!(t.value_ref("missing", 1), None);
        assert_eq!(t.name(), "company_type");
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn mismatched_types_panic() {
        let def = Schema::imdb().table("company_type").expect("exists").clone();
        let _ = Table::new(def, vec![Column::Str(vec![]), Column::Str(vec![])]);
    }

    #[test]
    #[should_panic(expected = "ragged column")]
    fn ragged_columns_panic() {
        let def = Schema::imdb().table("company_type").expect("exists").clone();
        let _ = Table::new(def, vec![Column::Int(vec![1, 2]), Column::Str(vec!["x".into()])]);
    }

    #[test]
    fn wrong_type_access_returns_none() {
        let t = mini_title();
        assert_eq!(t.int("kind", 0), None);
        assert_eq!(t.str("id", 0), None);
        assert_eq!(t.column_by_name("missing").map(|_| ()), None);
    }
}
