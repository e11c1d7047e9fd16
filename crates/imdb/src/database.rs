//! The in-memory database: schema + tables + samples + key indexes.

use crate::index::HashIndex;
use crate::sample::TableSample;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::HashMap;

/// A fully materialized synthetic database.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Schema,
    tables: HashMap<String, Table>,
    samples: HashMap<String, TableSample>,
    /// Hash indexes by table, then by column, so a `&str` pair probes
    /// without building a key.
    indexes: HashMap<String, HashMap<String, HashIndex>>,
}

impl Database {
    /// Assemble a database and build hash indexes on all indexed columns.
    pub fn new(schema: Schema, tables: HashMap<String, Table>, samples: HashMap<String, TableSample>) -> Self {
        let mut indexes: HashMap<String, HashMap<String, HashIndex>> = HashMap::new();
        for t in &schema.tables {
            if let Some(table) = tables.get(&t.name) {
                for c in &t.columns {
                    if c.indexed {
                        if let Some(idx) = HashIndex::build(table, &c.name) {
                            indexes.entry(t.name.clone()).or_default().insert(c.name.clone(), idx);
                        }
                    }
                }
            }
        }
        Database { schema, tables, samples, indexes }
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// The sampled rows of a table.
    pub fn sample(&self, table: &str) -> Option<&TableSample> {
        self.samples.get(table)
    }

    /// The hash index on `(table, column)`, if one was built.
    pub fn index(&self, table: &str, column: &str) -> Option<&HashIndex> {
        self.indexes.get(table)?.get(column)
    }

    /// Number of rows in a table (0 when the table is unknown).
    pub fn table_rows(&self, name: &str) -> usize {
        self.tables.get(name).map(|t| t.n_rows()).unwrap_or(0)
    }

    /// Names of all materialized tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.schema.tables.iter().map(|t| t.name.as_str()).filter(|n| self.tables.contains_key(*n)).collect()
    }
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::generator::{generate_imdb, GeneratorConfig};

    #[test]
    fn indexes_built_for_pk_and_fk_columns() {
        let db = generate_imdb(GeneratorConfig::tiny());
        assert!(db.index("title", "id").is_some());
        assert!(db.index("movie_companies", "movie_id").is_some());
        assert!(db.index("movie_companies", "note").is_none());
    }

    #[test]
    fn pk_index_is_unique() {
        let db = generate_imdb(GeneratorConfig::tiny());
        let idx = db.index("title", "id").expect("index exists");
        assert_eq!(idx.distinct_keys(), db.table_rows("title"));
        assert!((idx.avg_rows_per_key() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_names_cover_schema() {
        let db = generate_imdb(GeneratorConfig::tiny());
        assert_eq!(db.table_names().len(), db.schema().tables.len());
        assert_eq!(db.table_rows("does_not_exist"), 0);
    }

    #[test]
    fn fk_index_lookup_matches_scan() {
        let db = generate_imdb(GeneratorConfig::tiny());
        let mc = db.table("movie_companies").expect("exists");
        let idx = db.index("movie_companies", "movie_id").expect("index exists");
        let key = mc.int("movie_id", 17).expect("int");
        let via_index = idx.lookup(key);
        let via_scan: Vec<usize> = (0..mc.n_rows()).filter(|&r| mc.int("movie_id", r) == Some(key)).collect();
        assert_eq!(via_index, via_scan.as_slice());
    }
}
