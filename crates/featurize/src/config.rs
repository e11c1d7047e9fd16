//! Encoding configuration: the one-hot dictionaries derived from the schema.
//!
//! The widths of every feature vector are fixed up-front from the database
//! schema (tables, columns, indexes), the comparison-operator set and the
//! chosen string-encoder width, so that plans of any shape encode into
//! tensors of consistent dimensions (Figure 3 of the paper).

use imdb::Database;
use query::{CompareOp, Name};
use std::collections::HashMap;

/// Fixed encoding dimensions and one-hot position dictionaries.
#[derive(Debug, Clone)]
pub struct EncodingConfig {
    /// Table name → one-hot position.
    pub table_pos: HashMap<Name, usize>,
    /// (table, column) → one-hot position.
    pub column_pos: HashMap<(Name, Name), usize>,
    /// (table, column) of indexed columns → one-hot position.
    pub index_pos: HashMap<(Name, Name), usize>,
    /// min/max of each numeric column, used to normalize numeric operands.
    pub numeric_range: HashMap<(Name, Name), (f64, f64)>,
    /// Width of the string-operand encoding.
    pub string_dim: usize,
    /// Width of the sample bitmap.
    pub sample_bits: usize,
}

impl EncodingConfig {
    /// Derive the configuration from a database.
    pub fn from_database(db: &Database, string_dim: usize, sample_bits: usize) -> Self {
        let schema = db.schema();
        let mut table_pos = HashMap::new();
        let mut column_pos = HashMap::new();
        let mut index_pos = HashMap::new();
        let mut numeric_range = HashMap::new();
        for (ti, t) in schema.tables.iter().enumerate() {
            let table = Name::new(&t.name);
            table_pos.insert(table, ti);
            for c in &t.columns {
                let key = (table, Name::new(&c.name));
                let pos = column_pos.len();
                column_pos.insert(key, pos);
                if c.indexed {
                    let ipos = index_pos.len();
                    index_pos.insert(key, ipos);
                }
                if c.ty == imdb::ColumnType::Int {
                    if let Some(table) = db.table(&t.name) {
                        if let Some(imdb::Column::Int(values)) = table.column_by_name(&c.name) {
                            let min = values.iter().copied().min().unwrap_or(0) as f64;
                            let max = values.iter().copied().max().unwrap_or(1) as f64;
                            numeric_range.insert(key, (min, max.max(min + 1.0)));
                        }
                    }
                }
            }
        }
        EncodingConfig { table_pos, column_pos, index_pos, numeric_range, string_dim, sample_bits }
    }

    /// Width of the operation one-hot.
    pub fn operation_dim(&self) -> usize {
        query::PhysicalOp::NUM_OPS
    }

    /// Width of the metadata vector (tables ⧺ columns ⧺ indexes bitmaps).
    pub fn metadata_dim(&self) -> usize {
        self.table_pos.len() + self.column_pos.len() + self.index_pos.len()
    }

    /// Width of one encoded atomic predicate:
    /// column one-hot ⧺ operator one-hot ⧺ numeric slot ⧺ string encoding.
    pub fn atom_dim(&self) -> usize {
        self.column_pos.len() + CompareOp::ALL.len() + 1 + self.string_dim
    }

    /// Width of the sample bitmap.
    pub fn sample_dim(&self) -> usize {
        self.sample_bits
    }

    /// One-hot position of `(table, column)`.
    pub fn column_position(&self, table: Name, column: Name) -> Option<usize> {
        self.column_pos.get(&(table, column)).copied()
    }

    /// One-hot position of the index on `(table, column)`.
    pub fn index_position(&self, table: Name, column: Name) -> Option<usize> {
        self.index_pos.get(&(table, column)).copied()
    }

    /// Normalize a numeric operand into `[0, 1]` using the column's range.
    pub fn normalize_numeric(&self, table: Name, column: Name, value: f64) -> f64 {
        match self.numeric_range.get(&(table, column)) {
            Some((min, max)) => ((value - min) / (max - min)).clamp(0.0, 1.0),
            None => 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{generate_imdb, GeneratorConfig};

    #[test]
    fn dimensions_are_consistent() {
        let db = generate_imdb(GeneratorConfig::tiny());
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        assert_eq!(cfg.operation_dim(), 7);
        assert_eq!(cfg.table_pos.len(), db.schema().tables.len());
        assert_eq!(cfg.column_pos.len(), db.schema().all_columns().len());
        assert_eq!(cfg.metadata_dim(), cfg.table_pos.len() + cfg.column_pos.len() + cfg.index_pos.len());
        assert_eq!(cfg.atom_dim(), cfg.column_pos.len() + 9 + 1 + 16);
        assert_eq!(cfg.sample_dim(), 64);
    }

    #[test]
    fn numeric_normalization_clamps() {
        let db = generate_imdb(GeneratorConfig::tiny());
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let (title, year) = ("title".into(), "production_year".into());
        let lo = cfg.normalize_numeric(title, year, 1800.0);
        let hi = cfg.normalize_numeric(title, year, 2500.0);
        let mid = cfg.normalize_numeric(title, year, 1985.0);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 1.0);
        assert!(mid > 0.0 && mid < 1.0);
        assert_eq!(cfg.normalize_numeric(title, "unknown".into(), 5.0), 0.5);
    }

    #[test]
    fn name_keyed_probes_match_dictionary_entries() {
        let db = generate_imdb(GeneratorConfig::tiny());
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        for (&(table, column), &pos) in &cfg.column_pos {
            // A name rebuilt from its text is the same handle.
            assert_eq!(cfg.column_position(Name::new(&table), Name::new(&column)), Some(pos));
        }
        for (&(table, column), &pos) in &cfg.index_pos {
            assert_eq!(cfg.index_position(table, column), Some(pos));
        }
        for (t, def) in db.schema().tables.iter().enumerate() {
            assert_eq!(cfg.table_pos.get(def.name.as_str()), Some(&t), "probe by text");
        }
        assert_eq!(cfg.column_position("title".into(), "no_such_column".into()), None);
        assert_eq!(cfg.index_position("no_such_table".into(), "id".into()), None);
    }

    #[test]
    fn one_hot_positions_are_unique() {
        let db = generate_imdb(GeneratorConfig::tiny());
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let mut positions: Vec<usize> = cfg.column_pos.values().copied().collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), cfg.column_pos.len());
    }
}
