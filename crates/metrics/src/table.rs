//! Plain-text report tables printed by the benchmark harnesses.
//!
//! Each reproduction bench prints the same rows as the corresponding table
//! in the paper (method name + median/90th/95th/99th/max/mean), so the
//! output can be compared side-by-side with the published numbers.

use crate::summary::ErrorSummary;

/// A table of error summaries, one row per method, as printed in the paper.
#[derive(Debug, Clone, Default)]
pub struct ReportTable {
    title: String,
    rows: Vec<(String, ErrorSummary)>,
}

impl ReportTable {
    /// Create an empty table with the given title (e.g. "Table 7: JOB-light").
    pub fn new(title: impl Into<String>) -> Self {
        ReportTable { title: title.into(), rows: Vec::new() }
    }

    /// Append a row computed from raw per-query errors.
    pub fn add_errors(&mut self, method: impl Into<String>, errors: &[f64]) -> &mut Self {
        self.rows.push((method.into(), ErrorSummary::from_errors(errors)));
        self
    }

    /// Rows added so far.
    pub fn rows(&self) -> &[(String, ErrorSummary)] {
        &self.rows
    }

    /// Render the table as a multi-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!(
            "{:<18} {:>16} {:>14} {:>14} {:>15} {:>16} {:>14}\n",
            "method", "median", "90th", "95th", "99th", "max", "mean"
        ));
        for (name, s) in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>16.2} {:>14.2} {:>14.2} {:>15.2} {:>16.2} {:>14.2}\n",
                name, s.median, s.p90, s.p95, s.p99, s.max, s.mean
            ));
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_rows() {
        let mut t = ReportTable::new("Table X");
        t.add_errors("PGCard", &[1.0, 2.0, 3.0]);
        t.add_errors("TLSTMCard", &[1.0, 1.5]);
        let r = t.render();
        assert!(r.contains("Table X"));
        assert!(r.contains("PGCard"));
        assert!(r.contains("TLSTMCard"));
        assert_eq!(t.rows().len(), 2);
    }
}
