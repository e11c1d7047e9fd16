//! Predicate selectivity under the attribute-value-independence assumption.

use crate::histogram::ColumnStats;
use query::{AtomPredicate, CompareOp, Name, Operand, Predicate};
use std::collections::HashMap;

/// Default selectivity when no statistics are available for a column.
const DEFAULT_SELECTIVITY: f64 = 0.33;

/// Statistics of all columns of one table, keyed by column name.
pub type TableStats = HashMap<Name, ColumnStats>;

/// Selectivity of an atomic predicate against the table's statistics.
pub fn atom_selectivity(stats: &TableStats, atom: &AtomPredicate) -> f64 {
    let Some(col) = stats.get(&atom.column) else { return DEFAULT_SELECTIVITY };
    match (col, &atom.operand) {
        (ColumnStats::Numeric(num), Operand::Num(v)) => match atom.op {
            CompareOp::Eq => num.selectivity_eq(*v),
            CompareOp::Ne => (1.0 - num.selectivity_eq(*v)).max(0.0),
            CompareOp::Lt => num.selectivity_lt(*v),
            CompareOp::Le => num.selectivity_lt(*v) + num.selectivity_eq(*v),
            CompareOp::Gt => num.selectivity_gt(*v),
            CompareOp::Ge => num.selectivity_gt(*v) + num.selectivity_eq(*v),
            // LIKE / IN on numeric columns: fall back to a default guess.
            _ => DEFAULT_SELECTIVITY,
        },
        (ColumnStats::Text(text), Operand::Str(s)) => match atom.op {
            CompareOp::Eq | CompareOp::In => text.selectivity_eq(s),
            CompareOp::Ne => (1.0 - text.selectivity_eq(s)).max(0.0),
            CompareOp::Like => text.selectivity_like(s),
            CompareOp::NotLike => (1.0 - text.selectivity_like(s)).max(0.0),
            // Range comparison on strings: default guess.
            _ => DEFAULT_SELECTIVITY,
        },
        (ColumnStats::Text(text), Operand::StrList(items)) => {
            let sel: f64 = items.iter().map(|s| text.selectivity_eq(s)).sum();
            sel.clamp(0.0, 1.0)
        }
        // Type mismatch between statistics and operand.
        _ => DEFAULT_SELECTIVITY,
    }
    .clamp(0.0, 1.0)
}

/// Selectivity of a (possibly compound) predicate, assuming independence
/// between atoms: `AND` multiplies, `OR` uses inclusion–exclusion.
pub fn predicate_selectivity(stats: &TableStats, predicate: &Predicate) -> f64 {
    match predicate {
        Predicate::Atom(a) => atom_selectivity(stats, a),
        Predicate::And(l, r) => predicate_selectivity(stats, l) * predicate_selectivity(stats, r),
        Predicate::Or(l, r) => {
            let sl = predicate_selectivity(stats, l);
            let sr = predicate_selectivity(stats, r);
            (sl + sr - sl * sr).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{Column, Schema, Table};
    use query::Operand;

    fn title_stats() -> TableStats {
        // 1000 rows, years uniform in 1950..2010, kind skewed.
        let years: Vec<i64> = (0..1000).map(|i| 1950 + (i % 60)).collect();
        let kinds: Vec<i64> = (0..1000).map(|i| if i % 10 == 0 { 2 } else { 1 }).collect();
        let def = Schema::imdb().table("title").expect("exists").clone();
        let table = Table::new(
            def,
            vec![
                Column::Int((1..=1000).collect()),
                Column::Str((0..1000).map(|i| format!("Movie {i}")).collect()),
                Column::Int(kinds),
                Column::Int(years),
                Column::Int(vec![0; 1000]),
                Column::Int(vec![0; 1000]),
            ],
        );
        let mut stats = TableStats::new();
        for col in ["id", "kind_id", "production_year", "title"] {
            stats.insert(col.into(), ColumnStats::build(&table, col).expect("column exists"));
        }
        stats
    }

    #[test]
    fn range_predicate_selectivity() {
        let stats = title_stats();
        let p = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(1980.0));
        let sel = predicate_selectivity(&stats, &p);
        assert!((sel - 0.5).abs() < 0.1, "sel {sel}");
    }

    #[test]
    fn and_multiplies_or_adds() {
        let stats = title_stats();
        let a = Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(1980.0));
        let b = Predicate::atom("title", "kind_id", CompareOp::Eq, Operand::Num(2.0));
        let sa = predicate_selectivity(&stats, &a);
        let sb = predicate_selectivity(&stats, &b);
        let s_and = predicate_selectivity(&stats, &a.clone().and(b.clone()));
        let s_or = predicate_selectivity(&stats, &a.or(b));
        assert!((s_and - sa * sb).abs() < 1e-9);
        assert!((s_or - (sa + sb - sa * sb)).abs() < 1e-9);
        assert!(s_and <= sa.min(sb));
        assert!(s_or >= sa.max(sb));
    }

    #[test]
    fn missing_column_uses_default() {
        let stats = title_stats();
        let p = Predicate::atom("title", "unknown_column", CompareOp::Eq, Operand::Num(1.0));
        assert_eq!(predicate_selectivity(&stats, &p), 0.33);
    }

    #[test]
    fn selectivity_always_a_probability() {
        let stats = title_stats();
        let preds = [
            Predicate::atom("title", "production_year", CompareOp::Lt, Operand::Num(1000.0)),
            Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(3000.0)),
            Predicate::atom("title", "title", CompareOp::Like, Operand::Str("%Movie%".into())),
            Predicate::atom("title", "title", CompareOp::NotLike, Operand::Str("%zzz%".into())),
        ];
        for p in preds {
            let s = predicate_selectivity(&stats, &p);
            assert!((0.0..=1.0).contains(&s), "{p} -> {s}");
        }
    }

    #[test]
    fn in_list_sums_frequencies() {
        let stats = title_stats();
        let p = Predicate::atom(
            "title",
            "title",
            CompareOp::In,
            Operand::StrList(vec!["Movie 1".into(), "Movie 2".into()]),
        );
        let sel = predicate_selectivity(&stats, &p);
        assert!(sel > 0.0 && sel < 0.05);
    }
}
