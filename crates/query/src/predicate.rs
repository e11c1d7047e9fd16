//! Predicate expression trees and their evaluation.
//!
//! A predicate is either an atomic comparison `column op operand` or an
//! AND/OR combination of two sub-predicates (the paper's compound predicates,
//! Figure 4).  Operands are numeric constants, string constants or string
//! lists (for `IN`).

use crate::like::like_match;
use crate::name::Name;
use crate::sighash::{hash_str, Words};
use imdb::{Table, Value};
use std::fmt;

/// Comparison operator of an atomic predicate (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    Like,
    NotLike,
    In,
}

impl CompareOp {
    /// All operators, in the order used for one-hot encoding.
    pub const ALL: [CompareOp; 9] = [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Gt,
        CompareOp::Le,
        CompareOp::Ge,
        CompareOp::Like,
        CompareOp::NotLike,
        CompareOp::In,
    ];

    /// Index of this operator in [`CompareOp::ALL`]: the discriminant, since
    /// the enum is declared in `ALL`'s order.
    #[inline]
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Gt => ">",
            CompareOp::Le => "<=",
            CompareOp::Ge => ">=",
            CompareOp::Like => "LIKE",
            CompareOp::NotLike => "NOT LIKE",
            CompareOp::In => "IN",
        };
        write!(f, "{s}")
    }
}

/// Right-hand side of an atomic predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Num(f64),
    Str(String),
    StrList(Vec<String>),
}

impl Operand {
    /// The string content for string / pattern operands.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Operand::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Num(v) => write!(f, "{v}"),
            Operand::Str(s) => write!(f, "'{s}'"),
            Operand::StrList(items) => {
                write!(f, "(")?;
                for (i, s) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "'{s}'")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An atomic predicate `table.column op operand`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomPredicate {
    pub table: Name,
    pub column: Name,
    pub op: CompareOp,
    pub operand: Operand,
}

impl AtomPredicate {
    /// Construct an atomic predicate.
    pub fn new(table: &str, column: &str, op: CompareOp, operand: Operand) -> Self {
        AtomPredicate { table: table.into(), column: column.into(), op, operand }
    }

    /// Evaluate against a concrete value.
    pub fn matches_value(&self, value: &Value) -> bool {
        match (&self.operand, value) {
            (Operand::Num(rhs), Value::Int(lhs)) => {
                let l = *lhs as f64;
                match self.op {
                    CompareOp::Eq => (l - rhs).abs() < f64::EPSILON,
                    CompareOp::Ne => (l - rhs).abs() >= f64::EPSILON,
                    CompareOp::Lt => l < *rhs,
                    CompareOp::Gt => l > *rhs,
                    CompareOp::Le => l <= *rhs,
                    CompareOp::Ge => l >= *rhs,
                    // LIKE/IN on numeric values never match.
                    _ => false,
                }
            }
            (Operand::Str(rhs), Value::Str(lhs)) => match self.op {
                CompareOp::Eq => lhs == rhs,
                CompareOp::Ne => lhs != rhs,
                CompareOp::Lt => lhs < rhs,
                CompareOp::Gt => lhs > rhs,
                CompareOp::Le => lhs <= rhs,
                CompareOp::Ge => lhs >= rhs,
                CompareOp::Like => like_match(lhs, rhs),
                CompareOp::NotLike => !like_match(lhs, rhs),
                CompareOp::In => lhs == rhs,
            },
            (Operand::StrList(items), Value::Str(lhs)) => match self.op {
                CompareOp::In => items.iter().any(|s| s == lhs),
                CompareOp::Eq => items.iter().any(|s| s == lhs),
                CompareOp::Ne => !items.iter().any(|s| s == lhs),
                _ => false,
            },
            // Type mismatch: predicate never matches.
            _ => false,
        }
    }

    /// Evaluate against a row of a table (false when the column is missing).
    pub fn matches_row(&self, table: &Table, row: usize) -> bool {
        match table.value(&self.column, row) {
            Some(v) => self.matches_value(&v),
            None => false,
        }
    }
}

impl fmt::Display for AtomPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} {} {}", self.table, self.column, self.op, self.operand)
    }
}

/// A predicate expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    Atom(AtomPredicate),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Leaf constructor.
    pub fn atom(table: &str, column: &str, op: CompareOp, operand: Operand) -> Self {
        Predicate::Atom(AtomPredicate::new(table, column, op, operand))
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Evaluate the predicate against one row of a single table.
    pub fn matches_row(&self, table: &Table, row: usize) -> bool {
        match self {
            Predicate::Atom(a) => a.matches_row(table, row),
            Predicate::And(l, r) => l.matches_row(table, row) && r.matches_row(table, row),
            Predicate::Or(l, r) => l.matches_row(table, row) || r.matches_row(table, row),
        }
    }

    /// All atomic predicates, in depth-first order (the order used by the
    /// DFS one-to-one predicate encoding of Section 4.1).
    pub fn atoms(&self) -> Vec<&AtomPredicate> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a AtomPredicate>) {
        match self {
            Predicate::Atom(a) => out.push(a),
            Predicate::And(l, r) | Predicate::Or(l, r) => {
                l.collect_atoms(out);
                r.collect_atoms(out);
            }
        }
    }

    /// Visit every atomic predicate in depth-first order without collecting
    /// them into a `Vec` — the allocation-free form of [`Predicate::atoms`]
    /// for hot encode paths.
    pub fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(&'a AtomPredicate)) {
        match self {
            Predicate::Atom(a) => f(a),
            Predicate::And(l, r) | Predicate::Or(l, r) => {
                l.for_each_atom(f);
                r.for_each_atom(f);
            }
        }
    }

    /// Number of atomic predicates.
    pub fn num_atoms(&self) -> usize {
        match self {
            Predicate::Atom(_) => 1,
            Predicate::And(l, r) | Predicate::Or(l, r) => l.num_atoms() + r.num_atoms(),
        }
    }

    /// Depth of the predicate tree (an atom has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Predicate::Atom(_) => 1,
            Predicate::And(l, r) | Predicate::Or(l, r) => 1 + l.depth().max(r.depth()),
        }
    }

    /// Tables referenced anywhere in the predicate, sorted by name.
    pub fn tables(&self) -> Vec<Name> {
        let mut tables: Vec<Name> = self.atoms().iter().map(|a| a.table).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// Feed this predicate's structure, in prefix order, as signature words
    /// (see [`crate::sighash`]).  An atom is one tag word (comparison
    /// operator, operand kind and list length) XORed into its table's word,
    /// then its column and its operand: a number's bits, or each string's
    /// key.  AND and OR are a tag word of their own, then both sides.
    pub(crate) fn hash_signature(&self, words: &mut Words<'_>) {
        match self {
            Predicate::Atom(a) => {
                let (operand_kind, len) = match &a.operand {
                    Operand::Num(_) => (0, 0),
                    Operand::Str(_) => (1, 0),
                    Operand::StrList(items) => (2, items.len() as u64),
                };
                let tag = (a.op.index() as u64) << 8 | operand_kind << 16 | len << 32;
                words.push(a.table.sig_hash() ^ tag);
                words.push(a.column.sig_hash());
                match &a.operand {
                    Operand::Num(v) => words.push(v.to_bits()),
                    Operand::Str(s) => words.push(hash_str(s)),
                    Operand::StrList(items) => items.iter().for_each(|s| words.push(hash_str(s))),
                }
            }
            Predicate::And(l, r) | Predicate::Or(l, r) => {
                words.push(if matches!(self, Predicate::And(..)) { 1 } else { 2 });
                l.hash_signature(words);
                r.hash_signature(words);
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Atom(a) => write!(f, "{a}"),
            Predicate::And(l, r) => write!(f, "({l} AND {r})"),
            Predicate::Or(l, r) => write!(f, "({l} OR {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{Column, Schema, Table};

    fn company_type_table() -> Table {
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
    fn numeric_comparisons() {
        let t = company_type_table();
        let p = Predicate::atom("company_type", "id", CompareOp::Gt, Operand::Num(2.0));
        assert!(!p.matches_row(&t, 0));
        assert!(p.matches_row(&t, 2));
        let p = Predicate::atom("company_type", "id", CompareOp::Eq, Operand::Num(1.0));
        assert!(p.matches_row(&t, 0));
        assert!(!p.matches_row(&t, 1));
    }

    #[test]
    fn string_equality_and_like() {
        let t = company_type_table();
        let eq = Predicate::atom("company_type", "kind", CompareOp::Eq, Operand::Str("distributors".into()));
        assert!(eq.matches_row(&t, 1));
        assert!(!eq.matches_row(&t, 0));
        let like = Predicate::atom("company_type", "kind", CompareOp::Like, Operand::Str("%companies%".into()));
        assert!(like.matches_row(&t, 0));
        assert!(!like.matches_row(&t, 1));
        let not_like = Predicate::atom("company_type", "kind", CompareOp::NotLike, Operand::Str("%companies%".into()));
        assert!(not_like.matches_row(&t, 1));
    }

    #[test]
    fn in_list() {
        let t = company_type_table();
        let p = Predicate::atom(
            "company_type",
            "kind",
            CompareOp::In,
            Operand::StrList(vec!["distributors".into(), "nonexistent".into()]),
        );
        assert!(p.matches_row(&t, 1));
        assert!(!p.matches_row(&t, 2));
    }

    #[test]
    fn and_or_semantics() {
        let t = company_type_table();
        let a = Predicate::atom("company_type", "id", CompareOp::Gt, Operand::Num(1.0));
        let b = Predicate::atom("company_type", "kind", CompareOp::Like, Operand::Str("%companies%".into()));
        let and = a.clone().and(b.clone());
        let or = a.or(b);
        // Row 1 (distributors, id 2): a true, b false.
        assert!(!and.matches_row(&t, 1));
        assert!(or.matches_row(&t, 1));
        // Row 0 (production companies, id 1): a false, b true.
        assert!(!and.matches_row(&t, 0));
        assert!(or.matches_row(&t, 0));
        // Row 2: both true.
        assert!(and.matches_row(&t, 2));
    }

    #[test]
    fn atoms_in_dfs_order() {
        let a = Predicate::atom("t", "a", CompareOp::Gt, Operand::Num(1.0));
        let b = Predicate::atom("t", "b", CompareOp::Lt, Operand::Num(2.0));
        let c = Predicate::atom("t", "c", CompareOp::Eq, Operand::Num(3.0));
        let p = a.clone().and(b.clone()).or(c.clone());
        let atoms = p.atoms();
        assert_eq!(atoms.len(), 3);
        assert_eq!(atoms[0].column, "a");
        assert_eq!(atoms[1].column, "b");
        assert_eq!(atoms[2].column, "c");
        assert_eq!(p.num_atoms(), 3);
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn type_mismatch_never_matches() {
        let t = company_type_table();
        let p = Predicate::atom("company_type", "kind", CompareOp::Gt, Operand::Num(10.0));
        assert!(!p.matches_row(&t, 0));
        let p = Predicate::atom("company_type", "id", CompareOp::Like, Operand::Str("%1%".into()));
        assert!(!p.matches_row(&t, 0));
        let p = Predicate::atom("company_type", "missing_col", CompareOp::Eq, Operand::Num(1.0));
        assert!(!p.matches_row(&t, 0));
    }

    #[test]
    fn display_round_trips_structure() {
        let p = Predicate::atom("mc", "note", CompareOp::Like, Operand::Str("%(co-production)%".into()))
            .or(Predicate::atom("mc", "note", CompareOp::Like, Operand::Str("%(presents)%".into())));
        let s = p.to_string();
        assert!(s.contains("OR"));
        assert!(s.contains("co-production"));
    }

    #[test]
    fn operator_one_hot_indexes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, op) in CompareOp::ALL.into_iter().enumerate() {
            assert!(seen.insert(op.index()));
            // The one-hot positions the golden checkpoints were trained on.
            assert_eq!(op.index(), i, "{op} moved in the one-hot encoding");
        }
        assert_eq!(seen.len(), CompareOp::ALL.len());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use imdb::Value;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = CompareOp> {
        prop::sample::select(CompareOp::ALL.to_vec())
    }

    proptest! {
        #[test]
        fn and_implies_both_or(v in -1000i64..1000, rhs1 in -1000f64..1000.0, rhs2 in -1000f64..1000.0, op1 in arb_op(), op2 in arb_op()) {
            let a = AtomPredicate::new("t", "c", op1, Operand::Num(rhs1));
            let b = AtomPredicate::new("t", "c", op2, Operand::Num(rhs2));
            let val = Value::Int(v);
            let and = a.matches_value(&val) && b.matches_value(&val);
            let or = a.matches_value(&val) || b.matches_value(&val);
            // AND result must imply OR result.
            prop_assert!(!and || or);
        }

        #[test]
        fn eq_and_ne_are_complementary_for_numbers(v in -100i64..100, rhs in -100i64..100) {
            let eq = AtomPredicate::new("t", "c", CompareOp::Eq, Operand::Num(rhs as f64));
            let ne = AtomPredicate::new("t", "c", CompareOp::Ne, Operand::Num(rhs as f64));
            let val = Value::Int(v);
            prop_assert_ne!(eq.matches_value(&val), ne.matches_value(&val));
        }

        #[test]
        fn like_and_not_like_complementary(s in "[a-z]{0,12}", pat in "[a-z%]{1,6}") {
            let like = AtomPredicate::new("t", "c", CompareOp::Like, Operand::Str(pat.clone()));
            let nlike = AtomPredicate::new("t", "c", CompareOp::NotLike, Operand::Str(pat));
            let val = Value::Str(s);
            prop_assert_ne!(like.matches_value(&val), nlike.matches_value(&val));
        }
    }
}
