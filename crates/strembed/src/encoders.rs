//! String-operand encoders (the `String` column of Table 9).
//!
//! The feature extractor needs a fixed-width vector for the operand of a
//! string predicate.  The paper compares several encodings; this module
//! implements the ones this reproduction builds (see
//! [`crate::StringEncoding`]):
//!
//! * [`HashBitmapEncoder`] — per-character hash bitmap (`TLSTMHash*`),
//! * [`EmbeddingEncoder`] — skip-gram vectors behind prefix/suffix tries
//!   (`TLSTMEmbNR*` without rules, `TLSTMEmbR*` / `TPoolEmbR*` with rules).

use crate::trie::StringTrie;
use query::CompareOp;

/// A fixed-width encoder of string operands.
pub trait StringEncoder: Send + Sync {
    /// Width of the produced vector.
    fn dim(&self) -> usize;
    /// Encode a query string used with the given operator.
    fn encode(&self, s: &str, op: CompareOp) -> Vec<f32>;

    /// Write the encoding into the first `min(dim, out.len())` slots of a
    /// **zeroed** `out`, producing exactly the bits of
    /// [`StringEncoder::encode`] truncated to `out.len()`.  The default
    /// delegates to `encode`; allocation-free encoders override it so hot
    /// featurization paths skip the per-call `Vec`.
    fn encode_into(&self, s: &str, op: CompareOp, out: &mut [f32]) {
        for (slot, x) in out.iter_mut().zip(self.encode(s, op)) {
            *slot = x;
        }
    }
}

/// Hash-bitmap encoding: set bit `hash(c) % dim` for every character of the
/// string.  Captures character overlap but not co-occurrence.
#[derive(Debug, Clone)]
pub struct HashBitmapEncoder {
    dim: usize,
}

impl HashBitmapEncoder {
    /// Create an encoder with the given bitmap width.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "hash bitmap width must be positive");
        HashBitmapEncoder { dim }
    }
}

impl StringEncoder for HashBitmapEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn encode(&self, s: &str, op: CompareOp) -> Vec<f32> {
        let mut bits = vec![0.0; self.dim];
        self.encode_into(s, op, &mut bits);
        bits
    }

    fn encode_into(&self, s: &str, _op: CompareOp, out: &mut [f32]) {
        for c in s.chars() {
            // FNV-1a style per-character hash; stable across runs.
            let mut h = 0xcbf29ce484222325u64;
            h ^= c as u64;
            h = h.wrapping_mul(0x100000001b3);
            let slot = (h % self.dim as u64) as usize;
            if let Some(bit) = out.get_mut(slot) {
                *bit = 1.0;
            }
        }
    }
}

/// Skip-gram embedding encoder backed by prefix and suffix tries.
///
/// Online lookup follows Section 5.3: prefix searches (`LIKE 's%'`) use the
/// longest stored prefix, suffix searches the longest stored suffix, and
/// equality/containment searches take whichever of the two is longer.
#[derive(Debug, Clone)]
pub struct EmbeddingEncoder {
    prefix: StringTrie,
    suffix: StringTrie,
    dim: usize,
}

impl EmbeddingEncoder {
    /// Build from `(token, vector)` pairs.
    pub fn new(entries: impl IntoIterator<Item = (String, Vec<f32>)>, dim: usize) -> Self {
        let mut prefix = StringTrie::new_prefix();
        let mut suffix = StringTrie::new_suffix();
        for (tok, vec) in entries {
            assert_eq!(vec.len(), dim, "embedding width mismatch for token {tok}");
            prefix.insert(&tok, vec.clone());
            suffix.insert(&tok, vec);
        }
        EmbeddingEncoder { prefix, suffix, dim }
    }

    /// Number of stored tokens.
    pub fn vocab_size(&self) -> usize {
        self.prefix.len()
    }

    /// Strip LIKE wildcards, keeping the literal core of the pattern.
    fn literal_core(s: &str) -> (String, bool, bool) {
        let starts_any = s.starts_with('%');
        let ends_any = s.ends_with('%');
        let core: String = s.chars().filter(|&c| c != '%' && c != '_').collect();
        (core, starts_any, ends_any)
    }
}

impl StringEncoder for EmbeddingEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn encode(&self, s: &str, op: CompareOp) -> Vec<f32> {
        let (core, starts_any, ends_any) = Self::literal_core(s);
        if core.is_empty() {
            return vec![0.0; self.dim];
        }
        let is_pattern = matches!(op, CompareOp::Like | CompareOp::NotLike);
        let choice = if is_pattern && !starts_any && ends_any {
            // Prefix search: LIKE 's%'.
            self.prefix.longest_match(&core).map(|(_, v)| v)
        } else if is_pattern && starts_any && !ends_any {
            // Suffix search: LIKE '%s'.
            self.suffix.longest_match(&core).map(|(_, v)| v)
        } else {
            // Equality / containment: the longer of prefix and suffix matches.
            match (self.prefix.longest_match(&core), self.suffix.longest_match(&core)) {
                (Some((lp, vp)), Some((ls, vs))) => Some(if lp >= ls { vp } else { vs }),
                (Some((_, v)), None) | (None, Some((_, v))) => Some(v),
                (None, None) => None,
            }
        };
        choice.map(|v| v.to_vec()).unwrap_or_else(|| vec![0.0; self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_bitmap_is_deterministic_and_bounded() {
        let enc = HashBitmapEncoder::new(64);
        let a = enc.encode("(co-production)", CompareOp::Like);
        let b = enc.encode("(co-production)", CompareOp::Like);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&x| x == 0.0 || x == 1.0));
        assert!(a.contains(&1.0));
    }

    #[test]
    fn hash_bitmap_shares_bits_for_shared_characters() {
        let enc = HashBitmapEncoder::new(128);
        let a = enc.encode("production", CompareOp::Eq);
        let b = enc.encode("co-production", CompareOp::Eq);
        // Every bit of "production" is also set for "co-production".
        for (x, y) in a.iter().zip(b.iter()) {
            if *x == 1.0 {
                assert_eq!(*y, 1.0);
            }
        }
    }

    fn embedding_encoder() -> EmbeddingEncoder {
        EmbeddingEncoder::new(
            [
                ("Din".to_string(), vec![1.0, 0.0]),
                ("Sch".to_string(), vec![0.0, 1.0]),
                ("06".to_string(), vec![0.5, 0.5]),
            ],
            2,
        )
    }

    #[test]
    fn embedding_prefix_search_uses_longest_prefix() {
        let enc = embedding_encoder();
        // LIKE 'Dino%' → representation of 'Din'.
        assert_eq!(enc.encode("Dino%", CompareOp::Like), vec![1.0, 0.0]);
        assert_eq!(enc.encode("Schl%", CompareOp::Like), vec![0.0, 1.0]);
    }

    #[test]
    fn embedding_containment_uses_prefix_or_suffix() {
        let enc = embedding_encoder();
        assert_eq!(enc.encode("%06%", CompareOp::Like), vec![0.5, 0.5]);
        // Equality on a known token.
        assert_eq!(enc.encode("Din", CompareOp::Eq), vec![1.0, 0.0]);
    }

    #[test]
    fn embedding_unknown_string_is_zero_vector() {
        let enc = embedding_encoder();
        assert_eq!(enc.encode("%zzz%", CompareOp::Like), vec![0.0, 0.0]);
        assert_eq!(enc.encode("%", CompareOp::Like), vec![0.0, 0.0]);
        assert_eq!(enc.vocab_size(), 3);
    }
}
