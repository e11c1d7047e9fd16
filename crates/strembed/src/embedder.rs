//! End-to-end construction of a string encoder from a database and a
//! workload: rule generation → rule selection → dictionary extraction →
//! skip-gram pre-training → trie indexing.

use crate::encoders::{EmbeddingEncoder, HashBitmapEncoder, StringEncoder};
use crate::rules::candidate_rules;
use crate::selection::select_rules;
use crate::skipgram::{SkipGramConfig, SkipGramModel};
use imdb::Database;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which string encoding to build (the `String` column of Table 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StringEncoding {
    /// Per-character hash bitmap.
    Hash,
    /// Skip-gram embedding over whole column values only (no rules).
    EmbedNoRule,
    /// Skip-gram embedding over the rule-extracted substring dictionary.
    EmbedRule,
}

/// Configuration of the embedding pipeline.
#[derive(Debug, Clone, Copy)]
pub struct EmbedderConfig {
    /// Output vector width (hash bitmap width / embedding dimension).
    pub dim: usize,
    /// Maximum number of rows sampled per table when building sentences.
    pub max_rows_per_table: usize,
    /// Dictionary size bound `B` for rule selection.
    pub dictionary_bound: usize,
    /// Skip-gram training epochs.
    pub epochs: usize,
    /// RNG seed for skip-gram initialization.
    pub seed: u64,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig { dim: 16, max_rows_per_table: 500, dictionary_bound: 4000, epochs: 3, seed: 17 }
    }
}

/// Collect a sample of string values per (table, column).
fn sample_string_values(db: &Database, max_rows: usize) -> Vec<(String, String, Vec<String>)> {
    let mut out = Vec::new();
    for def in &db.schema().tables {
        let Some(table) = db.table(&def.name) else { continue };
        for col in &def.columns {
            if col.ty != imdb::ColumnType::Str {
                continue;
            }
            let step = (table.n_rows() / max_rows.max(1)).max(1);
            let values: Vec<String> = (0..table.n_rows())
                .step_by(step)
                .filter_map(|r| table.str(&col.name, r).map(|s| s.to_string()))
                .collect();
            out.push((def.name.clone(), col.name.clone(), values));
        }
    }
    out
}

/// Strip LIKE wildcards from workload query strings to get their literal core.
fn literal(s: &str) -> String {
    s.chars().filter(|&c| c != '%' && c != '_').collect()
}

/// Build a string encoder of the requested kind.
///
/// `workload_strings` are the string operands appearing in the (training)
/// workload — LIKE patterns keep their wildcards here; the literal core is
/// used for rule generation.
pub fn build_string_encoder(
    db: &Database,
    workload_strings: &[String],
    encoding: StringEncoding,
    config: EmbedderConfig,
) -> Arc<dyn StringEncoder> {
    match encoding {
        StringEncoding::Hash => Arc::new(HashBitmapEncoder::new(config.dim.max(32))),
        StringEncoding::EmbedNoRule | StringEncoding::EmbedRule => {
            let samples = sample_string_values(db, config.max_rows_per_table);
            let queries: Vec<String> = workload_strings.iter().map(|s| literal(s)).filter(|s| !s.is_empty()).collect();

            // The dictionary: either rule-extracted substrings (plus the raw
            // query strings) or whole column values only.
            let dictionary: BTreeSet<String> = match encoding {
                StringEncoding::EmbedRule => {
                    let mut candidates = Vec::new();
                    for q in &queries {
                        let mut found = 0;
                        for (_, _, values) in &samples {
                            for v in values {
                                if v.contains(q.as_str()) {
                                    candidates.extend(candidate_rules(q, v));
                                    found += 1;
                                    if found >= 3 {
                                        break;
                                    }
                                }
                            }
                            if found >= 3 {
                                break;
                            }
                        }
                    }
                    let dataset_values: Vec<String> = samples.iter().flat_map(|(_, _, v)| v.iter().cloned()).collect();
                    let selected = select_rules(&candidates, &dataset_values, &queries, config.dictionary_bound);
                    let mut dict = selected.dictionary;
                    dict.extend(queries.iter().cloned());
                    dict
                }
                _ => {
                    let mut dict: BTreeSet<String> = samples.iter().flat_map(|(_, _, v)| v.iter().cloned()).collect();
                    dict.extend(queries.iter().cloned());
                    dict
                }
            };

            // Sentences: for each sampled tuple value, the dictionary tokens
            // it contains (substring containment = co-occurrence in the tuple).
            let mut sentences: Vec<Vec<String>> = Vec::new();
            for (_, _, values) in &samples {
                for v in values {
                    let toks: Vec<String> =
                        dictionary.iter().filter(|d| d.len() >= 2 && v.contains(d.as_str())).take(8).cloned().collect();
                    if toks.len() >= 2 {
                        sentences.push(toks);
                    }
                }
            }

            let model = SkipGramModel::train(
                &sentences,
                SkipGramConfig { dim: config.dim, epochs: config.epochs, seed: config.seed, ..Default::default() },
            );
            // Every dictionary token gets a vector; tokens unseen in any
            // sentence get a small deterministic fallback so tries still
            // resolve them distinctly from "unknown".
            let entries: Vec<(String, Vec<f32>)> = dictionary
                .iter()
                .map(|tok| {
                    let v = model.vector(tok).map(|v| v.to_vec()).unwrap_or_else(|| {
                        let mut h = 0xcbf29ce484222325u64;
                        for b in tok.bytes() {
                            h ^= b as u64;
                            h = h.wrapping_mul(0x100000001b3);
                        }
                        (0..config.dim).map(|i| (((h >> (i % 48)) & 0xff) as f32 / 255.0 - 0.5) * 0.1).collect()
                    });
                    (tok.clone(), v)
                })
                .collect();
            Arc::new(EmbeddingEncoder::new(entries, config.dim))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{generate_imdb, GeneratorConfig};
    use query::CompareOp;

    fn db() -> Database {
        generate_imdb(GeneratorConfig::tiny())
    }

    fn workload_strings() -> Vec<String> {
        vec![
            "%(co-production)%".to_string(),
            "%(presents)%".to_string(),
            "production companies".to_string(),
            "top 250 rank".to_string(),
        ]
    }

    #[test]
    fn hash_encoder_builds() {
        let enc = build_string_encoder(&db(), &workload_strings(), StringEncoding::Hash, EmbedderConfig::default());
        assert!(enc.dim() >= 32);
        assert!(enc.encode("(presents)", CompareOp::Like).iter().any(|&x| x > 0.0));
    }

    #[test]
    fn rule_embedding_encoder_covers_workload_strings() {
        let cfg = EmbedderConfig { max_rows_per_table: 120, epochs: 1, ..Default::default() };
        let enc = build_string_encoder(&db(), &workload_strings(), StringEncoding::EmbedRule, cfg);
        assert_eq!(enc.dim(), cfg.dim);
        // Workload strings must produce non-zero representations.
        let v = enc.encode("%(co-production)%", CompareOp::Like);
        assert!(v.iter().any(|&x| x != 0.0), "workload pattern got a zero representation");
        let v = enc.encode("production companies", CompareOp::Eq);
        assert!(v.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn rule_embedding_generalizes_to_unseen_but_similar_strings() {
        let cfg = EmbedderConfig { max_rows_per_table: 120, epochs: 1, ..Default::default() };
        let enc = build_string_encoder(&db(), &workload_strings(), StringEncoding::EmbedRule, cfg);
        // "top 250 rank list" is not in the workload but the trained string
        // "top 250 rank" is a prefix of it; the trie's longest-prefix lookup
        // should give it a non-zero representation.
        let v = enc.encode("top 250 rank list", CompareOp::Eq);
        assert!(v.iter().any(|&x| x != 0.0), "unseen string did not generalize");
    }

    /// A checkpoint verifies its string encoder by the bits it gives a probe
    /// set, so an encoder rebuilt from the same database and strings must
    /// give the same bits: two builds of each encoding must agree.
    #[test]
    fn every_encoding_builds_the_same_encoder_twice() {
        let db = db();
        let cfg = EmbedderConfig { max_rows_per_table: 60, epochs: 1, ..Default::default() };
        let probes = [
            ("%(co-production)%", CompareOp::Like),
            ("%Pictures)", CompareOp::NotLike),
            ("production companies", CompareOp::Eq),
            ("top 250 rank list", CompareOp::Eq),
            ("never seen", CompareOp::Ne),
            ("", CompareOp::Eq),
        ];
        for encoding in [StringEncoding::Hash, StringEncoding::EmbedNoRule, StringEncoding::EmbedRule] {
            let probe_bits = || {
                let enc = build_string_encoder(&db, &workload_strings(), encoding, cfg);
                probes
                    .iter()
                    .map(|&(s, op)| enc.encode(s, op).iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
                    .collect::<Vec<_>>()
            };
            let first = probe_bits();
            assert!(first.iter().flatten().any(|&b| b != 0), "{encoding:?}: every probe encoded to zeros");
            assert_eq!(first, probe_bits(), "{encoding:?}: two builds encode the probes differently");
        }
    }

    #[test]
    fn no_rule_embedding_builds_from_raw_values() {
        let cfg = EmbedderConfig { max_rows_per_table: 60, epochs: 1, ..Default::default() };
        let enc = build_string_encoder(&db(), &workload_strings(), StringEncoding::EmbedNoRule, cfg);
        let v = enc.encode("%(presents)%", CompareOp::Like);
        assert_eq!(v.len(), cfg.dim);
    }
}
