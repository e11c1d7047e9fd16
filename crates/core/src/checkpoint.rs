//! Tree-estimator checkpoint serialization.
//!
//! A [`crate::CostEstimator`] checkpoint is one [`nn::checkpoint`] container
//! of kind [`ckpt::KIND_TREE_ESTIMATOR`]:
//!
//! ```text
//! magic "E2ECKPT\0" | version u32 | kind u8 = 1
//! model config      (cell/predicate/task tags, dims, loss weight, seed)
//! target normalization (cost + cardinality log-range, 4 f64)
//! extractor vocab   (table/column/index one-hot dictionaries, numeric
//!                    ranges, string/sample widths, sample-bitmap flag)
//! parameter section (nested ParamStore payload, kind 0)
//! ```
//!
//! The vocab section makes a checkpoint self-describing: loading verifies
//! the saved dictionaries against the live extractor **entry by entry** and
//! fails with [`CheckpointError::VocabMismatch`] when the model was trained
//! under different feature positions — the failure mode that would
//! otherwise silently scramble every one-hot feature.  All floats are raw
//! bit patterns, so a load is bit-identical to the save.

use crate::model::{ModelConfig, PredicateModelKind, RepresentationCellKind, TaskMode};
use crate::trainer::TargetNormalization;
use featurize::{EncodingConfig, FeatureExtractor};
use nn::checkpoint as ckpt;
use nn::checkpoint::CheckpointError;
use nn::loss::NormalizationStats;
use nn::ParamStore;
use query::{CompareOp, Name};
use std::collections::HashMap;
use std::io::{Read, Write};

fn cell_tag(cell: RepresentationCellKind) -> u8 {
    match cell {
        RepresentationCellKind::Lstm => 0,
        RepresentationCellKind::Nn => 1,
    }
}

fn predicate_tag(p: PredicateModelKind) -> u8 {
    match p {
        PredicateModelKind::MinMaxPool => 0,
        PredicateModelKind::TreeLstm => 1,
    }
}

fn task_tag(t: TaskMode) -> u8 {
    match t {
        TaskMode::CardinalityOnly => 0,
        TaskMode::CostOnly => 1,
        TaskMode::Multitask => 2,
    }
}

pub(crate) fn write_model_config(w: &mut impl Write, cfg: &ModelConfig) -> Result<(), CheckpointError> {
    ckpt::write_u8(w, cell_tag(cfg.cell))?;
    ckpt::write_u8(w, predicate_tag(cfg.predicate))?;
    ckpt::write_u8(w, task_tag(cfg.task))?;
    ckpt::write_f64(w, cfg.cost_loss_weight)?;
    ckpt::write_u64(w, cfg.feature_embed_dim as u64)?;
    ckpt::write_u64(w, cfg.hidden_dim as u64)?;
    ckpt::write_u64(w, cfg.estimation_hidden_dim as u64)?;
    ckpt::write_u64(w, cfg.seed)
}

pub(crate) fn read_model_config(r: &mut impl Read) -> Result<ModelConfig, CheckpointError> {
    let cell = match ckpt::read_u8(r, "cell kind")? {
        0 => RepresentationCellKind::Lstm,
        1 => RepresentationCellKind::Nn,
        t => return Err(CheckpointError::Corrupt(format!("unknown representation-cell tag {t}"))),
    };
    let predicate = match ckpt::read_u8(r, "predicate kind")? {
        0 => PredicateModelKind::MinMaxPool,
        1 => PredicateModelKind::TreeLstm,
        t => return Err(CheckpointError::Corrupt(format!("unknown predicate-model tag {t}"))),
    };
    let task = match ckpt::read_u8(r, "task mode")? {
        0 => TaskMode::CardinalityOnly,
        1 => TaskMode::CostOnly,
        2 => TaskMode::Multitask,
        t => return Err(CheckpointError::Corrupt(format!("unknown task tag {t}"))),
    };
    Ok(ModelConfig {
        cell,
        predicate,
        task,
        cost_loss_weight: ckpt::read_f64(r, "cost loss weight")?,
        feature_embed_dim: ckpt::read_u64(r, "feature embed dim")? as usize,
        hidden_dim: ckpt::read_u64(r, "hidden dim")? as usize,
        estimation_hidden_dim: ckpt::read_u64(r, "estimation hidden dim")? as usize,
        seed: ckpt::read_u64(r, "model seed")?,
    })
}

pub(crate) fn write_normalization(w: &mut impl Write, n: &TargetNormalization) -> Result<(), CheckpointError> {
    ckpt::write_f64(w, n.cost.log_min)?;
    ckpt::write_f64(w, n.cost.log_max)?;
    ckpt::write_f64(w, n.cardinality.log_min)?;
    ckpt::write_f64(w, n.cardinality.log_max)
}

pub(crate) fn read_normalization(r: &mut impl Read) -> Result<TargetNormalization, CheckpointError> {
    Ok(TargetNormalization {
        cost: NormalizationStats {
            log_min: ckpt::read_f64(r, "cost log_min")?,
            log_max: ckpt::read_f64(r, "cost log_max")?,
        },
        cardinality: NormalizationStats {
            log_min: ckpt::read_f64(r, "cardinality log_min")?,
            log_max: ckpt::read_f64(r, "cardinality log_max")?,
        },
    })
}

/// Sorted serialization of a `name -> position` dictionary.
fn write_pos_map<W: Write, K: Ord>(
    w: &mut W,
    map: &HashMap<K, usize>,
    write_key: impl Fn(&mut W, &K) -> Result<(), CheckpointError>,
) -> Result<(), CheckpointError> {
    let mut entries: Vec<(&K, usize)> = map.iter().map(|(k, &v)| (k, v)).collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    ckpt::write_u64(w, entries.len() as u64)?;
    for (k, pos) in entries {
        write_key(w, k)?;
        ckpt::write_u64(w, pos as u64)?;
    }
    Ok(())
}

fn write_pair_key<W: Write>(w: &mut W, k: &(Name, Name)) -> Result<(), CheckpointError> {
    ckpt::write_str(w, &k.0)?;
    ckpt::write_str(w, &k.1)
}

pub fn write_vocab(w: &mut impl Write, enc: &EncodingConfig, use_sample_bitmap: bool) -> Result<(), CheckpointError> {
    write_pos_map(w, &enc.table_pos, |w, k| ckpt::write_str(w, k))?;
    write_pos_map(w, &enc.column_pos, write_pair_key)?;
    write_pos_map(w, &enc.index_pos, write_pair_key)?;
    let mut ranges: Vec<_> = enc.numeric_range.iter().map(|(k, &v)| (k, v)).collect();
    ranges.sort_by(|a, b| a.0.cmp(b.0));
    ckpt::write_u64(w, ranges.len() as u64)?;
    for (k, (lo, hi)) in ranges {
        ckpt::write_str(w, &k.0)?;
        ckpt::write_str(w, &k.1)?;
        ckpt::write_f64(w, lo)?;
        ckpt::write_f64(w, hi)?;
    }
    ckpt::write_u64(w, enc.string_dim as u64)?;
    ckpt::write_u64(w, enc.sample_bits as u64)?;
    ckpt::write_u8(w, use_sample_bitmap as u8)
}

/// Probe strings whose encodings fingerprint the string encoder.  The
/// one-hot dictionaries in the vocab section don't cover the encoder's own
/// state (an embedding dictionary, rules, tries); encoding a fixed probe
/// set at save time and comparing bit-exactly at load time catches a
/// checkpoint being applied under a materially different encoder of the
/// same width.  Prefix/suffix/containment/equality shapes are all probed.
const ENCODER_PROBES: &[(&str, CompareOp)] = &[
    ("", CompareOp::Eq),
    ("Din", CompareOp::Eq),
    ("Dino%", CompareOp::Like),
    ("Sch%", CompareOp::Like),
    ("%Pictures)", CompareOp::Like),
    ("%(co-production)%", CompareOp::Like),
    ("%top 250 rank%", CompareOp::NotLike),
    ("%2006%", CompareOp::Like),
];

pub(crate) fn write_encoder_fingerprint(w: &mut impl Write, fx: &FeatureExtractor) -> Result<(), CheckpointError> {
    ckpt::write_u64(w, ENCODER_PROBES.len() as u64)?;
    for &(probe, op) in ENCODER_PROBES {
        let v = fx.encode_string_operand(probe, op);
        ckpt::write_u64(w, v.len() as u64)?;
        ckpt::write_f32_slice(w, &v)?;
    }
    Ok(())
}

pub(crate) fn verify_encoder_fingerprint(r: &mut impl Read, fx: &FeatureExtractor) -> Result<(), CheckpointError> {
    let count = ckpt::read_count(r, "encoder fingerprint count")?;
    if count != ENCODER_PROBES.len() {
        return Err(CheckpointError::VocabMismatch(format!(
            "string-encoder fingerprint has {count} probes, this build expects {}",
            ENCODER_PROBES.len()
        )));
    }
    for &(probe, op) in ENCODER_PROBES {
        let len = ckpt::read_u64(r, "encoder fingerprint width")?;
        let stored = ckpt::read_f32_vec(r, len, "encoder fingerprint")?;
        let live = fx.encode_string_operand(probe, op);
        let same =
            stored.len() == live.len() && stored.iter().zip(live.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(CheckpointError::VocabMismatch(format!(
                "string encoder differs from the one the checkpoint was trained under (probe {probe:?})"
            )));
        }
    }
    Ok(())
}

/// Validate and skip the optional v3 quantized-weights block.  Files
/// written while the estimator had an int8 tier carry one: a presence flag,
/// an entry count, then per entry `(param index u64, rows u64, cols u64,
/// rows f32 scales, rows·cols i8 codes)`.  Each entry must index a
/// parameter of `params` and match its shape exactly, or the load fails
/// with [`CheckpointError::Corrupt`]; its payload is then skipped without
/// allocating.  Writers emit only the absent flag.
pub(crate) fn skip_quant_block(r: &mut impl Read, params: &ParamStore) -> Result<(), CheckpointError> {
    if ckpt::read_u8(r, "quantized-weights flag")? == 0 {
        return Ok(());
    }
    let params = params.params();
    for _ in 0..ckpt::read_count(r, "quantized matrix count")? {
        let index = ckpt::read_u64(r, "quantized param index")?;
        let Some(param) = usize::try_from(index).ok().and_then(|i| params.get(i)) else {
            return Err(CheckpointError::Corrupt(format!(
                "quantized entry indexes parameter {index}, model has {}",
                params.len()
            )));
        };
        let rows = ckpt::read_u64(r, "quantized rows")?;
        let cols = ckpt::read_u64(r, "quantized cols")?;
        let shape = (param.value.rows() as u64, param.value.cols() as u64);
        if (rows, cols) != shape {
            return Err(CheckpointError::Corrupt(format!(
                "quantized entry for parameter {index} ({:?}) is {rows}x{cols}, the parameter is {}x{}",
                param.name, shape.0, shape.1
            )));
        }
        // The shape check bounds the payload by the model's own size.
        ckpt::skip_bytes(r, 4 * rows + rows * cols, "quantized weights")?;
    }
    Ok(())
}

/// The vocabulary snapshot stored in a checkpoint; the names it reads are
/// interned, like every other table and column name.
pub struct VocabRecord {
    table_pos: HashMap<Name, usize>,
    column_pos: HashMap<(Name, Name), usize>,
    index_pos: HashMap<(Name, Name), usize>,
    numeric_range: HashMap<(Name, Name), (f64, f64)>,
    string_dim: usize,
    sample_bits: usize,
    pub use_sample_bitmap: bool,
}

pub fn read_vocab(r: &mut impl Read) -> Result<VocabRecord, CheckpointError> {
    let mut table_pos = HashMap::new();
    for _ in 0..ckpt::read_count(r, "table vocab count")? {
        let name = Name::from(ckpt::read_str(r, "table name")?);
        table_pos.insert(name, ckpt::read_u64(r, "table position")? as usize);
    }
    let mut read_pair_map = |what: &'static str| -> Result<HashMap<(Name, Name), usize>, CheckpointError> {
        let mut map = HashMap::new();
        for _ in 0..ckpt::read_count(r, what)? {
            let t = Name::from(ckpt::read_str(r, "vocab table")?);
            let c = Name::from(ckpt::read_str(r, "vocab column")?);
            map.insert((t, c), ckpt::read_u64(r, "vocab position")? as usize);
        }
        Ok(map)
    };
    let column_pos = read_pair_map("column vocab count")?;
    let index_pos = read_pair_map("index vocab count")?;
    let mut numeric_range = HashMap::new();
    for _ in 0..ckpt::read_count(r, "numeric range count")? {
        let t = Name::from(ckpt::read_str(r, "range table")?);
        let c = Name::from(ckpt::read_str(r, "range column")?);
        let lo = ckpt::read_f64(r, "range min")?;
        let hi = ckpt::read_f64(r, "range max")?;
        numeric_range.insert((t, c), (lo, hi));
    }
    Ok(VocabRecord {
        table_pos,
        column_pos,
        index_pos,
        numeric_range,
        string_dim: ckpt::read_u64(r, "string dim")? as usize,
        sample_bits: ckpt::read_u64(r, "sample bits")? as usize,
        use_sample_bitmap: ckpt::read_u8(r, "sample bitmap flag")? != 0,
    })
}

impl VocabRecord {
    /// Verify the snapshot matches the live extractor configuration; a
    /// mismatch means the checkpointed weights read features at different
    /// positions than this extractor produces.
    pub fn verify(&self, enc: &EncodingConfig, use_sample_bitmap: bool) -> Result<(), CheckpointError> {
        if self.table_pos != enc.table_pos {
            return Err(CheckpointError::VocabMismatch("table one-hot dictionary differs".into()));
        }
        if self.column_pos != enc.column_pos {
            return Err(CheckpointError::VocabMismatch("column one-hot dictionary differs".into()));
        }
        if self.index_pos != enc.index_pos {
            return Err(CheckpointError::VocabMismatch("index one-hot dictionary differs".into()));
        }
        if self.numeric_range != enc.numeric_range {
            return Err(CheckpointError::VocabMismatch("numeric column ranges differ".into()));
        }
        if self.string_dim != enc.string_dim {
            return Err(CheckpointError::VocabMismatch(format!(
                "string-encoder width differs ({} saved vs {} live)",
                self.string_dim, enc.string_dim
            )));
        }
        if self.sample_bits != enc.sample_bits {
            return Err(CheckpointError::VocabMismatch(format!(
                "sample-bitmap width differs ({} saved vs {} live)",
                self.sample_bits, enc.sample_bits
            )));
        }
        if self.use_sample_bitmap != use_sample_bitmap {
            return Err(CheckpointError::VocabMismatch("sample-bitmap flag differs".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdb::{generate_imdb, GeneratorConfig};
    use std::io::Cursor;

    #[test]
    fn model_config_roundtrip_all_variants() {
        for cell in [RepresentationCellKind::Lstm, RepresentationCellKind::Nn] {
            for predicate in [PredicateModelKind::MinMaxPool, PredicateModelKind::TreeLstm] {
                for task in [TaskMode::CardinalityOnly, TaskMode::CostOnly, TaskMode::Multitask] {
                    let cfg = ModelConfig { cell, predicate, task, ..Default::default() };
                    let mut buf = Vec::new();
                    write_model_config(&mut buf, &cfg).unwrap();
                    let back = read_model_config(&mut Cursor::new(&buf)).unwrap();
                    assert_eq!(format!("{cfg:?}"), format!("{back:?}"));
                }
            }
        }
    }

    #[test]
    fn bad_enum_tag_is_corrupt() {
        let mut buf = Vec::new();
        write_model_config(&mut buf, &ModelConfig::default()).unwrap();
        buf[0] = 77;
        assert!(matches!(read_model_config(&mut Cursor::new(&buf)), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn vocab_roundtrip_verifies_and_detects_drift() {
        let db = generate_imdb(GeneratorConfig::tiny());
        let enc = EncodingConfig::from_database(&db, 8, 32);
        let mut buf = Vec::new();
        write_vocab(&mut buf, &enc, true).unwrap();
        let rec = read_vocab(&mut Cursor::new(&buf)).unwrap();
        rec.verify(&enc, true).unwrap();
        assert!(matches!(rec.verify(&enc, false), Err(CheckpointError::VocabMismatch(_))));

        let mut drifted = enc.clone();
        let key = *drifted.column_pos.keys().next().unwrap();
        *drifted.column_pos.get_mut(&key).unwrap() += 1000;
        assert!(matches!(rec.verify(&drifted, true), Err(CheckpointError::VocabMismatch(_))));

        let mut narrower = enc.clone();
        narrower.string_dim = 4;
        assert!(matches!(rec.verify(&narrower, true), Err(CheckpointError::VocabMismatch(_))));
    }
}
