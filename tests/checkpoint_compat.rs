//! Backward compatibility of the checkpoint format.
//!
//! `tests/fixtures/golden_*_v1.ckpt` and `golden_tree_v2.ckpt` are
//! **committed binary fixtures** written by the format-v1 / format-v2 code
//! (the last commits before the respective version bumps) from a
//! deterministic tiny database and a fixed training run; the expected
//! estimate bit patterns below were printed by the same runs.  The current
//! reader must load them forever — and a fabricated future version must
//! keep failing with `UnsupportedVersion` — so backward compatibility can
//! never silently break.  (Regenerating the v1/v2 fixtures is by
//! construction impossible with current code: the writer only emits the
//! current version.  Do not replace these files.)
//!
//! `golden_tree_v3.ckpt` was written by the v3 writer while the estimator
//! still had an int8 tier, so it carries the per-channel int8 quant
//! section.  The reader shape-checks that section and skips it; the f32
//! estimates are pinned below.  (The current writer always emits the
//! absent flag, so this fixture cannot be regenerated either.)

use e2e_cost_estimator::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Assert a pinned f32-tier estimate.  The golden bit patterns were
/// recorded by the scalar kernels, whose arithmetic is frozen — on the
/// scalar dispatch path (the `E2E_FORCE_SCALAR=1` CI lane) the pin stays
/// exact to the bit.  On the AVX2 path the FMA GEMM and gate-sweep kernels
/// legitimately round differently (the f32 tier's tolerance contract,
/// docs/perf.md), so the same fixtures are pinned to a relative tolerance
/// there instead.
fn assert_estimate_pinned(got: f64, want_bits: u64, what: &str) {
    use e2e_cost_estimator::nn::simd::{active_path, DispatchPath};
    let want = f64::from_bits(want_bits);
    match active_path() {
        DispatchPath::Scalar => {
            assert_eq!(got.to_bits(), want_bits, "{what} (scalar path pins exact bits): {got} vs {want}")
        }
        _ => assert!(
            (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
            "{what} (AVX2 path allows FMA rounding drift): {got} vs {want}"
        ),
    }
}

/// The deterministic context the fixtures were generated under.
fn golden_db() -> Arc<Database> {
    Arc::new(generate_imdb(GeneratorConfig { n_titles: 200, sample_size: 32, seed: 7 }))
}

fn golden_plans(db: &Arc<Database>, n: usize) -> Vec<PlanNode> {
    let cost = CostModel::default();
    (0..n)
        .map(|i| {
            let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(Predicate::atom(
                    "title",
                    "production_year",
                    CompareOp::Gt,
                    Operand::Num((1945 + i * 2) as f64),
                )),
            });
            let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
            let mut join = PlanNode::inner(
                PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
                vec![scan_t, scan_mc],
            );
            execute_plan(db, &mut join, &cost);
            join
        })
        .collect()
}

fn golden_tree_estimator(db: &Arc<Database>) -> CostEstimator {
    let enc = EncodingConfig::from_database(db, 8, 32);
    let fx = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(8)));
    CostEstimator::new(
        fx,
        ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        TrainConfig { epochs: 2, batch_size: 8, ..Default::default() },
    )
}

/// Estimate bit patterns recorded at fixture-generation time (v1 writer).
const GOLDEN_TREE_BITS: [(u64, u64); 3] = [
    (0x403b166b62c7e0ae, 0x407321c03a3e01fb),
    (0x403b166b64ab836e, 0x407321c0502189ab),
    (0x403b166b6872c8ef, 0x407321c066051178),
];

const GOLDEN_MSCN_BITS: [u64; 3] = [0x40743dd5d073c6b2, 0x40743f3a411a45ee, 0x4074409e754fbce0];

/// Estimate bit patterns recorded at v2-fixture-generation time (v2 writer,
/// trained with resumable state, no quant section).
const GOLDEN_TREE_V2_BITS: [(u64, u64); 3] = [
    (0x403c008c023e9e3a, 0x4076e0c5d180b423),
    (0x403c008c0274609f, 0x4076e0c5d3c0cae7),
    (0x403c008c02aa2304, 0x4076e0c5d600e1ac),
];

/// Full-precision estimate bits recorded when `golden_tree_v3.ckpt` was
/// generated (v3 writer, quant section present).
const GOLDEN_TREE_V3_BITS: [(u64, u64); 3] = [
    (0x403a542420265eb4, 0x406d5111af0b20c6),
    (0x403a542426cda167, 0x406d511270262719),
    (0x403a542430c88576, 0x406d51134cd758f9),
];

#[test]
fn v2_reader_loads_v1_tree_golden_checkpoint_bit_identically() {
    let db = golden_db();
    let plans = golden_plans(&db, 3);
    let mut est = golden_tree_estimator(&db);
    est.load_checkpoint(fixture("golden_tree_v1.ckpt")).expect("v1 golden checkpoint must load forever");
    assert!(est.is_fitted());
    for (plan, &(cost_bits, card_bits)) in plans.iter().zip(GOLDEN_TREE_BITS.iter()) {
        let (cost, card) = est.estimate(plan);
        assert_estimate_pinned(cost, cost_bits, "v1 checkpoint no longer serves its recorded cost");
        assert_estimate_pinned(card, card_bits, "v1 checkpoint no longer serves its recorded cardinality");
    }
}

#[test]
fn v1_checkpoints_load_but_refuse_to_resume() {
    let db = golden_db();
    let mut est = golden_tree_estimator(&db);
    // v1 carries no training state: a plain load works but is not
    // resumable, and an explicit resume is a typed refusal.
    assert!(matches!(est.resume_from_checkpoint(fixture("golden_tree_v1.ckpt")), Err(CheckpointError::Unsupported(_))));
    est.load_checkpoint(fixture("golden_tree_v1.ckpt")).expect("load");
    assert!(!est.is_resumable());

    // Re-saving the v1-loaded model produces a current-version file
    // *without* training state; resuming from that is the other typed
    // refusal path.
    let resaved = std::env::temp_dir().join(format!("golden-resaved-{}.ckpt", std::process::id()));
    est.save_checkpoint(&resaved).expect("re-save as current version");
    let mut fresh = golden_tree_estimator(&db);
    assert!(matches!(fresh.resume_from_checkpoint(&resaved), Err(CheckpointError::Unsupported(_))));
    fresh.load_checkpoint(&resaved).expect("stateless current-version file still loads fine");
    let _ = std::fs::remove_file(&resaved);
}

#[test]
fn v3_reader_loads_v2_tree_golden_checkpoint_bit_identically() {
    let db = golden_db();
    let plans = golden_plans(&db, 3);
    let mut est = golden_tree_estimator(&db);
    est.load_checkpoint(fixture("golden_tree_v2.ckpt")).expect("v2 golden checkpoint must load forever");
    assert!(est.is_fitted());
    for (plan, &(cost_bits, card_bits)) in plans.iter().zip(GOLDEN_TREE_V2_BITS.iter()) {
        let (cost, card) = est.estimate(plan);
        assert_estimate_pinned(cost, cost_bits, "v2 checkpoint no longer serves its recorded cost");
        assert_estimate_pinned(card, card_bits, "v2 checkpoint no longer serves its recorded cardinality");
    }
}

#[test]
fn v3_golden_checkpoint_restores_both_precision_tiers_bit_identically() {
    let db = golden_db();
    let plans = golden_plans(&db, 3);
    let mut est = golden_tree_estimator(&db);
    est.load_checkpoint(fixture("golden_tree_v3.ckpt")).expect("v3 golden checkpoint must load forever");
    assert!(est.is_fitted());
    for (plan, &(cost_bits, card_bits)) in plans.iter().zip(GOLDEN_TREE_V3_BITS.iter()) {
        let (cost, card) = est.estimate(plan);
        assert_estimate_pinned(cost, cost_bits, "v3 checkpoint no longer serves its recorded f32 cost");
        assert_estimate_pinned(card, card_bits, "v3 checkpoint no longer serves its recorded f32 cardinality");
    }
}

#[test]
fn v3_file_without_quant_section_loads_full_precision() {
    let db = golden_db();
    let plans = golden_plans(&db, 3);
    let mut est = golden_tree_estimator(&db);
    est.load_checkpoint(fixture("golden_tree_v3.ckpt")).expect("load v3 fixture");
    let path = std::env::temp_dir().join(format!("golden-v3-noquant-{}.ckpt", std::process::id()));
    est.save_checkpoint(&path).expect("save without quant section");
    let mut fresh = golden_tree_estimator(&db);
    fresh.load_checkpoint(&path).expect("a v3 file with an empty quant section must load");
    for (plan, &(cost_bits, card_bits)) in plans.iter().zip(GOLDEN_TREE_V3_BITS.iter()) {
        let (cost, card) = fresh.estimate(plan);
        assert_estimate_pinned(cost, cost_bits, "dropping the quant section must not perturb f32 estimates");
        assert_estimate_pinned(card, card_bits, "dropping the quant section must not perturb f32 estimates");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn v3_quant_block_entries_are_shape_checked() {
    let db = golden_db();
    let mut est = golden_tree_estimator(&db);
    est.load_checkpoint(fixture("golden_tree_v3.ckpt")).expect("load v3 fixture");
    let (rows, cols, n_params) = {
        let serving = est.serving();
        let params = serving.model().params.params();
        (params[0].value.rows() as u64, params[0].value.cols() as u64, params.len() as u64)
    };
    let path = std::env::temp_dir().join(format!("golden-v3-quant-block-{}.ckpt", std::process::id()));
    est.save_checkpoint(&path).expect("re-save");
    let mut bytes = std::fs::read(&path).expect("read re-saved file");
    assert_eq!(bytes.pop(), Some(0), "the writer ends a v3 file with the absent quantized-weights flag");
    // Replace the absent flag with a one-entry block: flag, count, then the
    // entry's index, rows, cols, per-row f32 scales and int8 codes.
    let with_block = |index: u64, r: u64, c: u64| {
        let mut file = bytes.clone();
        file.push(1);
        for v in [1, index, r, c] {
            file.extend_from_slice(&v.to_le_bytes());
        }
        file.resize(file.len() + (4 * r + r * c) as usize, 0);
        std::fs::write(&path, &file).expect("write hand-built block");
        golden_tree_estimator(&db).load_checkpoint(&path)
    };
    with_block(0, rows, cols).expect("an entry shaped like its parameter is skipped");
    let (wrong_r, wrong_c) = if rows != cols { (cols, rows) } else { (rows, cols + 1) };
    assert!(
        matches!(with_block(0, wrong_r, wrong_c), Err(CheckpointError::Corrupt(_))),
        "a {wrong_r}x{wrong_c} entry for a {rows}x{cols} parameter must be corrupt"
    );
    assert!(
        matches!(with_block(n_params, rows, cols), Err(CheckpointError::Corrupt(_))),
        "an entry past the model's {n_params} parameters must be corrupt"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn v3_fixture_cut_inside_its_quant_block_is_truncated() {
    let db = golden_db();
    let mut bytes = std::fs::read(fixture("golden_tree_v3.ckpt")).expect("read fixture");
    bytes.truncate(bytes.len() - 3);
    let path = std::env::temp_dir().join(format!("golden-v3-cut-{}.ckpt", std::process::id()));
    std::fs::write(&path, &bytes).expect("write cut fixture");
    let mut est = golden_tree_estimator(&db);
    assert!(matches!(est.load_checkpoint(&path), Err(CheckpointError::Truncated { .. })));
    assert!(!est.is_fitted(), "a failed load leaves the estimator untouched");
    let _ = std::fs::remove_file(&path);
}

/// Review regression: resuming training on a model-only load must refuse
/// with a typed error — a silent fresh-optimizer restart from epoch 0 would
/// masquerade as a continuation of the interrupted run, and a panic would
/// abort a serving process that could have fallen back to a full `fit`.
#[test]
fn fit_resumed_after_model_only_v1_load_returns_unsupported() {
    let db = golden_db();
    let plans = golden_plans(&db, 3);
    let mut est = golden_tree_estimator(&db);
    est.load_checkpoint(fixture("golden_tree_v1.ckpt")).expect("load");
    assert!(!est.is_resumable());
    match est.fit_resumed(&plans) {
        Err(CheckpointError::Unsupported(msg)) => {
            assert!(msg.contains("no resumable training state"), "unexpected message: {msg}")
        }
        Err(other) => panic!("expected Unsupported, got {other:?}"),
        Ok(_) => panic!("fit_resumed must refuse a model-only load"),
    }
    // A never-fitted estimator refuses the same way (the second expect()
    // path of the original bug).
    let mut fresh = golden_tree_estimator(&db);
    assert!(matches!(fresh.fit_resumed(&plans), Err(CheckpointError::Unsupported(_))));
    // The typed error leaves the estimator usable: fall back to a full fit,
    // exactly what the serving refresh controller does.
    fresh.fit(&plans);
    assert!(fresh.is_fitted());
}

#[test]
fn fabricated_future_version_fails_with_unsupported_version() {
    let db = golden_db();
    for (name, patch_offset) in [("golden_tree_v1.ckpt", 8usize), ("golden_mscn_v1.ckpt", 8usize)] {
        let mut bytes = std::fs::read(fixture(name)).expect("read fixture");
        bytes[patch_offset..patch_offset + 4].copy_from_slice(&4u32.to_le_bytes());
        let path = std::env::temp_dir().join(format!("golden-v4-{}-{name}", std::process::id()));
        std::fs::write(&path, &bytes).expect("write fabricated v4");
        if name.contains("tree") {
            let mut est = golden_tree_estimator(&db);
            assert!(
                matches!(est.load_checkpoint(&path), Err(CheckpointError::UnsupportedVersion { found: 4, .. })),
                "a v4 tree file must be rejected, not guessed at"
            );
        } else {
            let enc = EncodingConfig::from_database(&db, 8, 32);
            let mut est = MscnEstimator::new(db.clone(), enc, MscnConfig::default());
            assert!(
                matches!(est.load_checkpoint_from(&path), Err(CheckpointError::UnsupportedVersion { found: 4, .. })),
                "a v4 MSCN file must be rejected, not guessed at"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn v2_reader_loads_v1_mscn_golden_checkpoint_bit_identically() {
    let db = golden_db();
    let plans = golden_plans(&db, 3);
    let enc = EncodingConfig::from_database(&db, 8, 32);
    let mut est = MscnEstimator::new(db.clone(), enc, MscnConfig { epochs: 2, hidden_dim: 16, ..Default::default() });
    est.load_checkpoint_from(&fixture("golden_mscn_v1.ckpt")).expect("v1 MSCN golden checkpoint must load forever");
    for (estimate, &want) in est.estimate_many(&plans).iter().zip(GOLDEN_MSCN_BITS.iter()) {
        assert_estimate_pinned(
            estimate.cardinality.expect("cardinality slot"),
            want,
            "v1 MSCN checkpoint no longer serves its recorded estimate",
        );
    }
}
