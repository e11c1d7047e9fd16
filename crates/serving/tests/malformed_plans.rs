//! Caller input through `Session`: randomized DP-enumeration candidates,
//! mutated the ways an optimizer's plans can disagree with the model's
//! schema or numerics — an unknown table, an unknown column, NaN, ±inf and
//! ±0.0 operands, a join with a third child.  Serving must never panic and
//! must return one estimate per plan, and every memoized path must keep the
//! bits of its memo-free oracle: `Session::encode` equals a memo-off encode
//! with the node memo cold and warm, and `Session::estimate_plans` returns
//! the bits of `estimate_encoded(encode_batch(..))`.

use estimator_core::{CostEstimator, ModelConfig, TrainConfig};
use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor, PredicateEncoding};
use imdb::{generate_imdb, GeneratorConfig};
use proptest::prelude::*;
use query::{CompareOp, Name, Operand, PhysicalOp, PlanNode, Predicate};
use serving::{ModelCatalog, Session, TenantBackend};
use std::sync::{Arc, OnceLock};
use strembed::HashBitmapEncoder;
use workloads::{generate_enumeration_workload, EnumerationConfig};

const TENANT: &str = "optimizer";

struct Fixture {
    db: Arc<imdb::Database>,
    catalog: ModelCatalog,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
        let mut est = CostEstimator::new(
            fx,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
            TrainConfig { epochs: 2, batch_size: 8, ..Default::default() },
        );
        let train =
            workloads::generate_workload(&db, workloads::WorkloadConfig { num_queries: 12, ..Default::default() });
        est.fit(&train.iter().map(|s| s.plan.clone()).collect::<Vec<_>>());
        let catalog = ModelCatalog::new();
        catalog.publish(TENANT, TenantBackend::tree(est));
        Fixture { db, catalog }
    })
}

/// The first scan of `plan` in pre-order, as `(table, predicate)`.
fn first_scan(plan: &mut PlanNode) -> Option<(&mut Name, &mut Option<Predicate>)> {
    if let PhysicalOp::SeqScan { table, predicate } | PhysicalOp::IndexScan { table, predicate, .. } = &mut plan.op {
        return Some((table, predicate));
    }
    plan.children.iter_mut().find_map(first_scan)
}

/// The first join of `plan` in pre-order.
fn first_join(plan: &mut PlanNode) -> Option<&mut PlanNode> {
    if plan.op.is_join() {
        return Some(plan);
    }
    plan.children.iter_mut().find_map(first_join)
}

/// Defects [`mutate`] can plant.
const DEFECTS: usize = 8;

/// `plan` with one defect, chosen by `kind` (below [`DEFECTS`]).  Every
/// numeric defect lands on the same scan, so the memo keys of `+inf` and
/// `-inf`, and of `+0.0` and `-0.0`, meet in one batch.
fn mutate(mut plan: PlanNode, kind: usize) -> PlanNode {
    if kind == DEFECTS - 1 {
        if let Some(join) = first_join(&mut plan) {
            join.children.push(PlanNode::leaf(PhysicalOp::SeqScan { table: "keyword".into(), predicate: None }));
        }
        return plan;
    }
    let Some((table, predicate)) = first_scan(&mut plan) else { return plan };
    let atom = |column: &str, v: f64| Predicate::atom(table.as_str(), column, CompareOp::Gt, Operand::Num(v));
    let defect = match kind {
        0 => None,
        1 => Some(atom("no_such_column", 1.0)),
        2 => Some(atom("id", f64::NAN)),
        3 => Some(atom("id", f64::INFINITY)),
        4 => Some(atom("id", f64::NEG_INFINITY)),
        5 => Some(atom("id", -0.0)),
        _ => Some(atom("id", 0.0)),
    };
    match defect {
        None => *table = "no_such_table".into(),
        Some(defect) => *predicate = Some(predicate.take().map_or(defect.clone(), |p| p.and(defect))),
    }
    plan
}

/// Every bit an encoded plan carries, in pre-order: signature, targets, the
/// feature slab and the predicate tree's shape and atoms.
fn plan_bits(plan: &EncodedPlan, out: &mut Vec<u64>) {
    fn predicate_bits(p: &PredicateEncoding, out: &mut Vec<u64>) {
        match p {
            PredicateEncoding::None => out.push(0),
            PredicateEncoding::Atom(v) => {
                out.push(1);
                out.extend(v.iter().map(|x| u64::from(x.to_bits())));
            }
            PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => {
                out.push(if matches!(p, PredicateEncoding::And(..)) { 2 } else { 3 });
                predicate_bits(l, out);
                predicate_bits(r, out);
            }
        }
    }
    let f = &plan.features;
    out.extend([plan.signature, plan.true_cardinality.to_bits(), plan.true_cost.to_bits()]);
    for group in [f.operation(), f.metadata(), f.sample_bitmap()] {
        out.push(group.len() as u64);
        out.extend(group.iter().map(|x| u64::from(x.to_bits())));
    }
    predicate_bits(&f.predicate, out);
    out.push(plan.children.len() as u64);
    for c in &plan.children {
        plan_bits(c, out);
    }
}

fn bits_of(plan: &EncodedPlan) -> Vec<u64> {
    let mut out = Vec::new();
    plan_bits(plan, &mut out);
    out
}

fn estimate_bits(estimates: &[(f64, f64)]) -> Vec<(u64, u64)> {
    estimates.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect()
}

fn estimate_plans(session: &Session, plans: &[PlanNode]) -> Vec<(u64, u64)> {
    let served = session.estimate_plans(plans).expect("published tree tenant");
    let pairs: Vec<(f64, f64)> = served
        .iter()
        .map(|e| (e.cost.expect("multitask model estimates cost"), e.cardinality.expect("and cardinality")))
        .collect();
    estimate_bits(&pairs)
}

proptest! {
    #[test]
    fn malformed_plans_through_session_never_panic_and_keep_memo_bits(seed in 0u64..1_000_000) {
        let fixture = fixture();
        let workload = generate_enumeration_workload(
            &fixture.db,
            EnumerationConfig { num_queries: 1, min_joins: 1, max_joins: 3, max_candidates_per_query: 8, seed },
        );
        prop_assert!(!workload.is_empty(), "no enumerable query for seed {seed}");
        let candidates = &workload[0].candidates;
        let mutated = candidates.iter().flat_map(|c| (0..DEFECTS).map(|kind| mutate(c.clone(), kind)));
        let plans: Vec<PlanNode> = candidates.iter().cloned().chain(mutated).collect();

        let session = fixture.catalog.session(TENANT).expect("tenant is published");
        let model = session.model().expect("tenant is published");
        let tree = model.tree().expect("tree backend");
        let mut memo_off = tree.extractor().clone();
        memo_off.use_bitmap_memo = false;
        let fresh: Vec<Vec<u64>> = plans.iter().map(|p| bits_of(&memo_off.encode_plan(p))).collect();

        // Session::encode through a cold node memo, then the warm one.
        tree.extractor().clear_bitmap_memo();
        for pass in ["cold", "warm"] {
            for (plan, want) in plans.iter().zip(&fresh) {
                let encoded = session.encode(plan).expect("tree backend");
                prop_assert!(&bits_of(&encoded) == want, "{pass} Session::encode diverged from a memo-off encode");
            }
        }

        // The state-first front door and the encoded front door return the
        // same bits, whichever warms the subtree-state cache first.
        let via_encoded = || {
            let encoded = session.encode_batch(&plans).expect("tree backend");
            prop_assert_eq!(encoded.len(), plans.len());
            let served = session.estimate_encoded(&encoded).expect("fitted tree tenant");
            Ok(estimate_bits(&served))
        };
        let (direct, encoded) = if seed % 2 == 0 {
            let direct = estimate_plans(&session, &plans);
            (direct, via_encoded()?)
        } else {
            let encoded = via_encoded()?;
            (estimate_plans(&session, &plans), encoded)
        };
        prop_assert_eq!(direct.len(), plans.len());
        prop_assert_eq!(direct, encoded);
    }
}
