//! Contract tests of the memoized featurization paths: signature-memoized
//! `encode_plans_cached` and the per-node operator memo behind
//! `encode_plan` must be **bit-identical** to a fresh encode with the node
//! memo switched off — cold memo and cache, warm, under eviction, and under
//! concurrent sessions sharing one [`EncodedSubtreeCache`].

use estimator_core::EncodedSubtreeCache;
use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor, LocalEncodeCache};
use imdb::{generate_imdb, GeneratorConfig};
use proptest::prelude::*;
use query::PlanNode;
use std::sync::{Arc, OnceLock};
use strembed::HashBitmapEncoder;
use workloads::{generate_enumeration_workload, EnumerationConfig};

struct Fixture {
    db: Arc<imdb::Database>,
    cfg: EncodingConfig,
    fx: FeatureExtractor,
}

impl Fixture {
    /// An extractor of the fixture's configuration with its own empty node
    /// memo, so no other test or case has warmed it.
    fn cold_extractor(&self) -> FeatureExtractor {
        FeatureExtractor::new(self.db.clone(), self.cfg.clone(), Arc::new(HashBitmapEncoder::new(8)))
    }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
        Fixture { db, cfg, fx }
    })
}

/// `fx` with the node memo switched off: every node featurized afresh.
fn memo_off(fx: &FeatureExtractor) -> FeatureExtractor {
    let mut off = fx.clone();
    off.use_bitmap_memo = false;
    off
}

proptest! {
    #[test]
    fn memoized_encode_is_bit_identical_on_randomized_planner_output(seed in 0u64..1_000_000) {
        let fixture = fixture();
        let workload = generate_enumeration_workload(
            &fixture.db,
            EnumerationConfig { num_queries: 1, min_joins: 1, max_joins: 3, max_candidates_per_query: 12, seed },
        );
        prop_assert!(!workload.is_empty(), "no enumerable query for seed {seed}");
        let candidates = &workload[0].candidates;
        let fresh_fx = memo_off(&fixture.fx);
        let fresh: Vec<EncodedPlan> = candidates.iter().map(|c| fresh_fx.encode_plan(c)).collect();

        // Per-plan encode through a cold node memo, then the warm one.
        let fx = fixture.cold_extractor();
        let nodes: u64 = candidates.iter().map(|c| c.size() as u64).sum();
        for (c, f) in candidates.iter().zip(&fresh) {
            prop_assert_eq!(&fx.encode_plan(c), f);
        }
        let (hits, misses) = fx.bitmap_memo_stats();
        prop_assert!(hits + misses == nodes, "one node-memo lookup per plan node");
        prop_assert!(misses as usize == fx.bitmap_memo_len(), "every miss inserts one entry");
        prop_assert!(hits > 0, "candidate join orders share scans; expected node-memo hits");
        for (c, f) in candidates.iter().zip(&fresh) {
            prop_assert_eq!(&fx.encode_plan(c), f);
        }
        prop_assert!(fx.bitmap_memo_stats() == (hits + nodes, misses), "a warm pass must only hit");

        // A clone without sample bitmaps shares the warm memo under its own
        // keys: it must return its own memo-off bits, never the entries
        // encoded with bitmaps.
        let mut no_sample = fx.clone();
        no_sample.use_sample_bitmap = false;
        let no_sample_fresh = memo_off(&no_sample);
        for c in candidates {
            prop_assert_eq!(no_sample.encode_plan(c), no_sample_fresh.encode_plan(c));
        }
        prop_assert!(fx.bitmap_memo_stats().1 == 2 * misses, "the flag must key distinct entries");

        // Cold shared cache: every plan bit-identical to fresh encoding.
        let cache = EncodedSubtreeCache::new();
        let cold = fixture.fx.encode_plans_cached(candidates, &cache);
        prop_assert_eq!(cold.len(), fresh.len());
        for (c, f) in cold.iter().zip(&fresh) {
            prop_assert_eq!(c.as_ref(), f);
        }
        // Candidates of one enumeration share their leaf scans, so the
        // batch itself must have deduplicated (cache hits within one pass).
        let (hits, misses) = cache.stats();
        prop_assert!(hits > 0, "candidate join orders share scans; expected intra-batch hits");
        prop_assert!(misses as usize >= cache.len());

        // Warm cache: still bit-identical, now served from memo entries.
        let warm = fixture.fx.encode_plans_cached(candidates, &cache);
        for (w, f) in warm.iter().zip(&fresh) {
            prop_assert_eq!(w.as_ref(), f);
        }

        // A fresh cache per call agrees too.
        let local = fixture.fx.encode_plans_cached(candidates, &LocalEncodeCache::new());
        for (l, f) in local.iter().zip(&fresh) {
            prop_assert_eq!(l.as_ref(), f);
        }

        // Eviction can only cost re-encodes, never change results: a
        // one-entry-per-shard cache thrashes constantly and must still be
        // bit-identical.
        let tiny = EncodedSubtreeCache::with_shard_capacity(1);
        let evicted = fixture.fx.encode_plans_cached(candidates, &tiny);
        for (e, f) in evicted.iter().zip(&fresh) {
            prop_assert_eq!(e.as_ref(), f);
        }
    }
}

#[test]
fn concurrent_sessions_share_the_encode_cache_without_lost_updates() {
    let fixture = fixture();
    let workload = generate_enumeration_workload(
        &fixture.db,
        EnumerationConfig { num_queries: 6, min_joins: 2, max_joins: 3, max_candidates_per_query: 40, seed: 11 },
    );
    let stream: Vec<PlanNode> = workload.into_iter().flat_map(|s| s.candidates).collect();
    let total_nodes: usize = stream.iter().map(|p| p.size()).sum();
    let fresh_fx = memo_off(&fixture.fx);
    let fresh: Vec<EncodedPlan> = stream.iter().map(|p| fresh_fx.encode_plan(p)).collect();

    const THREADS: usize = 8;
    let cache = Arc::new(EncodedSubtreeCache::new());
    let results: Vec<Vec<Arc<EncodedPlan>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let stream = &stream;
                let fx = &fixture.fx;
                scope.spawn(move || fx.encode_plans_cached(stream, cache.as_ref()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("encode thread")).collect()
    });

    // Every session's output is bit-identical to single-threaded fresh
    // encoding — concurrent insert races can duplicate work but never
    // surface a wrong or partially-written entry.
    for per_thread in &results {
        assert_eq!(per_thread.len(), fresh.len());
        for (got, want) in per_thread.iter().zip(&fresh) {
            assert_eq!(got.as_ref(), want, "shared-cache encode must match fresh encoding");
        }
    }

    // Counters balance: one probe per plan node per session, every probe
    // either hit or missed, and no insert was lost (every resident entry
    // traces back to a miss).
    let (hits, misses) = cache.stats();
    assert_eq!(hits + misses, (THREADS * total_nodes) as u64, "every node probes the cache exactly once");
    assert!(misses as usize >= cache.len(), "every resident entry stems from a miss");
    assert!(!cache.is_empty(), "the shared cache must retain the workload's distinct subtrees");
    // Sessions after the first mostly hit: the workload has far fewer
    // distinct subtrees than 8x its node count.
    assert!(hits > misses, "warm sessions must be dominated by hits");
}
