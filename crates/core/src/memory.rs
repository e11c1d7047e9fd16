//! The subtree-state cache (Section 3, online workflow).
//!
//! When the optimizer's plan enumerator repeatedly asks for the cost of
//! candidate plans sharing sub-plans, the estimator memoizes, per sub-plan,
//! the representation cell's `G‖R` state at its root and the
//! `(cost, cardinality)` the estimation heads give for its `R`: the paper's
//! representation memory pool.  [`SubtreeStateCache`] keys them by the
//! structural signature ([`query::PlanNode::signature_hash`]).  A candidate
//! that shares a subtree re-enters the forward pass at the fringe instead of
//! re-running the cell over the whole subtree, and a candidate whose root is
//! cached is answered from its entry (`batch::estimate_batch_memo`).  Raw
//! plans are served from it, state first
//! (`ServingEstimator::estimate_plans`): a repeated plan costs a signature
//! walk and one lookup, and is neither featurized nor embedded nor scored.
//!
//! The cache is a [`SigCache`] whose entry is the estimate, with the `G‖R`
//! inline (`2 × hidden_dim` floats per slot, `G` first): 16 shards of
//! [`STATE_SLOTS_PER_SHARD`] slots, each a slab with random replacement
//! once full.  An entry is plain data at a slot, not a shared allocation:
//! a plan's root copies only its estimate under the shard's read lock, a
//! fringe child its `G‖R` too, and an insert into a full shard allocates
//! and frees nothing.  Beside the slab, the cache counts plan nodes served
//! and embedded.
//!
//! The cache lives exactly as long as what its entries are computed from:
//! one served generation's weights ([`crate::ServingEstimator`]).  The
//! other two signature caches are `SigCache`s too: the extractor's node
//! memo and the encode cache behind `CostEstimator::encode_plans` hold
//! encodings, which depend only on the extractor, and live as long as it.

use query::SigCache;
use std::sync::atomic::{AtomicU64, Ordering};

/// Slots per [`SubtreeStateCache`] shard: 262,144 sub-plans in all.
pub const STATE_SLOTS_PER_SHARD: usize = 16 * 1024;

/// Cache of subtree representation states for optimizer-in-the-loop serving.
///
/// Shared by all estimator threads.  In the memoized level loop
/// (`batch::estimate_batch_memo`), a hit at a plan's root answers the plan
/// with the entry's stored estimate — no tape, no heads — and a hit below a
/// fresh node injects the stored `G‖R` as tape input columns instead of
/// re-embedding the subtree.  Entries are only meaningful for the weights,
/// target normalization and extractor that produced them, so the cache
/// lives exactly as long as they do: each served generation
/// ([`crate::ServingEstimator`]) builds its own when it is made, and the
/// cache is dropped with it.  A refit or a checkpoint load makes a new
/// generation; it never clears or reuses this one.
///
/// Besides the lookup counters, the cache tracks *node-level* serving
/// counters: of all plan nodes submitted for scoring, how many were served
/// from a memoized subtree (or deduplicated within the batch) versus
/// embedded fresh.  That is the "subtree-cache hit rate" the serving bench
/// reports — lookups stop at the subtree fringe, so lookup counts alone
/// understate how much work memoization saves.
#[derive(Debug)]
pub struct SubtreeStateCache {
    /// Estimate per entry, `G‖R` inline.
    slab: SigCache<(f64, f64)>,
    nodes_seen: AtomicU64,
    nodes_computed: AtomicU64,
}

impl SubtreeStateCache {
    /// An empty cache for a model whose cell states are `width` long (its
    /// `hidden_dim`), [`STATE_SLOTS_PER_SHARD`] slots per shard.
    pub fn new(width: usize) -> Self {
        Self::with_slots_per_shard(width, STATE_SLOTS_PER_SHARD)
    }

    /// An empty cache for cell states `width` long, `slots_per_shard` slots
    /// per shard.
    fn with_slots_per_shard(width: usize, slots_per_shard: usize) -> Self {
        SubtreeStateCache {
            slab: SigCache::new(slots_per_shard, 2 * width),
            nodes_seen: AtomicU64::new(0),
            nodes_computed: AtomicU64::new(0),
        }
    }

    /// The stored `(cost, cardinality)` of a sub-plan — all a plan's root
    /// needs — counting a hit or a miss.
    pub fn estimate(&self, signature: u64) -> Option<(f64, f64)> {
        self.slab.get(signature)
    }

    /// On a hit, append the sub-plan's `G‖R` (`2 × width` floats, `G`
    /// first) to `out` and return its stored estimate — what a fresh
    /// parent's fringe child needs — counting a hit or a miss.
    pub fn read_state(&self, signature: u64, out: &mut Vec<f32>) -> Option<(f64, f64)> {
        self.slab.read(signature, |&estimate, state| {
            out.extend_from_slice(state);
            estimate
        })
    }

    /// Store a sub-plan's estimate and its `G‖R`, which `write` fills in
    /// place (a `2 × width` slice, `G` first).  Once the shard is full the
    /// entry overwrites a victim slot drawn at random.  A signature already
    /// present keeps its entry and `write` is not called: every writer
    /// computed its entry from the same sub-plan and weights, so the bits
    /// are the same.
    pub fn insert(&self, signature: u64, estimate: (f64, f64), write: impl FnOnce(&mut [f32])) {
        self.slab.insert(signature, estimate, write);
    }

    /// Number of memoized subtrees.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// `(hits, misses)` lookup counters.
    pub fn stats(&self) -> (u64, u64) {
        self.slab.stats()
    }

    /// Record one memoized forward pass's node accounting: `seen` plan nodes
    /// submitted, of which `computed` were embedded fresh.
    pub fn record_nodes(&self, seen: u64, computed: u64) {
        self.nodes_seen.fetch_add(seen, Ordering::Relaxed);
        self.nodes_computed.fetch_add(computed, Ordering::Relaxed);
    }

    /// `(nodes_seen, nodes_computed)` across all memoized forward passes.
    pub fn node_stats(&self) -> (u64, u64) {
        (self.nodes_seen.load(Ordering::Relaxed), self.nodes_computed.load(Ordering::Relaxed))
    }

    /// Fraction of submitted plan nodes served without a fresh embedding
    /// (`1 - computed/seen`); 0.0 before any memoized pass ran.
    pub fn node_hit_rate(&self) -> f64 {
        let (seen, computed) = self.node_stats();
        if seen == 0 {
            return 0.0;
        }
        1.0 - computed as f64 / seen as f64
    }

    /// Drop all memoized states (and their memory) and reset every counter.
    pub fn clear(&self) {
        self.slab.clear();
        self.nodes_seen.store(0, Ordering::Relaxed);
        self.nodes_computed.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::sigcache::NUM_SHARDS;

    fn hashed(i: u64) -> u64 {
        let mut h = query::SigHasher::new();
        h.write_u64(i);
        h.finish()
    }

    /// The `G‖R` a test writes for `key`: every float derived from the key,
    /// so a slot read back under another key's index entry shows.
    fn state_of(key: u64, width: usize) -> Vec<f32> {
        (0..2 * width).map(|j| ((key >> (j % 48)) & 0xFFFF) as f32 + j as f32 / 1024.0).collect()
    }

    fn estimate_of(key: u64) -> (f64, f64) {
        (key as f64, (!key) as f64)
    }

    fn insert_key(cache: &SubtreeStateCache, key: u64, width: usize) {
        let state = state_of(key, width);
        cache.insert(key, estimate_of(key), |slot| slot.copy_from_slice(&state));
    }

    #[test]
    fn subtree_cache_state_roundtrip_and_node_stats() {
        let cache = SubtreeStateCache::new(2);
        assert!(cache.estimate(7).is_none());
        cache.insert(7, (5.0, 6.0), |slot| slot.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(cache.estimate(7), Some((5.0, 6.0)), "an entry carries its estimate");
        let mut out = vec![9.0];
        assert_eq!(cache.read_state(7, &mut out), Some((5.0, 6.0)));
        assert_eq!(out, [9.0, 1.0, 2.0, 3.0, 4.0], "a state read appends G‖R");
        // A second insert under a present key keeps the first entry.
        cache.insert(7, (0.0, 0.0), |_| unreachable!("a present key is not rewritten"));
        assert_eq!(cache.estimate(7), Some((5.0, 6.0)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (3, 1));

        assert_eq!(cache.node_hit_rate(), 0.0);
        cache.record_nodes(10, 4);
        cache.record_nodes(10, 1);
        assert_eq!(cache.node_stats(), (20, 5));
        assert!((cache.node_hit_rate() - 0.75).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.node_stats(), (0, 0));
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn capacity_bound_evicts_instead_of_growing() {
        let cache = SubtreeStateCache::with_slots_per_shard(1, 8);
        for i in 0..10_000u64 {
            insert_key(&cache, hashed(i), 1);
        }
        assert!(cache.len() <= 8 * NUM_SHARDS, "cache grew past its bound: {}", cache.len());
        assert!(!cache.is_empty());
    }

    /// Past its bound every shard holds exactly its slot count, and each
    /// key the cache reports reads back its own estimate and `G‖R`: the
    /// index maps as many keys as there are slots, each to its own slot.
    #[test]
    fn slab_bound_holds_and_every_slot_agrees_with_the_index() {
        const SLOTS: usize = 64;
        const WIDTH: usize = 3;
        let cache = SubtreeStateCache::with_slots_per_shard(WIDTH, SLOTS);
        let keys: Vec<u64> = (0..(10 * SLOTS * NUM_SHARDS) as u64).map(hashed).collect();
        for &key in &keys {
            insert_key(&cache, key, WIDTH);
        }
        assert_eq!(cache.len(), SLOTS * NUM_SHARDS, "every shard fills and stays at its bound");
        let mut indexed = 0;
        for &key in &keys {
            let mut state = Vec::new();
            if let Some(estimate) = cache.read_state(key, &mut state) {
                indexed += 1;
                assert_eq!(estimate, estimate_of(key), "{key:#x} read another key's estimate");
                assert_eq!(state, state_of(key, WIDTH), "{key:#x} read another key's state");
            }
        }
        assert_eq!(indexed, cache.len(), "index and slots disagree in size");
    }
}
