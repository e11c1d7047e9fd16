//! Serving-side caches (Section 3, online workflow).
//!
//! When the optimizer's plan enumerator repeatedly asks for the cost of
//! candidate plans sharing sub-plans, the estimator memoizes two things,
//! both keyed by a 64-bit signature of the sub-plan:
//!
//! * [`EncodedSubtreeCache`] — the featurized encoding of every sub-plan,
//!   keyed by its structural signature mixed with its annotations, behind
//!   the batch encode (`CostEstimator::encode_plans`, the serving catalog's
//!   `Session::encode_batch`);
//! * [`SubtreeStateCache`] — the representation cell's `(G, R)` state
//!   vectors of every embedded sub-plan, with the `(cost, cardinality)` the
//!   estimation heads give for its `R`, keyed by the structural signature
//!   ([`query::PlanNode::signature_hash`]) — the paper's representation
//!   memory pool.  A candidate that shares a subtree re-enters the forward
//!   pass at the fringe instead of re-running the cell over the whole
//!   subtree, and a candidate whose root is cached is answered from its
//!   entry (`batch::estimate_batch_memo`).  Raw plans are served from it
//!   state first (`ServingEstimator::estimate_plans`), without the encode
//!   cache: a repeated plan costs a signature walk and one lookup, and is
//!   neither featurized nor embedded nor scored.
//!
//! Both sit on [`ShardedCache`]: middle bits of the key pick one of
//! [`NUM_SHARDS`] independently-locked shards, so concurrent estimator
//! threads don't serialize on one lock, and hit/miss counters are per-shard
//! relaxed atomics — statistics never take a lock on the hot path (the old
//! implementation kept them in two separate `RwLock<u64>`s, two extra lock
//! round-trips per lookup).  Keys are pre-mixed by the signature hasher's
//! splitmix64 finalizer, so the shard maps use [`query::IdentityHasher`]
//! instead of re-hashing every `u64` through SipHash.

use parking_lot::RwLock;
use query::IdentityHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of shards (power of two; selected by middle bits of the key).
pub const NUM_SHARDS: usize = 16;

/// Default per-shard entry cap (~256k entries across all shards).
const DEFAULT_MAX_PER_SHARD: usize = 16 * 1024;

/// One cached value plus its insertion sequence number (shard-local,
/// monotonically increasing) — the recency the eviction policy keeps.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    seq: u64,
}

type SigMap<V> = HashMap<u64, Entry<V>, BuildHasherDefault<IdentityHasher>>;

#[derive(Debug)]
struct ShardInner<V> {
    map: SigMap<V>,
    next_seq: u64,
}

#[derive(Debug)]
struct Shard<V> {
    inner: RwLock<ShardInner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            inner: RwLock::new(ShardInner { map: SigMap::default(), next_seq: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// A concurrent map from 64-bit sub-plan signatures to cached values,
/// sharded by middle bits of the key, with per-shard atomic hit/miss
/// counters.
///
/// Bounded: when an insert would push a shard past its per-shard cap, the
/// **oldest-inserted half** of the shard is dropped and the
/// most-recently-inserted half retained (the caches are advisory — evicting
/// costs a re-computation, never correctness).  An earlier version dropped
/// the whole shard, which discarded the very states the current enumeration
/// had just memoized and collapsed the hit rate exactly when the cache was
/// under pressure; keeping the recent half preserves the working set while
/// still bounding memory, with no per-lookup LRU bookkeeping on the hot
/// path (recency is stamped on insert only).
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Box<[Shard<V>; NUM_SHARDS]>,
    max_per_shard: usize,
}

impl<V: Clone> ShardedCache<V> {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::with_shard_capacity(DEFAULT_MAX_PER_SHARD)
    }

    /// An empty cache bounded to `max_per_shard` entries per shard.
    pub fn with_shard_capacity(max_per_shard: usize) -> Self {
        ShardedCache {
            shards: Box::new(std::array::from_fn(|_| Shard::default())),
            max_per_shard: max_per_shard.max(1),
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Shard<V> {
        // Middle bits: the identity-hashed hashbrown map derives its bucket
        // index from the low bits and its 7-bit SIMD probe tag from the top
        // bits; shard selection must avoid both ranges, or every key in a
        // shard would share part of its tag/bucket entropy.
        &self.shards[((key >> 32) as usize) & (NUM_SHARDS - 1)]
    }

    /// Look up a signature, counting a hit or a miss in the shard's atomics.
    pub fn get(&self, key: u64) -> Option<V> {
        let shard = self.shard(key);
        let found = shard.inner.read().map.get(&key).map(|e| e.value.clone());
        // Relaxed atomics: statistics never acquire a lock of their own
        // (and need none — approximate global ordering is fine for stats).
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Store a value under a signature (last writer wins on a race; both
    /// writers computed the value from the same sub-plan, so the values are
    /// interchangeable).  Re-inserting an existing key refreshes its
    /// recency.  When the shard is full, the oldest-inserted half is
    /// evicted first.
    pub fn insert(&self, key: u64, value: V) {
        let shard = self.shard(key);
        let mut inner = shard.inner.write();
        if inner.map.len() >= self.max_per_shard && !inner.map.contains_key(&key) {
            // Evict the oldest-inserted entries, keeping the newest
            // `max_per_shard / 2` — sequence numbers are unique, so the
            // cutoff retains exactly that many.
            let keep = self.max_per_shard / 2;
            if keep == 0 {
                inner.map.clear();
            } else {
                let mut seqs: Vec<u64> = inner.map.values().map(|e| e.seq).collect();
                let cut_idx = seqs.len() - keep;
                let (_, &mut cutoff, _) = seqs.select_nth_unstable(cut_idx);
                inner.map.retain(|_, e| e.seq >= cutoff);
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.map.insert(key, Entry { value, seq });
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.read().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.inner.read().map.is_empty())
    }

    /// `(hits, misses)` lookup counters summed over all shards.
    pub fn stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for s in self.shards.iter() {
            hits += s.hits.load(Ordering::Relaxed);
            misses += s.misses.load(Ordering::Relaxed);
        }
        (hits, misses)
    }

    /// Drop all cached entries and reset the counters.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let mut inner = s.inner.write();
            inner.map.clear();
            inner.next_seq = 0;
            s.hits.store(0, Ordering::Relaxed);
            s.misses.store(0, Ordering::Relaxed);
        }
    }
}

impl<V: Clone> Default for ShardedCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The memoized state of one embedded sub-plan: the `G` and `R` channel
/// vectors of the representation cell at the subtree root, and the
/// sub-plan's estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeState {
    pub g: Vec<f32>,
    pub r: Vec<f32>,
    /// Denormalized `(cost, cardinality)` from the estimation heads over
    /// `r` — the bits the fresh batch returns for this sub-plan submitted
    /// as a plan.  Like `g` and `r`, it depends on the weights; it also
    /// depends on the target normalization.
    pub estimate: (f64, f64),
}

/// Cache of subtree representation states for optimizer-in-the-loop serving.
///
/// Shared by all estimator threads.  In the memoized level loop
/// (`batch::estimate_batch_memo`), a hit at a plan's root answers the plan
/// with the entry's stored estimate — no tape, no heads — and a hit below a
/// fresh node injects the stored `(G, R)` columns as tape inputs instead of
/// re-embedding the subtree.  Entries are only meaningful for the
/// weights, target normalization and extractor that produced them — the
/// cache is owned by one `CostEstimator` and replaced by a fresh one on
/// every re-fit or checkpoint load, never shared across models.
///
/// Besides the lookup counters of the underlying [`ShardedCache`], the cache
/// tracks *node-level* serving counters: of all plan nodes submitted for
/// scoring, how many were served from a memoized subtree (or deduplicated
/// within the batch) versus embedded fresh.  That is the "subtree-cache hit
/// rate" the serving bench reports — lookups stop at the subtree fringe, so
/// lookup counts alone understate how much work memoization saves.
#[derive(Debug, Default)]
pub struct SubtreeStateCache {
    cache: ShardedCache<Arc<SubtreeState>>,
    nodes_seen: AtomicU64,
    nodes_computed: AtomicU64,
}

impl SubtreeStateCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a subtree state.
    pub fn get(&self, signature: u64) -> Option<Arc<SubtreeState>> {
        self.cache.get(signature)
    }

    /// Store a subtree state.
    pub fn insert(&self, signature: u64, state: Arc<SubtreeState>) {
        self.cache.insert(signature, state);
    }

    /// Number of memoized subtrees.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// `(hits, misses)` lookup counters.
    pub fn stats(&self) -> (u64, u64) {
        self.cache.stats()
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

    /// Drop all memoized states and reset every counter.
    pub fn clear(&self) {
        self.cache.clear();
        self.nodes_seen.store(0, Ordering::Relaxed);
        self.nodes_computed.store(0, Ordering::Relaxed);
    }
}

/// Per-shard entry bound of the [`EncodedSubtreeCache`]: encoded plans are
/// 1–2 orders of magnitude larger than subtree states (they carry the full
/// feature slabs of a subtree), so the bound is correspondingly tighter
/// than [`DEFAULT_MAX_PER_SHARD`].
const ENCODED_MAX_PER_SHARD: usize = 2 * 1024;

/// Cache of memoized subtree *encodings* for the featurize front of the
/// serving path — the encode-side sibling of [`SubtreeStateCache`].
///
/// Keys are the memo keys of `FeatureExtractor::encode_plans_cached`
/// (structural signature mixed with the subtree's annotations), values the
/// shared `Arc<EncodedPlan>`s; a hit returns the identical bits a fresh
/// encode would produce, so the cache is purely a throughput device.
/// Entries depend on the extractor's dictionaries (not on model weights),
/// but the cache is owned by one `CostEstimator` and swapped alongside the
/// subtree-state cache on every refit/checkpoint-load — cheap, and it keeps
/// one invalidation rule for every serving cache.
#[derive(Debug)]
pub struct EncodedSubtreeCache {
    cache: ShardedCache<Arc<featurize::EncodedPlan>>,
}

impl EncodedSubtreeCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        EncodedSubtreeCache { cache: ShardedCache::with_shard_capacity(ENCODED_MAX_PER_SHARD) }
    }

    /// An empty cache bounded to `max_per_shard` entries per shard.
    pub fn with_shard_capacity(max_per_shard: usize) -> Self {
        EncodedSubtreeCache { cache: ShardedCache::with_shard_capacity(max_per_shard) }
    }

    /// Number of memoized subtree encodings.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// `(hits, misses)` lookup counters.
    pub fn stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Fraction of lookups served from the cache (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Drop every memoized encoding and reset the counters.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

impl Default for EncodedSubtreeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl featurize::EncodedPlanCache for EncodedSubtreeCache {
    fn get(&self, key: u64) -> Option<Arc<featurize::EncodedPlan>> {
        self.cache.get(key)
    }

    fn insert(&self, key: u64, value: Arc<featurize::EncodedPlan>) {
        self.cache.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_spread_over_shards() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        let mut used = std::collections::HashSet::new();
        for i in 0..256u64 {
            // Simulate signature keys: well-mixed via the same finalizer.
            let mut h = query::SigHasher::new();
            h.write_u64(i);
            let key = h.finish();
            cache.insert(key, i as u32);
            used.insert((key >> 32) & (NUM_SHARDS as u64 - 1));
        }
        assert_eq!(cache.len(), 256);
        assert!(used.len() >= NUM_SHARDS / 2, "keys collapsed onto {} shards", used.len());
    }

    #[test]
    fn capacity_bound_evicts_instead_of_growing() {
        let cache: ShardedCache<u64> = ShardedCache::with_shard_capacity(8);
        for i in 0..10_000u64 {
            let mut h = query::SigHasher::new();
            h.write_u64(i);
            cache.insert(h.finish(), i);
        }
        assert!(cache.len() <= 8 * NUM_SHARDS, "cache grew past its bound: {}", cache.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn eviction_retains_the_most_recently_inserted_half() {
        // One shard's worth of keys (same middle bits), tiny capacity.
        let cache: ShardedCache<u64> = ShardedCache::with_shard_capacity(8);
        let key = |i: u64| i; // middle bits zero for i < 2^32: all in shard 0
        for i in 0..8 {
            cache.insert(key(i), i);
        }
        assert_eq!(cache.len(), 8);
        // The 9th insert evicts the OLDEST half (0..4), never the newest.
        cache.insert(key(8), 8);
        assert_eq!(cache.len(), 5);
        for old in 0..4 {
            assert!(cache.get(key(old)).is_none(), "oldest entry {old} must be evicted");
        }
        for recent in 4..9 {
            assert_eq!(cache.get(key(recent)), Some(recent), "recent entry {recent} must survive eviction");
        }
        // Re-inserting refreshes recency: touch 4 so it outlives 5.
        cache.insert(key(4), 44);
        for i in 9..12 {
            cache.insert(key(i), i);
        }
        cache.insert(key(12), 12); // triggers the next eviction at len 8
        assert_eq!(cache.get(key(4)), Some(44), "re-inserted key must be treated as recent");
        assert!(cache.get(key(5)).is_none(), "stale key must go first");
    }

    /// Satellite regression: hit rate under capacity pressure.  The serving
    /// access pattern is phased — an enumeration memoizes a handful of new
    /// subtree states, and the very next candidates look those states up
    /// again.  The old policy dropped the **whole shard** on overflow, so an
    /// overflow landing mid-phase discarded states inserted moments earlier
    /// and the following lookups re-missed them; retaining the
    /// most-recently-inserted half guarantees the current phase's states
    /// always survive the eviction that their own inserts trigger.
    #[test]
    fn hit_rate_under_pressure_keeps_current_phase_resident() {
        let cache: ShardedCache<u64> = ShardedCache::with_shard_capacity(16);
        let mut lookups = 0u64;
        // Phase width 5 does not divide the capacity, so overflows land at
        // every offset within a phase over the course of the run.
        for phase in 0..200u64 {
            let keys: Vec<u64> = (0..5).map(|i| phase * 5 + i).collect();
            for &k in &keys {
                cache.insert(k, k);
            }
            for &k in &keys {
                assert!(cache.get(k).is_some(), "state inserted this phase was evicted by its own phase's overflow");
                lookups += 1;
            }
        }
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (lookups, 0), "every in-phase lookup must hit under pressure");
        // And the cache stayed bounded the whole time.
        assert!(cache.len() <= 16);
    }

    /// Satellite guard: N threads hammer one cache with interleaved inserts
    /// and lookups; afterwards no update may be lost (every inserted key
    /// present) and the stats must balance exactly (hits + misses == total
    /// lookups), which the old two-`RwLock<u64>` counters guaranteed only by
    /// luck of lock interleaving and atomics must preserve under real
    /// contention.
    #[test]
    fn sharded_pool_multithread_stress_no_lost_updates() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let cache: Arc<ShardedCache<(f64, f64)>> = Arc::new(ShardedCache::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let own = (t << 32) | i;
                        cache.insert(own, (i as f64, t as f64));
                        // One guaranteed hit (own key, just inserted)...
                        assert_eq!(cache.get(own), Some((i as f64, t as f64)), "lost update on {own:#x}");
                        // ...and one lookup of a key no thread ever inserts.
                        assert!(cache.get(u64::MAX - own).is_none());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress thread");
        }
        assert_eq!(cache.len() as u64, THREADS * PER_THREAD);
        let (hits, misses) = cache.stats();
        assert_eq!(hits, THREADS * PER_THREAD, "stable hit count");
        assert_eq!(misses, THREADS * PER_THREAD, "stable miss count");
        // Every key is still present with the value its writer stored.
        for t in 0..THREADS {
            for i in (0..PER_THREAD).step_by(97) {
                assert_eq!(cache.get((t << 32) | i), Some((i as f64, t as f64)));
            }
        }
    }

    #[test]
    fn subtree_cache_state_roundtrip_and_node_stats() {
        let cache = SubtreeStateCache::new();
        let state = Arc::new(SubtreeState { g: vec![1.0, 2.0], r: vec![3.0, 4.0], estimate: (5.0, 6.0) });
        assert!(cache.get(7).is_none());
        cache.insert(7, Arc::clone(&state));
        assert_eq!(cache.get(7).as_deref(), Some(&*state));
        assert_eq!(cache.get(7).map(|s| s.estimate), Some((5.0, 6.0)), "an entry carries its estimate");
        assert_eq!(cache.len(), 1);

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
}
