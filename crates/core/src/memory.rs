//! Serving-side caches (Section 3, online workflow).
//!
//! When the optimizer's plan enumerator repeatedly asks for the cost of
//! candidate plans sharing sub-plans, the estimator memoizes two things,
//! both keyed by a 64-bit signature of the sub-plan:
//!
//! * [`SubtreeStateCache`] — the paper's representation memory pool: the
//!   representation cell's `G‖R` state at the root of every embedded
//!   sub-plan, with the `(cost, cardinality)` the estimation heads give for
//!   its `R`, keyed by the structural signature
//!   ([`query::PlanNode::signature_hash`]).  A candidate that shares a
//!   subtree re-enters the forward pass at the fringe instead of re-running
//!   the cell over the whole subtree, and a candidate whose root is cached
//!   is answered from its entry (`batch::estimate_batch_memo`).  Raw plans
//!   are served from it state first (`ServingEstimator::estimate_plans`),
//!   without the encode cache: a repeated plan costs a signature walk and
//!   one lookup, and is neither featurized nor embedded nor scored.
//! * [`EncodedSubtreeCache`] — the featurized encoding of every sub-plan,
//!   keyed by its structural signature mixed with its annotations, behind
//!   the batch encode (`CostEstimator::encode_plans`, the serving catalog's
//!   `Session::encode_batch`), on a `ShardedCache`.
//!
//! Each lives exactly as long as what its entries are computed from: the
//! state cache as long as one served generation's weights
//! ([`crate::ServingEstimator`]), the encode cache as long as the
//! extractor.
//!
//! Both split their keys over [`NUM_SHARDS`] independently-locked shards by
//! middle bits of the key, so concurrent estimator threads don't serialize
//! on one lock, and count hits and misses in per-shard relaxed atomics, so
//! statistics never take a lock on the hot path.  Keys are pre-mixed by the
//! signature hasher's splitmix64 finalizer, so the shard maps use
//! [`query::IdentityHasher`] instead of re-hashing every `u64` through
//! SipHash.
//!
//! # The state slab
//!
//! Each state shard is a slab of [`STATE_SLOTS_PER_SHARD`] slots: parallel
//! key, estimate and `G‖R` arrays that grow with their entries up to that
//! capacity (nothing is reserved for empty slots), plus a signature → slot
//! index.  An entry is plain data at a slot, not a shared allocation:
//! readers copy what they need under the shard's read lock — a plan's root
//! only its estimate, a fringe child its `G‖R` — and an insert into a full
//! shard allocates and frees nothing.
//!
//! Once a shard is full, each insert overwrites one victim slot drawn by
//! the shard's xorshift generator: random replacement, with no reference
//! bits, no clock hand and nothing written on a read.  A DP enumerator that
//! keeps revisiting more distinct sub-plans than the cache holds is the case
//! that decides the policy: evicting in insertion order (FIFO, or the
//! oldest half of a full shard) and CLOCK both discard each entry just
//! before the loop comes back to it, so they keep none of it, while random
//! replacement keeps a uniform share — about half per pass of a loop 4/3
//! the cache's size.  `docs/perf.md` §8 has the measurements.

use parking_lot::RwLock;
use query::IdentityHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of shards (power of two; selected by middle bits of the key).
pub const NUM_SHARDS: usize = 16;

/// Slots per [`SubtreeStateCache`] shard: 262,144 sub-plans in all.
pub const STATE_SLOTS_PER_SHARD: usize = 16 * 1024;

/// Seed of every state shard's victim generator (any nonzero constant).
const VICTIM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

type SigMap<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// The shard a key belongs to.  Middle bits: the identity-hashed hashbrown
/// map derives its bucket index from the low bits and its 7-bit SIMD probe
/// tag from the top bits; shard selection must avoid both ranges, or every
/// key in a shard would share part of its tag/bucket entropy.
#[inline]
fn shard_of(key: u64) -> usize {
    ((key >> 32) as usize) & (NUM_SHARDS - 1)
}

/// A state shard's lookup counters: relaxed atomics, so statistics never
/// acquire a lock of their own (and need none — approximate global ordering
/// is fine for stats).
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Counters {
    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// `(hits, misses)` summed over `shards`.
    fn sum<'a>(shards: impl Iterator<Item = &'a Counters>) -> (u64, u64) {
        shards.fold((0, 0), |(h, m), c| (h + c.hits.load(Ordering::Relaxed), m + c.misses.load(Ordering::Relaxed)))
    }
}

/// One cached value plus its insertion sequence number (shard-local,
/// monotonically increasing) — the recency the eviction policy keeps.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    seq: u64,
}

#[derive(Debug)]
struct ShardInner<V> {
    map: SigMap<Entry<V>>,
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
struct ShardedCache<V> {
    shards: Box<[Shard<V>; NUM_SHARDS]>,
    max_per_shard: usize,
}

impl<V: Clone> ShardedCache<V> {
    /// An empty cache bounded to `max_per_shard` entries per shard.
    fn with_shard_capacity(max_per_shard: usize) -> Self {
        ShardedCache {
            shards: Box::new(std::array::from_fn(|_| Shard::default())),
            max_per_shard: max_per_shard.max(1),
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Shard<V> {
        &self.shards[shard_of(key)]
    }

    /// Look up a signature, counting a hit or a miss in the shard's atomics.
    fn get(&self, key: u64) -> Option<V> {
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
    fn insert(&self, key: u64, value: V) {
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
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.read().map.len()).sum()
    }

    /// True when nothing is cached.
    fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.inner.read().map.is_empty())
    }

    /// `(hits, misses)` lookup counters summed over all shards.
    fn stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for s in self.shards.iter() {
            hits += s.hits.load(Ordering::Relaxed);
            misses += s.misses.load(Ordering::Relaxed);
        }
        (hits, misses)
    }

    /// Drop all cached entries and reset the counters.
    fn clear(&self) {
        for s in self.shards.iter() {
            let mut inner = s.inner.write();
            inner.map.clear();
            inner.next_seq = 0;
            s.hits.store(0, Ordering::Relaxed);
            s.misses.store(0, Ordering::Relaxed);
        }
    }
}

/// One shard of a [`SubtreeStateCache`]: per-slot arrays, all indexed by
/// slot and grown together up to the shard's capacity, and the signature →
/// slot index.
#[derive(Debug)]
struct Slab {
    index: SigMap<u32>,
    /// Signature per slot.
    keys: Vec<u64>,
    /// Denormalized `(cost, cardinality)` per slot.
    estimates: Vec<(f64, f64)>,
    /// `G‖R` per slot, `G` first: `2 × width` floats each.
    states: Vec<f32>,
    /// xorshift64 state: the next victim once the slab is full.
    rng: u64,
}

impl Slab {
    fn new() -> Self {
        Slab { index: SigMap::default(), keys: Vec::new(), estimates: Vec::new(), states: Vec::new(), rng: VICTIM_SEED }
    }

    /// The slot a new key takes — the next unused one, or, once all
    /// `capacity` are used, a victim drawn uniformly at random, whose key
    /// leaves the index — with the key recorded in both directions.
    fn claim(&mut self, key: u64, capacity: usize, stride: usize) -> usize {
        let slot = if self.keys.len() < capacity {
            self.keys.push(key);
            self.estimates.push((0.0, 0.0));
            self.states.resize(self.states.len() + stride, 0.0);
            self.keys.len() - 1
        } else {
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            let victim = (x % capacity as u64) as usize;
            self.index.remove(&self.keys[victim]);
            self.keys[victim] = key;
            victim
        };
        self.index.insert(key, slot as u32);
        slot
    }
}

#[derive(Debug)]
struct StateShard {
    slab: RwLock<Slab>,
    counters: Counters,
}

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
    shards: Box<[StateShard; NUM_SHARDS]>,
    /// Length of `G` and of `R`: the model's `hidden_dim`.
    width: usize,
    slots_per_shard: usize,
    nodes_seen: AtomicU64,
    nodes_computed: AtomicU64,
}

impl SubtreeStateCache {
    /// An empty cache for a model whose cell states are `width` long (its
    /// `hidden_dim`), [`STATE_SLOTS_PER_SHARD`] slots per shard.
    pub fn new(width: usize) -> Self {
        Self::with_shard_capacity(width, STATE_SLOTS_PER_SHARD)
    }

    fn with_shard_capacity(width: usize, slots_per_shard: usize) -> Self {
        assert!(slots_per_shard > 0 && slots_per_shard <= u32::MAX as usize, "slots per shard out of range");
        SubtreeStateCache {
            shards: Box::new(std::array::from_fn(|_| StateShard {
                slab: RwLock::new(Slab::new()),
                counters: Counters::default(),
            })),
            width,
            slots_per_shard,
            nodes_seen: AtomicU64::new(0),
            nodes_computed: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, signature: u64) -> &StateShard {
        &self.shards[shard_of(signature)]
    }

    /// The stored `(cost, cardinality)` of a sub-plan — all a plan's root
    /// needs — counting a hit or a miss.
    pub fn estimate(&self, signature: u64) -> Option<(f64, f64)> {
        let shard = self.shard(signature);
        let found = {
            let slab = shard.slab.read();
            slab.index.get(&signature).map(|&slot| slab.estimates[slot as usize])
        };
        shard.counters.count(found.is_some());
        found
    }

    /// On a hit, append the sub-plan's `G‖R` (`2 × width` floats, `G`
    /// first) to `out` and return its stored estimate — what a fresh
    /// parent's fringe child needs — counting a hit or a miss.
    pub fn read_state(&self, signature: u64, out: &mut Vec<f32>) -> Option<(f64, f64)> {
        let stride = 2 * self.width;
        let shard = self.shard(signature);
        let found = {
            let slab = shard.slab.read();
            slab.index.get(&signature).map(|&slot| {
                let slot = slot as usize;
                out.extend_from_slice(&slab.states[slot * stride..(slot + 1) * stride]);
                slab.estimates[slot]
            })
        };
        shard.counters.count(found.is_some());
        found
    }

    /// Store a sub-plan's estimate and its `G‖R`, which `write` fills in
    /// place (a `2 × width` slice, `G` first).  Once the shard is full the
    /// entry overwrites a victim slot drawn at random.  A signature already
    /// present keeps its entry and `write` is not called: every writer
    /// computed its entry from the same sub-plan and weights, so the bits
    /// are the same.
    pub fn insert(&self, signature: u64, estimate: (f64, f64), write: impl FnOnce(&mut [f32])) {
        let stride = 2 * self.width;
        let mut slab = self.shard(signature).slab.write();
        if slab.index.contains_key(&signature) {
            return;
        }
        let slot = slab.claim(signature, self.slots_per_shard, stride);
        slab.estimates[slot] = estimate;
        write(&mut slab.states[slot * stride..(slot + 1) * stride]);
    }

    /// Number of memoized subtrees.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.slab.read().keys.len()).sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.slab.read().keys.is_empty())
    }

    /// `(hits, misses)` lookup counters.
    pub fn stats(&self) -> (u64, u64) {
        Counters::sum(self.shards.iter().map(|s| &s.counters))
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
        for s in self.shards.iter() {
            *s.slab.write() = Slab::new();
            s.counters.reset();
        }
        self.nodes_seen.store(0, Ordering::Relaxed);
        self.nodes_computed.store(0, Ordering::Relaxed);
    }
}

/// Per-shard entry bound of the [`EncodedSubtreeCache`]: encoded plans are
/// 1–2 orders of magnitude larger than subtree states (they carry the full
/// feature slabs of a subtree), so the bound is correspondingly tighter
/// than the state slab's [`STATE_SLOTS_PER_SHARD`].
const ENCODED_MAX_PER_SHARD: usize = 2 * 1024;

/// Cache of memoized subtree *encodings* for the featurize front of the
/// serving path — the encode-side sibling of [`SubtreeStateCache`].
///
/// Keys are the memo keys of `FeatureExtractor::encode_plans_cached`
/// (structural signature mixed with the subtree's annotations), values the
/// shared `Arc<EncodedPlan>`s; a hit returns the identical bits a fresh
/// encode would produce, so the cache is purely a throughput device.
/// Entries depend only on the extractor (its dictionaries and string
/// encoder), not on model weights, so the cache lives exactly as long as
/// the extractor: a `CostEstimator` creates it with its extractor and keeps
/// it across every refit and checkpoint load.  A load verifies the
/// checkpoint's vocabulary and encoder against that extractor, so no load
/// changes what an entry encodes.
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

    /// A well-mixed signature-like key for `i`, placed in `shard`.
    fn key_in_shard(i: u64, shard: usize) -> u64 {
        let mut h = query::SigHasher::new();
        h.write_u64(i);
        (h.finish() & !((NUM_SHARDS as u64 - 1) << 32)) | ((shard as u64) << 32)
    }

    /// The `G‖R` a test writes for `key`: every float derived from the key,
    /// so a slot read back under another key's index entry shows.
    fn state_of(key: u64, stride: usize) -> Vec<f32> {
        (0..stride).map(|j| ((key >> (j % 48)) & 0xFFFF) as f32 + j as f32 / 1024.0).collect()
    }

    fn estimate_of(key: u64) -> (f64, f64) {
        (key as f64, (!key) as f64)
    }

    fn insert_key(cache: &SubtreeStateCache, key: u64) {
        let state = state_of(key, 2 * cache.width);
        cache.insert(key, estimate_of(key), |slot| slot.copy_from_slice(&state));
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache: ShardedCache<u32> = ShardedCache::with_shard_capacity(ENCODED_MAX_PER_SHARD);
        let mut used = std::collections::HashSet::new();
        for i in 0..256u64 {
            // Simulate signature keys: well-mixed via the same finalizer.
            let mut h = query::SigHasher::new();
            h.write_u64(i);
            let key = h.finish();
            cache.insert(key, i as u32);
            used.insert(shard_of(key));
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
        let cache: Arc<ShardedCache<(f64, f64)>> = Arc::new(ShardedCache::with_shard_capacity(ENCODED_MAX_PER_SHARD));
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
    fn slab_bound_holds_and_every_slot_agrees_with_the_index() {
        const SLOTS: usize = 64;
        let cache = SubtreeStateCache::with_shard_capacity(3, SLOTS);
        let stride = 2 * cache.width;
        for i in 0..(10 * SLOTS * NUM_SHARDS) as u64 {
            let mut h = query::SigHasher::new();
            h.write_u64(i);
            insert_key(&cache, h.finish());
        }
        assert_eq!(cache.len(), SLOTS * NUM_SHARDS, "every shard fills and stays at its bound");
        for (s, shard) in cache.shards.iter().enumerate() {
            let slab = shard.slab.read();
            assert_eq!(slab.keys.len(), SLOTS);
            assert_eq!(slab.estimates.len(), SLOTS);
            assert_eq!(slab.states.len(), SLOTS * stride);
            assert_eq!(slab.index.len(), SLOTS, "shard {s}: index and slots disagree in size");
            for (&key, &slot) in &slab.index {
                assert_eq!(slab.keys[slot as usize], key, "shard {s}: index points {key:#x} at another key's slot");
                assert_eq!(shard_of(key), s);
            }
            for (slot, &key) in slab.keys.iter().enumerate() {
                assert_eq!(slab.index.get(&key), Some(&(slot as u32)), "shard {s}: slot {slot} is not indexed");
                assert_eq!(slab.estimates[slot], estimate_of(key));
                assert_eq!(&slab.states[slot * stride..(slot + 1) * stride], state_of(key, stride).as_slice());
            }
        }
    }

    /// A DP enumerator's recurring working set larger than the cache: a
    /// loop over 4/3 of a shard's slots, probing each key and inserting it
    /// on a miss.  Evicting in insertion order discards each key just
    /// before the loop returns to it and hits nothing; random replacement
    /// keeps a steady share of the loop.
    #[test]
    fn random_replacement_keeps_a_loop_larger_than_the_shard() {
        let cache = SubtreeStateCache::new(1);
        let keys: Vec<u64> = (0..(STATE_SLOTS_PER_SHARD * 4 / 3) as u64).map(|i| key_in_shard(i, 5)).collect();
        for pass in 0..8 {
            let mut hits = 0;
            for &key in &keys {
                if cache.estimate(key).is_some() {
                    hits += 1;
                } else {
                    insert_key(&cache, key);
                }
            }
            let kept = hits as f64 / keys.len() as f64;
            if pass >= 2 {
                assert!(kept >= 0.4, "pass {pass} kept {kept:.3} of a loop 4/3 the shard's size");
            }
        }
        assert_eq!(cache.len(), STATE_SLOTS_PER_SHARD, "the loop filled exactly its one shard");
    }

    /// Readers and writers race on shards kept full, so slots are
    /// overwritten under readers all the time: every hit must still read the
    /// `G‖R` and estimate written for its own key.
    #[test]
    fn concurrent_hits_read_the_state_written_for_their_key() {
        const THREADS: usize = 8;
        const KEYS: u64 = 4096;
        let cache = SubtreeStateCache::with_shard_capacity(4, 32);
        let stride = 2 * cache.width;
        let barrier = std::sync::Barrier::new(THREADS);
        let hits = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let (cache, barrier, hits) = (&cache, &barrier, &hits);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(stride);
                    barrier.wait();
                    for round in 0..20_000u64 {
                        let mut h = query::SigHasher::new();
                        h.write_u64((round * 7919 + t * 104_729) % KEYS);
                        let key = h.finish();
                        out.clear();
                        match cache.read_state(key, &mut out) {
                            Some(estimate) => {
                                assert_eq!(estimate, estimate_of(key), "a hit read another key's estimate");
                                assert_eq!(out, state_of(key, stride), "a hit read another key's G‖R");
                                hits.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                assert!(out.is_empty(), "a miss must leave the buffer alone");
                                insert_key(cache, key);
                            }
                        }
                        if round % 3 == 0 {
                            if let Some(estimate) = cache.estimate(key) {
                                assert_eq!(estimate, estimate_of(key));
                            }
                        }
                    }
                });
            }
        });
        assert!(hits.load(Ordering::Relaxed) > 0, "the stress never hit");
        assert_eq!(cache.len(), 32 * NUM_SHARDS, "4096 keys over 16 shards fill every 32-slot shard");
    }
}
