//! [`SigCache`]: the one bounded, sharded cache keyed by 64-bit signatures.
//!
//! The serving path memoizes three things by signature, and each is a
//! `SigCache`:
//!
//! * the feature extractor's node memo — a node's features, keyed by its
//!   operator content;
//! * the encode cache — a sub-plan's encoding, keyed by its structure and
//!   annotations;
//! * the subtree-state cache — a sub-plan's `G‖R` cell state and estimate,
//!   keyed by its structure (the paper's representation memory pool).
//!
//! # Layout
//!
//! Keys split over 16 shards by bits 32–35.  Each shard is a
//! slab behind one `RwLock`: parallel key and value arrays, a third array
//! of `stride` inline `f32`s per slot, and a signature → slot index.  The
//! arrays grow with their entries up to the shard's slot count, so nothing
//! is reserved for empty slots.  With `stride` 0 the slab is a plain map.
//! A hit is read under the shard's read lock: a reader copies out what it
//! needs, a value clone or some of the floats.  Hits and misses are counted
//! in per-shard relaxed atomics, so statistics never take a lock.
//!
//! Keys are finished [`SigHasher`](crate::SigHasher) keys.  Its splitmix64
//! finalizer mixes every bit range, so the index uses [`IdentityHasher`]
//! instead of re-hashing each key.  Shard selection reads middle bits, which
//! neither the index's bucket bits (low) nor hashbrown's 7-bit probe tag
//! (top) use.
//!
//! # Replacement
//!
//! Once a shard is full, each insert overwrites one victim slot drawn by
//! the shard's xorshift generator: random replacement, with no reference
//! bits, no clock hand and nothing written on a read.  An insert into a
//! full shard therefore allocates nothing.  A DP enumerator that keeps
//! revisiting more distinct sub-plans than the cache holds is the case that
//! decides the policy.  Evicting in insertion order (FIFO, or the oldest
//! half of a full shard) and CLOCK both discard each entry just before the
//! loop comes back to it, so they keep none of it.  Random replacement keeps
//! a uniform share, about half per pass of a loop 4/3 the cache's size
//! (`docs/perf.md` §5 and §8).
//!
//! A key already present keeps its entry, and the second writer's value is
//! dropped: every writer computed its entry from the same content, so the
//! bits are the same.  Entries are advisory: a replaced entry costs one
//! recomputation, never a wrong answer.

use crate::IdentityHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of shards (a power of two; selected by key bits 32–35).
pub const NUM_SHARDS: usize = 16;

/// Seed of every shard's victim generator (any nonzero constant).
const VICTIM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard a key belongs to: bits 32–35, clear of the index's bucket
/// bits and probe tag.
#[inline]
fn shard_of(key: u64) -> usize {
    ((key >> 32) as usize) & (NUM_SHARDS - 1)
}

/// One shard's entries: per-slot arrays, all indexed by slot and grown
/// together up to the shard's capacity, and the signature → slot index.
#[derive(Debug)]
struct Slab<V> {
    index: HashMap<u64, u32, BuildHasherDefault<IdentityHasher>>,
    keys: Vec<u64>,
    values: Vec<V>,
    /// `stride` floats per slot.
    floats: Vec<f32>,
    /// xorshift64 state: the next victim once the slab is full.
    rng: u64,
}

impl<V> Slab<V> {
    fn new() -> Self {
        Slab { index: HashMap::default(), keys: Vec::new(), values: Vec::new(), floats: Vec::new(), rng: VICTIM_SEED }
    }

    /// Give a new `key` and its `value` the next unused slot or, once all
    /// `capacity` are used, a victim slot drawn uniformly at random, whose
    /// key leaves the index.  Returns the slot and the victim's value, for
    /// the caller to drop outside the lock; the caller indexes the key.
    fn claim(&mut self, key: u64, value: V, capacity: usize, stride: usize) -> (usize, Option<V>) {
        if self.keys.len() < capacity {
            self.keys.push(key);
            self.values.push(value);
            self.floats.resize(self.floats.len() + stride, 0.0);
            return (self.keys.len() - 1, None);
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let victim = (x % capacity as u64) as usize;
        self.index.remove(&self.keys[victim]);
        self.keys[victim] = key;
        (victim, Some(std::mem::replace(&mut self.values[victim], value)))
    }
}

#[derive(Debug)]
struct Shard<V> {
    slab: RwLock<Slab<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Shard<V> {
    /// The slab for reading.  Poisoning is ignored: a new entry is indexed
    /// only once its floats are written, so a panic under the write lock
    /// leaves no half-written entry readable.
    fn read(&self) -> RwLockReadGuard<'_, Slab<V>> {
        self.slab.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Slab<V>> {
        self.slab.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A concurrent, bounded map from finished signatures to a value and
/// `stride` inline floats per entry (see the module docs).
#[derive(Debug)]
pub struct SigCache<V> {
    shards: Box<[Shard<V>; NUM_SHARDS]>,
    slots_per_shard: usize,
    stride: usize,
}

impl<V> SigCache<V> {
    /// An empty cache of `slots_per_shard` entries per shard, each carrying
    /// `stride` floats.
    ///
    /// # Panics
    /// Panics unless `slots_per_shard` is in `1..=u32::MAX`.
    pub fn new(slots_per_shard: usize, stride: usize) -> Self {
        assert!(slots_per_shard > 0 && slots_per_shard <= u32::MAX as usize, "slots per shard out of range");
        SigCache {
            shards: Box::new(std::array::from_fn(|_| Shard {
                slab: RwLock::new(Slab::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })),
            slots_per_shard,
            stride,
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Shard<V> {
        &self.shards[shard_of(key)]
    }

    /// On a hit, apply `read` to the entry's value and floats under the
    /// shard's read lock and return its result; count a hit or a miss.
    pub fn read<R>(&self, key: u64, read: impl FnOnce(&V, &[f32]) -> R) -> Option<R> {
        let shard = self.shard(key);
        let found = {
            let slab = shard.read();
            slab.index.get(&key).map(|&slot| {
                let at = slot as usize * self.stride;
                read(&slab.values[slot as usize], &slab.floats[at..at + self.stride])
            })
        };
        let counter = if found.is_some() { &shard.hits } else { &shard.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// A clone of the value under `key`, counting a hit or a miss.
    pub fn get(&self, key: u64) -> Option<V>
    where
        V: Clone,
    {
        self.read(key, |value, _| value.clone())
    }

    /// Store `value` under `key`, with `write` filling the entry's floats in
    /// place.  Once the shard is full the entry overwrites a victim slot
    /// drawn at random.  A key already present keeps its entry; `write` is
    /// then not called.
    pub fn insert(&self, key: u64, value: V, write: impl FnOnce(&mut [f32])) {
        let mut slab = self.shard(key).write();
        if slab.index.contains_key(&key) {
            return;
        }
        let (slot, evicted) = slab.claim(key, value, self.slots_per_shard, self.stride);
        write(&mut slab.floats[slot * self.stride..(slot + 1) * self.stride]);
        slab.index.insert(key, slot as u32);
        // Free the victim's value outside the lock.
        drop(slab);
        drop(evicted);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().keys.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().keys.is_empty())
    }

    /// `(hits, misses)` summed over the shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.hits.load(Ordering::Relaxed), m + s.misses.load(Ordering::Relaxed)))
    }

    /// Fraction of lookups that hit (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Drop every entry (and its memory) and reset the counters.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let dropped = std::mem::replace(&mut *s.write(), Slab::new());
            s.hits.store(0, Ordering::Relaxed);
            s.misses.store(0, Ordering::Relaxed);
            drop(dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SigHasher;
    use std::fmt::Debug;
    use std::sync::Arc;

    /// The two shapes the serving caches take: shared values with no
    /// inline floats (the node memo and the encode cache), and plain values
    /// with inline floats (the state slab).
    trait Shape: Clone + PartialEq + Debug + Send + Sync {
        const STRIDE: usize;
        fn of(key: u64) -> Self;
    }

    impl Shape for Arc<u64> {
        const STRIDE: usize = 0;
        fn of(key: u64) -> Self {
            Arc::new(key)
        }
    }

    impl Shape for (f64, f64) {
        const STRIDE: usize = 6;
        fn of(key: u64) -> Self {
            (key as f64, (!key) as f64)
        }
    }

    fn cache<V: Shape>(slots_per_shard: usize) -> SigCache<V> {
        SigCache::new(slots_per_shard, V::STRIDE)
    }

    fn hashed(i: u64) -> u64 {
        let mut h = SigHasher::new();
        h.write_u64(i);
        h.finish()
    }

    /// A well-mixed signature-like key for `i`, placed in `shard`.
    fn key_in_shard(i: u64, shard: usize) -> u64 {
        (hashed(i) & !((NUM_SHARDS as u64 - 1) << 32)) | ((shard as u64) << 32)
    }

    /// The floats a test writes for `key`: every one derived from the key,
    /// so a slot read back under another key's index entry shows.
    fn floats_of(key: u64, stride: usize) -> Vec<f32> {
        (0..stride).map(|j| ((key >> (j % 48)) & 0xFFFF) as f32 + j as f32 / 1024.0).collect()
    }

    fn insert_key<V: Shape>(cache: &SigCache<V>, key: u64) {
        let floats = floats_of(key, cache.stride);
        cache.insert(key, V::of(key), |slot| slot.copy_from_slice(&floats));
    }

    /// Assert that `key` reads back its own value and floats.
    fn assert_reads_own<V: Shape>(cache: &SigCache<V>, key: u64) {
        let found = cache.read(key, |value, floats| (value.clone(), floats.to_vec()));
        assert_eq!(found, Some((V::of(key), floats_of(key, cache.stride))), "{key:#x} read another key's entry");
    }

    #[test]
    fn entries_round_trip_and_a_present_key_keeps_its_entry() {
        fn check<V: Shape>() {
            let cache = cache::<V>(8);
            assert!(cache.is_empty());
            assert_eq!((cache.get(7), cache.hit_rate()), (None, 0.0));
            insert_key(&cache, 7);
            assert_reads_own(&cache, 7);
            cache.insert(7, V::of(8), |_| unreachable!("a present key is not rewritten"));
            assert_eq!(cache.get(7), Some(V::of(7)), "a present key keeps its first entry");
            assert_eq!((cache.len(), cache.stats()), (1, (2, 1)));
            assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
            cache.clear();
            assert_eq!((cache.len(), cache.stats(), cache.get(7)), (0, (0, 0), None));
        }
        check::<Arc<u64>>();
        check::<(f64, f64)>();
    }

    #[test]
    fn keys_spread_over_shards() {
        fn check<V: Shape>() {
            let cache = cache::<V>(2048);
            let mut used = std::collections::HashSet::new();
            for i in 0..256u64 {
                // Signature-like keys: well mixed by the same finalizer.
                let key = hashed(i);
                insert_key(&cache, key);
                used.insert(shard_of(key));
            }
            assert_eq!(cache.len(), 256);
            assert!(used.len() >= NUM_SHARDS / 2, "keys collapsed onto {} shards", used.len());
            for i in 0..256u64 {
                assert_reads_own(&cache, hashed(i));
            }
        }
        check::<Arc<u64>>();
        check::<(f64, f64)>();
    }

    /// Eight threads interleave inserts and lookups on one cache: no update
    /// may be lost, and the counters must balance exactly under real
    /// contention.
    #[test]
    fn multithread_stress_loses_no_update_and_balances_the_counters() {
        fn check<V: Shape>() {
            const THREADS: u64 = 8;
            const PER_THREAD: u64 = 500;
            let cache = cache::<V>(2048);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let cache = &cache;
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            let own = hashed((t << 32) | i);
                            insert_key(cache, own);
                            // One guaranteed hit (its own key, just inserted)...
                            assert_reads_own(cache, own);
                            // ...and one lookup of a key no thread inserts.
                            assert!(cache.get(!own).is_none());
                        }
                    });
                }
            });
            assert_eq!(cache.len() as u64, THREADS * PER_THREAD);
            assert_eq!(cache.stats(), (THREADS * PER_THREAD, THREADS * PER_THREAD), "hits and misses balance");
            for t in 0..THREADS {
                for i in (0..PER_THREAD).step_by(97) {
                    assert_reads_own(&cache, hashed((t << 32) | i));
                }
            }
        }
        check::<Arc<u64>>();
        check::<(f64, f64)>();
    }

    #[test]
    fn slab_bound_holds_and_every_slot_agrees_with_the_index() {
        fn check<V: Shape>() {
            const SLOTS: usize = 64;
            let cache = cache::<V>(SLOTS);
            let stride = cache.stride;
            for i in 0..(10 * SLOTS * NUM_SHARDS) as u64 {
                insert_key(&cache, hashed(i));
            }
            assert_eq!(cache.len(), SLOTS * NUM_SHARDS, "every shard fills and stays at its bound");
            for (s, shard) in cache.shards.iter().enumerate() {
                let slab = shard.read();
                assert_eq!(slab.keys.len(), SLOTS);
                assert_eq!(slab.values.len(), SLOTS);
                assert_eq!(slab.floats.len(), SLOTS * stride);
                assert_eq!(slab.index.len(), SLOTS, "shard {s}: index and slots disagree in size");
                for (&key, &slot) in &slab.index {
                    assert_eq!(slab.keys[slot as usize], key, "shard {s}: index points {key:#x} at another key's slot");
                    assert_eq!(shard_of(key), s);
                }
                for (slot, &key) in slab.keys.iter().enumerate() {
                    assert_eq!(slab.index.get(&key), Some(&(slot as u32)), "shard {s}: slot {slot} is not indexed");
                    assert_eq!(slab.values[slot], V::of(key));
                    assert_eq!(&slab.floats[slot * stride..(slot + 1) * stride], floats_of(key, stride).as_slice());
                }
            }
        }
        check::<Arc<u64>>();
        check::<(f64, f64)>();
    }

    /// A DP enumerator's recurring working set larger than the cache: a
    /// loop over 4/3 of a shard's slots, probing each key and inserting it
    /// on a miss.  Evicting in insertion order discards each key just
    /// before the loop returns to it and hits nothing; random replacement
    /// keeps a steady share of the loop.
    #[test]
    fn random_replacement_keeps_a_loop_larger_than_the_shard() {
        fn check<V: Shape>() {
            const SLOTS: usize = 4096;
            let cache = cache::<V>(SLOTS);
            let keys: Vec<u64> = (0..(SLOTS * 4 / 3) as u64).map(|i| key_in_shard(i, 5)).collect();
            for pass in 0..8 {
                let mut hits = 0;
                for &key in &keys {
                    if cache.get(key).is_some() {
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
            assert_eq!(cache.len(), SLOTS, "the loop filled exactly its one shard");
        }
        check::<Arc<u64>>();
        check::<(f64, f64)>();
    }

    /// Readers and writers race on shards kept full, so slots are
    /// overwritten under readers all the time: every hit must still read
    /// the value and floats written for its own key.
    #[test]
    fn concurrent_hits_read_the_entry_written_for_their_key() {
        fn check<V: Shape>() {
            const THREADS: usize = 8;
            const KEYS: u64 = 4096;
            let cache = cache::<V>(32);
            let barrier = std::sync::Barrier::new(THREADS);
            let hits = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..THREADS as u64 {
                    let (cache, barrier, hits) = (&cache, &barrier, &hits);
                    scope.spawn(move || {
                        barrier.wait();
                        for round in 0..20_000u64 {
                            let key = hashed((round * 7919 + t * 104_729) % KEYS);
                            let found = cache.read(key, |value, floats| (value.clone(), floats.to_vec()));
                            match found {
                                Some(entry) => {
                                    assert_eq!(
                                        entry,
                                        (V::of(key), floats_of(key, cache.stride)),
                                        "a hit read another key's entry"
                                    );
                                    hits.fetch_add(1, Ordering::Relaxed);
                                }
                                None => insert_key(cache, key),
                            }
                        }
                    });
                }
            });
            assert!(hits.load(Ordering::Relaxed) > 0, "the stress never hit");
            assert_eq!(cache.len(), 32 * NUM_SHARDS, "4096 keys over 16 shards fill every 32-slot shard");
        }
        check::<Arc<u64>>();
        check::<(f64, f64)>();
    }
}
