//! The serving caches allocate nothing on the hot path: a subtree-state hit
//! copies out of the slab, an insert into a full shard overwrites a victim
//! slot in place, and a node-memo hit hands out its shared features.
//!
//! The allocator below is process-global, but it counts per thread, and
//! only on a thread that asks it to, so the tests may run in parallel.

use estimator_core::memory::{SubtreeStateCache, STATE_SLOTS_PER_SHARD};
use featurize::{EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, GeneratorConfig};
use query::{CompareOp, Operand, PhysicalOp, PlanNode, Predicate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use strembed::HashBitmapEncoder;

/// Forwards every call to [`System`] and counts allocations made while the
/// calling thread's `COUNTING` flag is set.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no memory the
// allocator hands out, and the const-initialized thread-locals need no
// allocation of their own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// A well-mixed signature-like key for `i`; all of them fall in shard 0
/// (the shard bits, 32–35, are cleared).
fn key(i: u64) -> u64 {
    let mut h = query::SigHasher::new();
    h.write_u64(i);
    h.finish() & !(0xF << 32)
}

#[test]
fn a_warm_hit_and_an_insert_into_a_full_shard_allocate_nothing() {
    const WIDTH: usize = 32;
    let cache = SubtreeStateCache::new(WIDTH);
    let state = [0.5f32; 2 * WIDTH];
    let slots = STATE_SLOTS_PER_SHARD as u64;
    for i in 0..slots {
        cache.insert(key(i), (i as f64, 1.0), |slot| slot.copy_from_slice(&state));
    }
    assert_eq!(cache.len(), STATE_SLOTS_PER_SHARD, "shard 0 is full");

    let warm = key(slots - 1);
    let mut fringe = Vec::with_capacity(2 * WIDTH);
    let n = allocations_in(|| {
        assert!(cache.estimate(warm).is_some());
        assert!(cache.read_state(warm, &mut fringe).is_some());
    });
    assert_eq!(n, 0, "a warm root hit and a warm fringe hit made {n} allocations");
    assert_eq!(fringe, state);

    let n = allocations_in(|| {
        for i in slots..slots + 4096 {
            cache.insert(key(i), (i as f64, 2.0), |slot| slot.copy_from_slice(&state));
        }
    });
    assert_eq!(n, 0, "4,096 inserts into a full shard made {n} allocations");
    assert_eq!(cache.len(), STATE_SLOTS_PER_SHARD, "a full shard stays at its bound");
    assert_eq!(cache.estimate(key(slots + 4095)), Some(((slots + 4095) as f64, 2.0)));
}

#[test]
fn a_node_memo_hit_allocates_nothing() {
    let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
    let cfg = EncodingConfig::from_database(&db, 16, 64);
    let fx = FeatureExtractor::new(db, cfg, Arc::new(HashBitmapEncoder::new(16)));
    let scan = PlanNode::leaf(PhysicalOp::SeqScan {
        table: "title".into(),
        predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(1990.0))),
    });
    let seen = fx.encode_node(&scan);
    assert_eq!(fx.bitmap_memo_stats(), (0, 1), "the first encode misses and fills the memo");

    let mut hit = None;
    let n = allocations_in(|| hit = Some(fx.encode_node(&scan)));
    assert_eq!(n, 0, "a node-memo hit made {n} allocations");
    assert_eq!(fx.bitmap_memo_stats(), (1, 1), "the second encode of the operator hits");
    assert!(Arc::ptr_eq(&seen, &hit.expect("encoded")), "a hit shares the memoized features");
}
