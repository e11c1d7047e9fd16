//! The subtree-state slab allocates nothing on the serving hot path once a
//! shard is full: a hit copies out of the slab, and an insert overwrites a
//! victim slot in place.
//!
//! The allocator below is process-global, so this file holds one test, and
//! it counts only the allocations of the thread that asks it to.

use estimator_core::memory::{SubtreeStateCache, STATE_SLOTS_PER_SHARD};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards every call to [`System`] and counts allocations made while the
/// calling thread's `COUNTING` flag is set.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no memory the
// allocator hands out, and the const-initialized thread-local needs no
// allocation of its own.
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
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed)
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
