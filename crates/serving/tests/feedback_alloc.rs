//! Recording a served batch allocates nothing once the feedback log's ring
//! exists: `FeedbackLog::record_batch` pushes the batch into it in place.
//!
//! The allocator below is process-global, so this file holds one test, and
//! it counts only the allocations of the thread that asks it to.

use serving::{FeedbackLog, FeedbackRecord};
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

#[test]
fn a_sixteen_record_batch_allocates_nothing() {
    let signatures: Vec<u64> = (1..=16u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let estimates: Vec<(f64, f64)> = (1..=16).map(|i| (i as f64, 10.0 * i as f64)).collect();

    // Room for every record: the batch lands whole.
    let roomy = FeedbackLog::new(1024);
    let n = allocations_in(|| roomy.record_batch(signatures.iter().zip(&estimates)));
    assert_eq!(n, 0, "a 16-record batch into free ring slots made {n} allocations");
    let mut drained = roomy.drain();
    drained.sort_by_key(|r| r.signature);
    let mut expected: Vec<FeedbackRecord> = signatures
        .iter()
        .zip(&estimates)
        .map(|(&signature, &(cost, cardinality))| FeedbackRecord { signature, cost, cardinality })
        .collect();
    expected.sort_by_key(|r| r.signature);
    assert_eq!(drained, expected);

    // Full rings: every batch overwrites, still without allocating.
    let full = FeedbackLog::new(8);
    for round in 0..4 {
        let n = allocations_in(|| full.record_batch(signatures.iter().zip(&estimates)));
        assert_eq!(n, 0, "round {round}: a 16-record batch into full rings made {n} allocations");
    }
    assert_eq!(full.total_recorded(), 64);
    assert_eq!(full.total_overwritten() as usize + full.len(), 64);
}
