//! A corrupt tensor length must not reserve the payload it claims: a
//! checkpoint reader allocates about what the file holds, then reports the
//! truncation.
//!
//! The allocator below is process-global, so this file holds one test.

use nn::checkpoint::{read_f32_vec, CheckpointError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards every call to [`System`] and records the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording a size touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

#[test]
fn a_corrupt_tensor_length_allocates_only_what_the_file_holds() {
    // 2^28 scalars is the largest length the sanity bound lets through: a
    // 1 GiB claim over a 12-byte reader.
    let file = [0u8; 12];
    LARGEST.store(0, Ordering::Relaxed);
    let result = read_f32_vec(&mut &file[..], 1 << 28, "payload");
    let largest = LARGEST.load(Ordering::Relaxed);
    match result {
        Err(CheckpointError::Truncated { .. }) => {}
        Err(other) => panic!("expected Truncated, got {other}"),
        Ok(scalars) => panic!("expected Truncated, read {} scalars", scalars.len()),
    }
    assert!(largest <= 1 << 20, "one allocation asked for {largest} bytes while reading a 12-byte file");
}
