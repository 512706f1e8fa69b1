//! Per-row memory footprint of a bare partition, measured by the allocator
//! itself. A counting global allocator tracks allocations, frees and live
//! bytes, so the test holds a loaded row to one allocation (its chain) and
//! the store's `approx_bytes` accounting to what the heap really holds.
//!
//! The counters are process-wide, so this file holds exactly one test: it
//! runs in its own process with nothing else allocating beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use aloha_common::{Key, PartitionId, Timestamp, Value};
use aloha_functor::{Functor, HandlerRegistry};
use aloha_storage::{LocalOnlyEnv, Partition};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every request it serves.
struct Counting;

// SAFETY: every call forwards unchanged to `System`; the counters are plain
// atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One live allocation replaced by another: the count is unchanged.
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live allocations and live bytes right now.
fn heap() -> (usize, usize) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let frees = FREES.load(Ordering::Relaxed);
    (allocs - frees, LIVE_BYTES.load(Ordering::Relaxed))
}

/// A YCSB row key: 15 bytes, routed to partition 0.
fn ycsb_key(idx: u32) -> Key {
    Key::with_route(0, &[b"y", &idx.to_be_bytes()])
}

const ROWS: u32 = 200_000;
const COMPUTED: u32 = 50_000;

/// Asserts that `approx` is within 20 % of the allocator's `grown` bytes.
fn assert_close(what: &str, approx: usize, grown: usize) {
    let ratio = approx as f64 / grown as f64;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "{what}: approx_bytes {approx} vs allocator growth {grown} (ratio {ratio:.3})"
    );
}

#[test]
fn a_loaded_row_costs_one_allocation_and_approx_bytes_tracks_the_heap() {
    let partition = Partition::new(PartitionId(0), 1, Arc::new(HandlerRegistry::new()));
    let (allocs0, bytes0) = heap();

    for idx in 0..ROWS {
        partition.load(&ycsb_key(idx), Value::from_i64(i64::from(idx)));
    }
    let (allocs1, bytes1) = heap();
    let per_row = (allocs1 - allocs0) as f64 / f64::from(ROWS);
    assert!(
        per_row <= 1.01,
        "{per_row:.4} net live allocations per loaded row"
    );
    let mem = partition.store().memory_stats();
    assert_eq!(
        (mem.chains, mem.settled_records, mem.live_records),
        (ROWS as usize, ROWS as usize, 0)
    );
    assert_close("after load", mem.approx_bytes, bytes1 - bytes0);

    let version = Timestamp::from_raw(10);
    for idx in 0..COMPUTED {
        partition
            .install(&ycsb_key(idx), version, Functor::add(1))
            .unwrap();
    }
    for idx in 0..COMPUTED {
        partition
            .compute(&ycsb_key(idx), version, &LocalOnlyEnv)
            .unwrap();
    }
    let (_, bytes2) = heap();
    let mem = partition.store().memory_stats();
    assert_eq!(mem.live_records, COMPUTED as usize);
    assert_eq!(partition.stats().computes(), u64::from(COMPUTED));
    assert_close("after computes", mem.approx_bytes, bytes2 - bytes0);
}
