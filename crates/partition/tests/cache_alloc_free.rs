//! Proof that warm [`mcdnn_partition::PlanCache`] hits are
//! allocation-free, on the thread that compiled the entry and on a
//! fresh thread.
//!
//! Same counting-allocator technique as the `mcdnn-sim` arena test: a
//! thin `System` wrapper counts the calling thread's heap allocations
//! around warm lookups, with observability recording as it does by
//! default.
//! This is the property the multi-tenant serving loop leans on — a
//! steady-state stream re-fetching its frontier must cost a hash of
//! the content bits and an `Arc` clone, never a `CacheKey`
//! materialization (the PR-4 cache allocated three `Vec`s per lookup,
//! hit or miss).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcdnn_partition::{PlanCache, RateProfile, Strategy};

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by this thread: a measured window counts
    /// only its own thread, whatever sibling tests allocate meanwhile.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates directly to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn rate_profile() -> RateProfile {
    RateProfile::from_parts(
        "alloc-free",
        vec![0.0, 4.0, 7.0, 20.0],
        vec![120_000, 60_000, 20_000, 0],
        2.0,
        None,
    )
    .unwrap()
}

/// Warm the lookup (compiling the entry if needed and allocating the
/// thread's obs slab), then count allocations across 100 further hits.
fn allocs_per_100_hits(cache: &PlanCache, rate: &RateProfile) -> u64 {
    mcdnn_obs::set_enabled(true);
    let warm = cache
        .frontier(rate, Strategy::JpsBestMix, 6, 0.1, 100.0)
        .unwrap();
    let before = allocations();
    for _ in 0..100 {
        let hit = cache
            .frontier(rate, Strategy::JpsBestMix, 6, 0.1, 100.0)
            .unwrap();
        assert!(std::sync::Arc::ptr_eq(&warm, &hit));
    }
    allocations() - before
}

#[test]
fn warm_cache_hits_allocate_nothing() {
    let rate = rate_profile();
    let cache = PlanCache::new();

    // Hits on the thread that compiled the entry.
    assert_eq!(
        allocs_per_100_hits(&cache, &rate),
        0,
        "warm hit must not allocate"
    );

    // A fresh thread on the same cache: its first fetch (inside
    // `allocs_per_100_hits`) covers the thread's lazy obs set-up, and
    // its measured hits on the entry the test thread compiled are again
    // zero-allocation.
    let worker = std::thread::scope(|scope| {
        scope
            .spawn(|| allocs_per_100_hits(&cache, &rate))
            .join()
            .expect("worker thread")
    });
    assert_eq!(worker, 0, "worker-thread hits must not allocate");
}
