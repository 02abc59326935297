//! Proof that a warm [`mcdnn_sim::DesArena`] run is allocation-free.
//!
//! Same counting-allocator technique as `mcdnn-obs`'s `alloc_free`
//! test: a thin `System` wrapper counts the calling thread's heap
//! allocations around a warm `DesArena::simulate` call, with
//! observability recording as it does by default. This is the property
//! the million-job sweeps lean on — per-schedule cost must be pure
//! simulation, not buffer churn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcdnn_flowshop::FlowJob;
use mcdnn_sim::{DesArena, DesConfig};

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

#[test]
fn warm_arena_simulate_allocates_nothing() {
    let jobs: Vec<FlowJob> = (0..64)
        .map(|i| FlowJob::two_stage(i, 3.0 + i as f64 % 5.0, 7.0 - i as f64 % 6.0))
        .collect();
    let order: Vec<usize> = (0..jobs.len()).collect();
    let config = DesConfig {
        uplink_channels: 2,
        cloud_slots: 1,
        jitter_frac: 0.1,
        seed: 42,
        ..DesConfig::default()
    };

    let mut arena = DesArena::new();
    // Cold run sizes the buffers (and allocates this thread's obs
    // slab); then measure a warm run with recording still on.
    mcdnn_obs::set_enabled(true);
    let cold = arena.simulate(&jobs, &order, &config);

    let before = allocations();
    let warm = arena.simulate(&jobs, &order, &config);
    let after = allocations();

    assert_eq!(warm, cold, "same seed, same schedule, same makespan");
    assert_eq!(after - before, 0, "warm arena run must not allocate");
}
