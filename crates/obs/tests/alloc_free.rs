//! Proof that recording is allocation-free once warm, with the registry
//! disabled and enabled.
//!
//! A counting global allocator (no external crates — a thin wrapper
//! over `System`) counts the heap allocations of the calling thread
//! only, in a `const` thread-local, so allocations made by other test
//! threads never land in a measured window. Both cases live in one test
//! function because the enabled flag is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcdnn_obs::metrics;

struct CountingAlloc;

thread_local! {
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
fn warm_recording_allocates_nothing_enabled_or_disabled() {
    // Warm up with recording on: the first record allocates this
    // thread's slab, and the first span sizes the span buffer.
    mcdnn_obs::set_enabled(true);
    metrics::SERVE_BURSTS.add(1);
    metrics::SCHED_LATENCY_MS.observe(0.5);
    {
        let _s = mcdnn_obs::span("alloc", "warmup");
    }

    // Enabled: 10k warm counter adds and histogram observations.
    let before = allocations();
    for i in 0..10_000u32 {
        metrics::SERVE_BURSTS.add(1);
        metrics::SCHED_LATENCY_MS.observe(f64::from(i) * 0.01);
    }
    let enabled = allocations() - before;
    assert_eq!(
        mcdnn_obs::thread_counter_value("serve.bursts"),
        10_001,
        "every warm add landed in this thread's slab"
    );

    // Disabled: spans, counters and histograms all return at once.
    mcdnn_obs::set_enabled(false);
    let before = allocations();
    for _ in 0..10_000 {
        let _s = mcdnn_obs::span("alloc", "fast-path");
        metrics::SERVE_BURSTS.add(1);
        metrics::SCHED_LATENCY_MS.observe(0.5);
    }
    let disabled = allocations() - before;
    mcdnn_obs::set_enabled(true);

    assert_eq!(enabled, 0, "warm enabled recording must not allocate");
    assert_eq!(disabled, 0, "disabled instrumentation must not allocate");
}
