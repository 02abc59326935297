//! Proof that in-range [`RateFrontier::decide_at`], and
//! [`LazyFrontier::decide_from`] on walked regimes, are allocation-free, and
//! that [`RateFrontier::compile`] allocates a bounded number of times
//! however many probes it runs.
//!
//! Same counting-allocator technique as `mcdnn-obs`'s `alloc_free`
//! test, counting the calling thread's allocations. The online
//! replanning fast path calls `decide_at` once per burst; with
//! observability recording as it does by default, that lookup must be
//! a binary search, O(1) kernel arithmetic and a counter bump — no heap
//! traffic. Every estimator commit recompiles a frontier, so its
//! probes must not each build a profile either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcdnn_partition::{FrontierCursor, LazyFrontier, RateFrontier, RateProfile, Strategy};

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
fn in_range_decide_at_allocates_nothing() {
    let rate = RateProfile::from_parts(
        "alloc-free",
        vec![0.0, 4.0, 7.0, 20.0],
        vec![120_000, 60_000, 20_000, 0],
        2.0,
        None,
    )
    .expect("valid profile");
    // Compile (which allocates this thread's obs slab) before
    // measuring lookups with recording still on.
    mcdnn_obs::set_enabled(true);
    let frontier =
        RateFrontier::compile(&rate, Strategy::JpsBestMix, 10, 0.1, 200.0).expect("monotone");

    let before = allocations();
    let mut sum = 0.0;
    for i in 0..10_000u32 {
        let b = 0.1 + f64::from(i) * (200.0 - 0.1) / 10_000.0;
        sum += frontier.decide_at(b).makespan_ms;
    }
    let after = allocations();

    assert!(sum > 0.0, "lookups must produce real makespans");
    assert_eq!(after - before, 0, "in-range decide_at must not allocate");

    // A belief allocates when a query first walks a regime, never again.
    let mut belief =
        LazyFrontier::new(rate, Strategy::JpsBestMix, 10, 0.1, 200.0).expect("monotone");
    let grid = |i: u32| 0.1 + f64::from(i) * (200.0 - 0.1) / 10_000.0;
    let mut cursor = FrontierCursor::default();
    for i in 0..10_000u32 {
        belief.decide_from(&mut cursor, grid(i));
    }
    let before = allocations();
    for i in 0..10_000u32 {
        let mix = belief.decide_from(&mut cursor, grid(i));
        assert_eq!(mix, frontier.decide_at(grid(i)).mix);
    }
    assert_eq!(
        allocations() - before,
        0,
        "walked lookups must not allocate"
    );
}

#[test]
fn compile_allocations_do_not_scale_with_probes() {
    // A 10-layer clustered profile with dozens of pieces. The lattice
    // compile this test was written against probed it 3,411 (Jps) and
    // 3,553 (best-mix) times; the event compile must stay below that,
    // and its allocations must not grow with the probes either way.
    let f = vec![
        0.0, 3.0, 7.0, 12.0, 18.0, 25.0, 33.0, 42.0, 52.0, 63.0, 75.0,
    ];
    let bytes = vec![
        600_000, 420_000, 300_000, 210_000, 150_000, 100_000, 64_000, 40_000, 22_000, 9_000, 0,
    ];
    let rate = RateProfile::from_parts("alloc-bound", f, bytes, 10.0, None).expect("valid profile");
    mcdnn_obs::set_enabled(true);
    for (strategy, lattice_probes) in [(Strategy::Jps, 3_411), (Strategy::JpsBestMix, 3_553)] {
        // Warm this thread's obs slab outside the measured window.
        RateFrontier::compile(&rate, strategy, 8, 1.0, 100.0).expect("monotone");
        let probes0 = mcdnn_obs::thread_counter_value("frontier.compile_probes");
        let before = allocations();
        let frontier = RateFrontier::compile(&rate, strategy, 8, 1.0, 100.0).expect("monotone");
        let allocs = allocations() - before;
        let probes = mcdnn_obs::thread_counter_value("frontier.compile_probes") - probes0;
        assert!(
            frontier.num_pieces() >= 2,
            "{strategy:?}: regimes must change"
        );
        assert!(
            probes < lattice_probes,
            "{strategy:?}: {probes} probes, the lattice made {lattice_probes}"
        );
        assert!(
            allocs <= 64,
            "{strategy:?}: {allocs} allocations for {probes} probes"
        );
    }
}
