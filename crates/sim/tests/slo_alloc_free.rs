//! Proof that the warm [`mcdnn_sim::SloStreams`] generation and
//! dispatch path is allocation-free.
//!
//! Same counting-allocator technique as `arena_alloc_free`: a thin
//! `System` wrapper counts the calling thread's heap allocations around
//! a warm `regenerate` + `digest` pair — request generation, the merge
//! into arrival order, the indexed EDF/WFQ dispatch loop, the
//! rung-pricing memo, and the outcome digest fold — with observability
//! recording as it does by default. Report construction is
//! excluded on purpose (reports own `String`s), as is the joint share
//! planner (`joint_alloc` runs a fresh optimization per run by
//! design); the digest covers every scheduled bit regardless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcdnn_partition::{PlanCache, RateProfile};
use mcdnn_sim::{serve_slo_serial, slo_fleet, DispatchMode, SloConfig, SloPolicy, SloStreams};

/// Two device-only and one cloud-capable profile, mirroring the shapes
/// the slo unit tests use.
fn profiles() -> Vec<RateProfile> {
    vec![
        RateProfile::from_parts(
            "alpha",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            None,
        )
        .unwrap(),
        RateProfile::from_parts(
            "beta",
            vec![0.0, 2.0, 9.0, 11.0, 15.0],
            vec![200_000, 90_000, 40_000, 10_000, 0],
            1.0,
            None,
        )
        .unwrap(),
        RateProfile::from_parts(
            "gamma",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            Some(vec![9.0, 6.0, 3.0, 0.0]),
        )
        .unwrap(),
    ]
}

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
fn warm_slo_digest_run_allocates_nothing() {
    let config = SloConfig {
        requests_per_tenant: 80,
        overload: 4.0,
        ..SloConfig::default()
    };
    let fleet = slo_fleet(&profiles(), 12, &config);
    let cache = PlanCache::new();
    let mut run = SloStreams::default();
    let edf = SloPolicy::EdfDegrade;

    // Cold run sizes every buffer (streams, heaps, pricing memo),
    // fills the plan cache and allocates this thread's obs slab; a
    // report run pins the digest the hot path must keep reproducing.
    mcdnn_obs::set_enabled(true);
    let report = serve_slo_serial(&cache, &fleet, &config, edf).unwrap();
    run.regenerate(&cache, &fleet, &config).unwrap();
    let cold = run
        .digest(&fleet, &config, edf, DispatchMode::Indexed)
        .unwrap();

    let before = allocations();
    run.regenerate(&cache, &fleet, &config).unwrap();
    let warm = run
        .digest(&fleet, &config, edf, DispatchMode::Indexed)
        .unwrap();
    let after = allocations();

    assert_eq!(warm, cold, "same fleet, same config, same digest");
    assert_eq!(warm, report.digest, "digest fold must match the report");
    assert_eq!(after - before, 0, "warm SLO dispatch must not allocate");
    let stats = run.stats();
    assert!(stats.memo_hits > 0, "warm run must reuse the pricing memo");
}
