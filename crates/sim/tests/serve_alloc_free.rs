//! Proof of the steady-state serving contract: a warm
//! [`mcdnn_sim::UserSession`] admits fault-free bursts with **zero
//! heap allocations**, with observability recording as it does by
//! default, measured on a worker thread (the pool's steady-state
//! shape). The counting allocator counts per thread, so the window
//! sees only the session's own work.
//!
//! The measured window covers the full admission path: bandwidth walk,
//! degradation roll, ladder decision, shared-cache-backed frontier
//! lookup, in-place job refill and the two-stage flow-shop recurrence
//! that prices a fault-free burst (no DES run). Faulted bursts are
//! excluded (`fault_every: 0`) — they run the DES, whose `FaultPlan`
//! and link timeline are built per run, as `DesArena` documents.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcdnn_partition::{PlanCache, RateProfile};
use mcdnn_profile::AdaptConfig;
use mcdnn_sim::{fleet, DriftSpec, LadderLevel, ServeConfig, UserSession};

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
fn warm_session_admits_bursts_without_allocating() {
    let profiles = vec![
        RateProfile::from_parts(
            "serve-alloc",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            None,
        )
        .unwrap(),
        RateProfile::from_parts(
            "serve-alloc-2",
            vec![0.0, 2.0, 9.0, 11.0, 15.0],
            vec![200_000, 90_000, 40_000, 10_000, 0],
            1.0,
            None,
        )
        .unwrap(),
        // The two above run on-device at the nominal rate, so their
        // ladder walks stay on the healthy rung; this one offloads at
        // cut 2 and replans on-device when the link degrades.
        RateProfile::from_parts(
            "serve-alloc-3",
            vec![0.0, 2.0, 5.0, 40.0],
            vec![100_000, 20_000, 5_000, 0],
            1.0,
            None,
        )
        .unwrap(),
    ];
    let config = ServeConfig {
        bursts_per_user: 0, // sessions driven by hand below
        degrade_prob: 0.2,  // the ladder path must be alloc-free too
        fault_every: 0,
        ..ServeConfig::default()
    };
    let specs = fleet(&profiles, profiles.len(), &config);

    mcdnn_obs::set_enabled(true);
    let worker = std::thread::spawn(move || {
        let cache = PlanCache::new();
        let (mut total, mut degraded) = (0u64, 0u64);
        for spec in &specs {
            // Warm-up: compiles the frontier, sets up the ladder, sizes
            // the job buffer, and allocates the thread's obs slab.
            let mut session = UserSession::start(&cache, spec, &config).unwrap();
            for _ in 0..32 {
                session.admit_burst();
            }
            // Only a ladder walk sets a level below the healthy rung;
            // the tally is a register, so counting allocates nothing.
            let before = allocations();
            for _ in 0..200 {
                let burst = session.admit_burst();
                degraded += u64::from(burst.level != LadderLevel::Normal);
            }
            total += allocations() - before;
        }
        (total, degraded)
    });
    let (allocs, degraded) = worker.join().expect("worker thread");
    assert!(degraded > 0, "the measured window must walk the ladder");
    assert_eq!(allocs, 0, "warm admit_burst must not allocate");
}

#[test]
fn adaptive_observe_path_is_alloc_free_between_commits() {
    let profiles = vec![RateProfile::from_parts(
        "serve-alloc-adapt",
        vec![0.0, 4.0, 7.0, 20.0],
        vec![120_000, 60_000, 20_000, 0],
        2.0,
        None,
    )
    .unwrap()];
    let config = ServeConfig {
        bursts_per_user: 0, // driven by hand below
        degrade_prob: 0.2,
        fault_every: 0,
        drift: DriftSpec {
            device_walk: 0.05,
            link_walk: 0.03,
            jitter: 0.02,
            ..DriftSpec::none()
        },
        // An uncrossable gate pins the estimator in its steady state:
        // every burst observes (EWMA folds, ring writes, window refits
        // at each boundary) but no commit — and hence no replan — can
        // fire inside the measured window.
        adapt: Some(AdaptConfig {
            window: 32,
            gate: 1e12,
            ..AdaptConfig::default()
        }),
        ..ServeConfig::default()
    };
    let specs = fleet(&profiles, 1, &config);

    mcdnn_obs::set_enabled(true);
    let worker = std::thread::spawn(move || {
        let cache = PlanCache::new();
        let mut session = UserSession::start(&cache, &specs[0], &config).unwrap();
        // Warm-up: fill the regression window (uploads are observed on
        // most bursts).
        for _ in 0..96 {
            session.admit_burst();
            session.maybe_adapt(&cache).unwrap();
        }
        let before = allocations();
        for _ in 0..200 {
            session.admit_burst();
            session.maybe_adapt(&cache).unwrap();
        }
        allocations() - before
    });
    let allocs = worker.join().expect("worker thread");
    assert_eq!(
        allocs, 0,
        "drift-adaptive observe path must not allocate between commits"
    );
}
