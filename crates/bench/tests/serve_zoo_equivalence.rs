//! Zoo-wide serving equivalence: the multi-tenant engine (a shared
//! [`PlanCache`] + [`WorkerPool`]) must be **bit-identical** to the
//! single-thread reference path on a fleet drawn from the full real
//! model zoo — plans, makespans, and fault/degrade histories alike (the
//! per-user digests fold every bandwidth sample, chosen mix, ladder
//! level, makespan bit, and fault-event field).
//!
//! This is the serving-layer analogue of `frontier_zoo_sweep`: it pins
//! the concurrency machinery added for multi-tenant serving to the
//! serial semantics, over every zoo model the JPS theory admits.

use std::sync::Arc;

use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_partition::{PlanCache, Strategy};
use mcdnn_runtime::WorkerPool;
use mcdnn_sim::{fleet, serve_fleet, serve_fleet_serial, ServeConfig};

#[test]
fn pooled_serving_matches_the_serial_reference_zoo_wide() {
    let profiles = monotone_zoo_rate_profiles(SETUP_MS);
    assert!(profiles.len() >= 4, "the zoo must yield a real fleet");

    let config = ServeConfig {
        bursts_per_user: 60,
        fault_every: 8,
        degrade_prob: 0.1,
        ..ServeConfig::default()
    };
    // Two full laps over the zoo plus a remainder, so every model is
    // served by at least two users and cache keys collide across users.
    let users = profiles.len() * 2 + 3;
    let specs = fleet(&profiles, users, &config);
    assert_eq!(specs.len(), users);

    // Reference: no worker pool.
    let reference = serve_fleet_serial(&PlanCache::new(), &specs, &config).expect("fleet serves");

    // The fleet must actually exercise the interesting paths, otherwise
    // "bit-identical" is vacuous.
    assert!(reference.total_faulted_bursts > 0, "no faulted bursts");
    assert!(reference.total_degraded_bursts > 0, "no degraded bursts");
    let models: std::collections::BTreeSet<&str> =
        reference.users.iter().map(|u| u.model.as_str()).collect();
    assert_eq!(models.len(), profiles.len(), "every zoo model is served");
    for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
        assert!(
            reference.users.iter().any(|u| u.strategy == strategy),
            "fleet never used {strategy:?}"
        );
    }

    // Candidate: a fresh cache shared by a real worker pool, at several
    // pool widths (1 = pool overhead only, 8 > available cores).
    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let cache = Arc::new(PlanCache::new());
        let pooled = serve_fleet(&pool, &cache, &specs, &config).expect("fleet serves");
        assert_eq!(
            pooled, reference,
            "{workers}-worker serving diverged from the serial reference"
        );
    }

    // A second serial lap over the warm cache must also agree: cache
    // hits cannot change results.
    let warm = Arc::new(PlanCache::new());
    let first = serve_fleet_serial(&warm, &specs, &config).expect("fleet serves");
    let second = serve_fleet_serial(&warm, &specs, &config).expect("fleet serves");
    assert_eq!(first, reference);
    assert_eq!(second, reference, "warm-cache lap diverged");
}
