//! Zoo-wide proof that the indexed EDF/WFQ dispatcher is bit-identical
//! to the linear-scan reference.
//!
//! The overhauled dispatch path (per-tenant deadline heaps, lazy
//! deletion, memoized ladder pricing) claims *exact* equivalence, not
//! approximate: every outcome — completions, rungs, sheds, digests —
//! must match [`DispatchMode::Reference`] byte for byte. This sweep
//! drives both modes over real zoo profiles across policies, overload
//! regimes, and contention settings — one generated stream set
//! scheduled under both modes — then re-checks the pooled engine
//! at every worker width against the indexed serial run (the
//! production default after the overhaul).

use std::sync::Arc;

use mcdnn_bench::workload::{monotone_zoo_cloud_rate_profiles, SETUP_MS};
use mcdnn_partition::PlanCache;
use mcdnn_rng::Rng;
use mcdnn_runtime::WorkerPool;
use mcdnn_sim::{
    serve_slo, serve_slo_serial, slo_fleet, DispatchMode, SloConfig, SloPolicy, SloStreams,
};

/// Both dispatchers, the reference first.
const MODES: [DispatchMode; 2] = [DispatchMode::Reference, DispatchMode::Indexed];

#[test]
fn indexed_dispatch_is_bit_identical_to_the_reference_zoo_wide() {
    let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    assert!(profiles.len() >= 4, "the zoo must yield a real fleet");
    let cache = PlanCache::new();

    let configs = [
        // Uncontended, moderate overload — the plain EDF/WFQ path.
        SloConfig {
            requests_per_tenant: 40,
            overload: 2.0,
            ..SloConfig::default()
        },
        // Deep queues: heavy overload makes the pick structurally hard.
        SloConfig {
            requests_per_tenant: 40,
            overload: 8.0,
            ..SloConfig::default()
        },
        // Scarce shared pool, oblivious shares.
        SloConfig {
            requests_per_tenant: 40,
            overload: 3.0,
            cloud_servers: 2,
            ..SloConfig::default()
        },
        // Joint allocation + per-request cut overrides — the most
        // machinery the pricing memo has to stay exact under.
        SloConfig {
            requests_per_tenant: 40,
            overload: 3.0,
            cloud_servers: 2,
            joint_alloc: true,
            ..SloConfig::default()
        },
    ];

    let mut run = SloStreams::default();
    for (ci, config) in configs.iter().enumerate() {
        let fleet = slo_fleet(&profiles, profiles.len() + 3, config);
        run.regenerate(&cache, &fleet, config).expect("generates");
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let [reference, indexed] =
                MODES.map(|mode| run.schedule(&fleet, config, policy, mode).expect("serves"));
            assert!(reference.admitted > 0, "config {ci} {policy:?}: vacuous run");
            assert_eq!(
                reference, indexed,
                "config {ci} {policy:?}: indexed dispatch diverged from the reference"
            );
        }
    }
}

#[test]
fn pooled_indexed_dispatch_matches_serial_at_every_width() {
    let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    let config = SloConfig {
        requests_per_tenant: 40,
        overload: 4.0,
        cloud_servers: 2,
        joint_alloc: true,
        ..SloConfig::default()
    };
    let fleet = slo_fleet(&profiles, profiles.len() + 3, &config);
    let serial_cache = PlanCache::new();
    let serial = serve_slo_serial(&serial_cache, &fleet, &config, SloPolicy::EdfDegrade)
        .expect("fleet serves");

    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let cache = Arc::new(PlanCache::new());
        let pooled =
            serve_slo(&pool, &cache, &fleet, &config, SloPolicy::EdfDegrade).expect("fleet serves");
        assert_eq!(
            serial, pooled,
            "{workers}-worker indexed serving diverged from serial"
        );
    }
}

#[test]
fn equivalence_holds_on_randomized_fleet_shapes() {
    // Random tenant counts and overloads over the zoo: shapes the
    // hand-picked configs above might miss (single-tenant fleets,
    // near-idle loads, very deep queues).
    let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    let cache = PlanCache::new();
    let mut rng = Rng::seed_from_u64(0x0EDF_0EDF);
    let mut run = SloStreams::default();
    for trial in 0..6 {
        let config = SloConfig {
            requests_per_tenant: 20 + rng.gen_range(0usize..30),
            overload: [0.3, 1.0, 2.0, 5.0, 10.0, 16.0][trial % 6],
            cloud_servers: rng.gen_range(0usize..3),
            ..SloConfig::default()
        };
        let tenants = 1 + rng.gen_range(0usize..12);
        let fleet = slo_fleet(&profiles, tenants, &config);
        run.regenerate(&cache, &fleet, &config).expect("generates");
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let [reference, indexed] =
                MODES.map(|mode| run.schedule(&fleet, &config, policy, mode).expect("serves"));
            assert_eq!(
                reference, indexed,
                "trial {trial} {policy:?} (tenants={tenants}, overload={}): diverged",
                config.overload
            );
        }
    }
}
