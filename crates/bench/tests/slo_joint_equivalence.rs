//! Zoo-wide SLO serving equivalence **under cloud contention**, plus
//! allocator share-conservation properties.
//!
//! The first test is the contended analogue of `serve_zoo_equivalence`:
//! with a finite cloud pool and joint allocation switched on, the
//! pooled engine (a shared [`PlanCache`] + [`WorkerPool`]) must stay
//! **bit-identical** to the serial reference at every pool width — cloud shares derive purely from the generated request
//! streams, so virtual time owes nothing to thread count.
//!
//! The second drives a deep contended fleet, where most picks are
//! already past their deadline and the joint Normal rung's bound
//! prunes, through both dispatch modes on one generated stream set:
//! the indexed loop's early exits
//! must run and leave every outcome bit equal to the reference's.
//!
//! The third is a seeded property sweep over real zoo frontiers: the
//! joint allocator must never hand out more than the pool's capacity,
//! never exceed the per-tenant cap, never starve a tenant it keeps in
//! the cloud, and never do worse than the contention-oblivious
//! baseline on the minimax objective.

use std::sync::Arc;

use mcdnn_bench::workload::{monotone_zoo_cloud_rate_profiles, SETUP_MS};
use mcdnn_partition::{
    joint_allocate, oblivious_allocation, JointTenant, PlanCache, RateFrontier, Strategy,
};
use mcdnn_rng::Rng;
use mcdnn_runtime::WorkerPool;
use mcdnn_sim::{
    serve_slo, serve_slo_serial, slo_fleet, DispatchMode, SloConfig, SloPolicy, SloStreams,
};

#[test]
fn pooled_contended_slo_serving_matches_the_single_lock_reference_zoo_wide() {
    let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    assert!(profiles.len() >= 4, "the zoo must yield a real fleet");

    // Scarce pool + joint allocation: the configuration with the most
    // machinery in play (water-filling, per-request cut overrides,
    // contention-stretched stages).
    let config = SloConfig {
        requests_per_tenant: 40,
        cloud_servers: 2,
        joint_alloc: true,
        ..SloConfig::default()
    };
    let tenants = profiles.len() + 3;
    let fleet = slo_fleet(&profiles, tenants, &config);

    let serial_cache = PlanCache::new();
    let mut references = Vec::new();
    for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
        let reference =
            serve_slo_serial(&serial_cache, &fleet, &config, policy).expect("fleet serves");
        // The run must actually exercise the contended paths, otherwise
        // "bit-identical" is vacuous.
        assert!(reference.admitted > 0, "{policy:?}: nothing admitted");
        assert!(
            reference.cloud_busy_ms > 0.0,
            "{policy:?}: the cloud pool never stretched a stage"
        );
        assert!(
            reference.tenants.iter().any(|t| t.cloud_share > 0.0),
            "{policy:?}: the allocator granted no cloud shares"
        );
        references.push((policy, reference));
    }

    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        for (policy, reference) in &references {
            let cache = Arc::new(PlanCache::new());
            let pooled = serve_slo(&pool, &cache, &fleet, &config, *policy).expect("fleet serves");
            assert_eq!(
                &pooled, reference,
                "{workers}-worker {policy:?} contended serving diverged from the reference"
            );
        }
    }
}

#[test]
fn deep_contended_dispatch_takes_its_early_exits_and_matches_the_reference() {
    // 8x overload into 4096-deep queues on two shared cloud servers, the
    // e2e slo-deep shape: with joint allocation both off and on.
    let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    let cache = PlanCache::new();
    for joint_alloc in [false, true] {
        let config = SloConfig {
            requests_per_tenant: 60,
            overload: 8.0,
            max_queue: 4096,
            cloud_servers: 2,
            joint_alloc,
            ..SloConfig::default()
        };
        let fleet = slo_fleet(&profiles, profiles.len() + 3, &config);
        let policy = SloPolicy::EdfDegrade;
        let modes = [DispatchMode::Reference, DispatchMode::Indexed];
        let mut run = SloStreams::default();
        run.regenerate(&cache, &fleet, &config).expect("generates");
        let [reference, indexed] =
            modes.map(|mode| run.schedule(&fleet, &config, policy, mode).expect("serves"));
        assert!(reference.admitted > 0, "joint={joint_alloc}: vacuous run");
        assert_eq!(
            reference, indexed,
            "joint={joint_alloc}: indexed dispatch diverged from the reference"
        );
        let digest = run
            .digest(&fleet, &config, policy, DispatchMode::Indexed)
            .expect("fleet serves");
        assert_eq!(digest, reference.digest, "joint={joint_alloc}");
        let stats = run.stats();
        assert!(
            stats.expired_sheds > 0 && stats.expired_sheds <= reference.shed_infeasible,
            "joint={joint_alloc}: expired picks must be shed unpriced: {stats:?}"
        );
        assert!(
            stats.memo_prunes > 0,
            "joint={joint_alloc}: rung bounds must prune: {stats:?}"
        );
    }
}

#[test]
fn joint_allocator_conserves_capacity_and_never_starves() {
    let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    let frontiers: Vec<RateFrontier> = profiles
        .iter()
        .map(|p| {
            RateFrontier::compile(p, Strategy::JpsBestMix, 1, 0.5, 80.0).expect("zoo compiles")
        })
        .collect();

    let mut rng = Rng::seed_from_u64(0xA110C);
    for trial in 0..40 {
        let n_tenants = rng.gen_range(2usize..9);
        let tenants: Vec<JointTenant<'_>> = (0..n_tenants)
            .map(|_| JointTenant {
                frontier: &frontiers[rng.gen_range(0..frontiers.len())],
                n_jobs: rng.gen_range(1usize..5),
                bandwidth_mbps: rng.gen_range(1.0..60.0),
            })
            .collect();
        let capacity = [0.5, 1.0, 2.0, 4.0, 8.0][trial % 5];

        let joint = joint_allocate(&tenants, capacity);
        let oblivious = oblivious_allocation(&tenants, capacity);

        // Conservation: the pool is never over-committed and no share
        // exceeds one server's worth.
        let total: f64 = joint.shares.iter().sum();
        assert!(
            total <= capacity * (1.0 + 1e-9),
            "trial {trial}: over-allocated {total} of {capacity}"
        );
        for (i, &share) in joint.shares.iter().enumerate() {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&share),
                "trial {trial}: tenant {i} share {share} outside [0, 1]"
            );
        }

        // No starvation: a tenant the allocator keeps offloading must
        // hold a strictly positive share, and its completion estimate
        // must stay finite.
        for (i, t) in tenants.iter().enumerate() {
            let w = t.frontier.profile().mix_cloud_ms(t.n_jobs, joint.mixes[i]);
            if w > 0.0 {
                assert!(
                    joint.shares[i] > 0.0,
                    "trial {trial}: tenant {i} offloads {w} ms but holds no share"
                );
            } else {
                assert_eq!(
                    joint.shares[i], 0.0,
                    "trial {trial}: tenant {i} holds a share with no cloud work"
                );
            }
            assert!(
                joint.completion_ms[i].is_finite(),
                "trial {trial}: tenant {i} completion not finite"
            );
        }

        // Dominance: joint never loses to the oblivious baseline on the
        // objective both optimize.
        assert!(
            joint.objective_ms <= oblivious.objective_ms * (1.0 + 1e-9),
            "trial {trial}: joint {} worse than oblivious {}",
            joint.objective_ms,
            oblivious.objective_ms
        );
    }
}
