//! The serving counters a session tallies and folds once read the same
//! totals as counting each burst where it happens.
//!
//! A `serve` session counts its bursts, jobs, faulted and degraded
//! bursts and its frontier lookups in its own state and folds them into
//! the registry when it ends; an SLO tenant folds its lookups when its
//! stream is complete. Two pinned runs go through [`Engine`] with the
//! registry reset first: a `serve` fleet with faults, degraded links,
//! drift and adaptation, and a drifting, adapting `serve --slo` fleet.
//! Each total below was read from a build that recorded every burst and
//! every lookup as it happened.
//!
//! One test in its own file: the registry is process-global, so no
//! sibling test may record into it between a reset and a read.

use mcdnn::{Engine, EngineConfig};
use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_profile::AdaptConfig;
use mcdnn_sim::{fleet, slo_fleet, DriftSpec, ServeConfig, SloConfig, SloPolicy};

/// The drift the CLI's `--drift 0.08` maps to.
fn drift() -> DriftSpec {
    DriftSpec {
        device_walk: 0.08,
        link_walk: 0.04,
        jitter: 0.02,
        ..DriftSpec::none()
    }
}

/// `(name, total)` of each named counter after `run` on a fresh
/// two-wide engine, scoped by a reset.
fn totals(names: &[&'static str], run: &dyn Fn(&Engine)) -> Vec<(&'static str, u64)> {
    let engine = EngineConfig::new().threads(2).obs(true).build();
    mcdnn_obs::reset();
    run(&engine);
    let snapshot = mcdnn_obs::snapshot();
    drop(engine);
    names
        .iter()
        .map(|&name| (name, snapshot.counter(name).expect("catalogued counter")))
        .collect()
}

#[test]
fn folded_serving_counters_read_the_per_burst_totals() {
    let profiles = monotone_zoo_rate_profiles(SETUP_MS);
    let serve_config = ServeConfig {
        bursts_per_user: 40,
        degrade_prob: 0.2,
        fault_every: 8,
        seed: 7,
        drift: drift(),
        adapt: Some(AdaptConfig::default()),
        ..ServeConfig::default()
    };
    let users = fleet(&profiles, 12, &serve_config);
    let serve = |engine: &Engine| {
        let report = engine.serve(&users, &serve_config).expect("fleet serves");
        assert!(report.total_faulted_bursts > 0 && report.total_degraded_bursts > 0);
        assert!(report.total_replans > 0);
    };
    let serve_names = [
        "serve.bursts",
        "serve.jobs",
        "serve.faulted_bursts",
        "serve.degraded_bursts",
        "frontier.lookups",
        "frontier.oob",
    ];
    let pinned = [480, 1_920, 60, 96, 953, 0];
    assert_eq!(
        totals(&serve_names, &serve),
        serve_names.into_iter().zip(pinned).collect::<Vec<_>>()
    );

    let slo_config = SloConfig {
        requests_per_tenant: 40,
        seed: 7,
        drift: drift(),
        adapt: Some(AdaptConfig::default()),
        ..SloConfig::default()
    };
    let tenants = slo_fleet(&profiles, 8, &slo_config);
    let slo = |engine: &Engine| {
        let report = engine
            .serve_slo(&tenants, &slo_config, SloPolicy::EdfDegrade)
            .expect("fleet serves");
        assert!(report.admitted > 0);
    };
    let slo_names = ["sched.requests", "frontier.lookups", "frontier.oob"];
    let pinned = [320, 328, 0];
    assert_eq!(
        totals(&slo_names, &slo),
        slo_names.into_iter().zip(pinned).collect::<Vec<_>>()
    );
}
