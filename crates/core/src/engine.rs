//! The typed front door of the serving stack.
//!
//! Before this module, every caller wired its own `WorkerPool` +
//! [`PlanCache`] pair and took its thread count from `MCDNN_THREADS`.
//! [`EngineConfig`] replaces that with an explicit builder — the
//! environment variable remains the *defaults layer* (an unset width
//! falls back to exactly the old behaviour), but programs state their
//! configuration in code and get one [`Engine`] owning the pool and
//! the shared plan cache for planning, serving, SLO scheduling and
//! chaos drills. Recording is process-wide, so it stays with
//! `mcdnn_obs::set_enabled` and its `MCDNN_OBS` default.
//!
//! ```
//! use mcdnn::{Engine, EngineConfig};
//! use mcdnn::prelude::*;
//!
//! let engine: Engine = EngineConfig::new().threads(2).build();
//! let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
//! let plan = engine.try_plan(&scenario, Strategy::Jps, 10)?;
//! assert_eq!(plan.cuts.len(), 10);
//! # Ok::<(), mcdnn::Error>(())
//! ```

use std::sync::Arc;

use mcdnn_partition::{PlanCache, Plan, RateFrontier, RateProfile, Strategy};
use mcdnn_profile::AdaptConfig;
use mcdnn_runtime::{worker_threads, WorkerPool};
use mcdnn_sim::{
    serve_fleet, serve_slo, ServeConfig, ServeReport, SloConfig, SloPolicy, SloReport, SloStreams,
    SloTenant, UserSpec,
};

use crate::chaos::{chaos_report, ChaosConfig, ChaosReport};
use crate::error::Error;
use crate::scenario::Scenario;

/// Builder for [`Engine`]: its one knob, the pool width, is optional,
/// and unset it falls back to the `MCDNN_THREADS` default the stack has
/// always honoured, then to the hardware.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineConfig {
    threads: Option<usize>,
}

impl EngineConfig {
    /// Start from all-defaults (equivalent to the env-var behaviour).
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// Worker-thread count for the engine's pool: the threads that run
    /// each call, the caller included — serving, SLO generation and the
    /// chaos grid alike. Unset: the `MCDNN_THREADS` env var, else
    /// available parallelism. A value of 0 is clamped to 1.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Resolve the width (explicit → env → hardware) and build the
    /// engine.
    pub fn build(self) -> Engine {
        let threads = self.threads.unwrap_or_else(worker_threads).max(1);
        Engine {
            pool: WorkerPool::new(threads),
            cache: Arc::new(PlanCache::new()),
            threads,
        }
    }
}

/// One front door for the stack: a persistent [`WorkerPool`] plus a
/// shared [`PlanCache`], with typed entry points for planning, frontier
/// compilation, multi-tenant serving, SLO scheduling and chaos drills.
///
/// Construction goes through [`EngineConfig`]; [`Engine::default`] is
/// the all-defaults build (env vars, then hardware). Failures surface
/// as the unified [`enum@Error`].
pub struct Engine {
    pool: WorkerPool,
    cache: Arc<PlanCache>,
    threads: usize,
}

impl Default for Engine {
    fn default() -> Self {
        EngineConfig::new().build()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Engine {
    /// Resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's persistent pool (for callers that fan out their
    /// own work alongside the typed entry points).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The engine's shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Always `None`: adaptation is set per call, through
    /// [`ServeConfig::adapt`] and [`SloConfig::adapt`]. It exists only
    /// because the frozen end-to-end benchmark (`e2e_bench`) calls it;
    /// delete it when that benchmark next changes.
    pub fn adaptation(&self) -> Option<AdaptConfig> {
        None
    }

    /// Drop every cached frontier, so the next fetch of any key
    /// recompiles — for cost-model recalibrations that change profiles
    /// behind the cache's back. Adaptation needs no invalidation: a
    /// [`ProfileEstimator`](mcdnn_profile::ProfileEstimator) commit
    /// replans its own tenant on a private belief, outside the cache.
    pub fn invalidate_profiles(&self) {
        self.cache.clear();
    }

    /// Plan `n` jobs for a scenario, reporting failures as the unified
    /// [`enum@Error`].
    pub fn try_plan(
        &self,
        scenario: &Scenario,
        strategy: Strategy,
        n: usize,
    ) -> Result<Plan, Error> {
        Ok(scenario.try_plan(strategy, n)?)
    }

    /// Fetch (compiling on miss) the bandwidth frontier for a profile
    /// from the engine's shared cache.
    pub fn frontier(
        &self,
        profile: &RateProfile,
        strategy: Strategy,
        n_jobs: usize,
        lo_mbps: f64,
        hi_mbps: f64,
    ) -> Result<Arc<RateFrontier>, Error> {
        Ok(self
            .cache
            .frontier(profile, strategy, n_jobs, lo_mbps, hi_mbps)?)
    }

    /// Serve a multi-tenant fleet across the engine's pool
    /// ([`mcdnn_sim::serve_fleet`] with the engine's cache).
    pub fn serve(&self, specs: &[UserSpec], config: &ServeConfig) -> Result<ServeReport, Error> {
        Ok(serve_fleet(&self.pool, &self.cache, specs, config)?)
    }

    /// Run the SLO admission-control + deadline scheduler over a tenant
    /// fleet ([`mcdnn_sim::serve_slo`] with the engine's pool and
    /// cache). Byte-equal to the serial path at any thread count.
    pub fn serve_slo(
        &self,
        tenants: &[SloTenant],
        config: &SloConfig,
        policy: SloPolicy,
    ) -> Result<SloReport, Error> {
        Ok(serve_slo(&self.pool, &self.cache, tenants, config, policy)?)
    }

    /// Generate an SLO fleet's request streams once across the engine's
    /// pool and cache, to compare policies with
    /// [`SloStreams::schedule`], which the caller hands the same fleet
    /// and config: each schedule is byte-equal to [`Engine::serve_slo`]
    /// with that policy, without regenerating or re-merging the streams
    /// or rebuilding adaptive beliefs.
    pub fn slo_streams(
        &self,
        tenants: &[SloTenant],
        config: &SloConfig,
    ) -> Result<SloStreams, Error> {
        Ok(SloStreams::generate(
            &self.pool,
            &self.cache,
            tenants,
            config,
        )?)
    }

    /// Run a chaos drill for a scenario ([`chaos_report`]), its grid on
    /// the engine's pool. A config that fails [`ChaosConfig::validate`]
    /// is an [`Error::Plan`].
    pub fn chaos(&self, scenario: &Scenario, config: &ChaosConfig) -> Result<ChaosReport, Error> {
        chaos_report(&self.pool, scenario, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_models::Model;
    use mcdnn_partition::PlanError;
    use mcdnn_profile::{CloudModel, DeviceModel, NetworkModel};
    use mcdnn_sim::{
        fleet, serve_fleet_serial, serve_slo_serial, slo_fleet, AdmitError, DriftSpec,
    };

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
        ]
    }

    #[test]
    fn explicit_knobs_win_over_env_defaults() {
        let engine = EngineConfig::new().threads(3).build();
        assert_eq!(engine.threads(), 3);
        // A degenerate value clamps instead of panicking.
        let engine = EngineConfig::new().threads(0).build();
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn default_build_resolves_threads_positively() {
        let engine = Engine::default();
        assert!(engine.threads() >= 1);
        let dbg = format!("{engine:?}");
        assert!(dbg.contains("threads"));
    }

    #[test]
    fn engine_plan_matches_scenario_plan() {
        let engine = EngineConfig::new().threads(2).build();
        let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
        let a = engine.try_plan(&scenario, Strategy::Jps, 8).unwrap();
        assert_eq!(a, scenario.plan(Strategy::Jps, 8));
    }

    #[test]
    fn engine_serve_matches_serial_reference() {
        let engine = EngineConfig::new().threads(4).build();
        let config = ServeConfig {
            bursts_per_user: 20,
            ..ServeConfig::default()
        };
        let specs = fleet(&profiles(), 6, &config);
        let pooled = engine.serve(&specs, &config).unwrap();
        let serial = serve_fleet_serial(&PlanCache::new(), &specs, &config).unwrap();
        assert_eq!(pooled, serial);
    }

    #[test]
    fn engine_serve_slo_matches_serial_reference() {
        let engine = EngineConfig::new().threads(4).build();
        let config = SloConfig {
            requests_per_tenant: 30,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 6, &config);
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let pooled = engine.serve_slo(&tenants, &config, policy).unwrap();
            let serial = serve_slo_serial(&PlanCache::new(), &tenants, &config, policy).unwrap();
            assert_eq!(pooled, serial, "policy={policy}");
        }
    }

    #[test]
    fn invalidate_profiles_evicts_every_cached_frontier() {
        let engine = EngineConfig::new().threads(1).build();
        let p = &profiles()[0];
        let a = engine.frontier(p, Strategy::Jps, 4, 1.0, 100.0).unwrap();
        let b = engine.frontier(p, Strategy::Jps, 4, 1.0, 100.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm fetch hits the cache");
        assert!(!engine.cache().is_empty());
        engine.invalidate_profiles();
        assert!(engine.cache().is_empty());
        let c = engine.frontier(p, Strategy::Jps, 4, 1.0, 100.0).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "clearing must force a recompile");
        assert_eq!(a.breakpoints(), c.breakpoints(), "same plan, fresh storage");
    }

    #[test]
    fn out_of_shape_profiles_are_errors_not_compile_panics() {
        // A negative setup latency drives g(l; b) below zero at the
        // fast end of the range. Compilation reports it as BadInput —
        // through the cache and through a pool task alike.
        let line = Model::AlexNet.line().unwrap();
        let rate = RateProfile::evaluate(
            &line,
            &DeviceModel::raspberry_pi4(),
            &CloudModel::Negligible,
            -50.0,
        );
        let engine = EngineConfig::new().threads(2).build();
        let bad_input = |r: Result<(), Error>, case: &str| match r {
            Err(Error::Plan(PlanError::BadInput { .. })) => {}
            other => panic!("{case}: expected Error::Plan(BadInput), got {other:?}"),
        };
        bad_input(
            engine
                .frontier(&rate, Strategy::Jps, 4, 1.0, 100.0)
                .map(drop),
            "frontier",
        );
        let spec = UserSpec {
            id: 0,
            profile: rate,
            strategy: Strategy::Jps,
            n_jobs: 4,
            seed: 7,
        };
        let config = ServeConfig {
            bursts_per_user: 4,
            ..ServeConfig::default()
        };
        bad_input(engine.serve(&[spec], &config).map(drop), "serve");
    }

    #[test]
    fn bad_chaos_configs_are_errors_not_panics() {
        let engine = EngineConfig::new().threads(1).build();
        let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
        let with = |edit: fn(&mut ChaosConfig)| {
            let mut config = ChaosConfig::default();
            edit(&mut config);
            config
        };
        for (bad, case) in [
            (with(|c| c.jobs_per_burst = 0), "jobs_per_burst = 0"),
            (with(|c| c.bursts = 2), "bursts = 2"),
            (with(|c| c.target_hz = 0.0), "target_hz = 0"),
            (with(|c| c.target_hz = f64::INFINITY), "target_hz = inf"),
            (with(|c| c.target_hz = f64::NAN), "target_hz = NaN"),
            (with(|c| c.rho_limit = 0.0), "rho_limit = 0"),
            (with(|c| c.rho_limit = 1.5), "rho_limit = 1.5"),
            (with(|c| c.rho_limit = f64::NAN), "rho_limit = NaN"),
        ] {
            match engine.chaos(&scenario, &bad) {
                Err(Error::Plan(PlanError::BadInput { .. })) => {}
                other => panic!("{case}: expected Error::Plan(BadInput), got {other:?}"),
            }
        }
        assert!(engine.chaos(&scenario, &ChaosConfig::default()).is_ok());
        // A subnormal link makes uploads infinite; a huge setup latency
        // overflows only once the ladder divides it by a degraded rate.
        for (bandwidth, setup) in [(5e-324, 0.0), (18.88, 1e308)] {
            let starved = scenario.with_network(NetworkModel::new(bandwidth, setup));
            match engine.chaos(&starved, &ChaosConfig::default()) {
                Err(Error::Plan(PlanError::BadInput { .. })) => {}
                other => panic!("{bandwidth} Mbps, {setup} ms: expected BadInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_runs_its_grid_on_the_engine_pool() {
        // A width-1 pool runs every task on the caller, so the grid's
        // seven scenarios show up in this thread's pool-task count, and
        // the report reads the same at width 4.
        let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
        let config = ChaosConfig::default();
        mcdnn_obs::set_enabled(true);
        let serial = EngineConfig::new().threads(1).build();
        let before = mcdnn_obs::thread_counter_value("runtime.pool.tasks");
        let report = serial.chaos(&scenario, &config).unwrap();
        let tasks = mcdnn_obs::thread_counter_value("runtime.pool.tasks") - before;
        assert_eq!(tasks, 7, "one pool task per chaos scenario");
        let pooled = EngineConfig::new().threads(4).build();
        let wide = pooled.chaos(&scenario, &config).unwrap();
        assert_eq!(report.render(), wide.render());
    }

    #[test]
    fn engine_errors_are_unified() {
        let engine = EngineConfig::new().threads(1).build();
        let bad = SloConfig {
            overload: -1.0,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 2, &SloConfig::default());
        match engine.serve_slo(&tenants, &bad, SloPolicy::Fifo) {
            Err(Error::Admit(_)) => {}
            other => panic!("expected Error::Admit, got {other:?}"),
        }
    }

    #[test]
    fn serve_slo_rejects_tenant_ids_that_are_not_positions() {
        // The scheduler indexes shares, weights, frontiers and outcome
        // slots by tenant id, so ids must be the fleet positions.
        let engine = EngineConfig::new().threads(2).build();
        let config = SloConfig {
            requests_per_tenant: 4,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 6, &config);
        let with = |edit: fn(&mut [SloTenant])| {
            let mut fleet = tenants.clone();
            edit(&mut fleet);
            fleet
        };
        for (fleet, case) in [
            (with(|f| f[3].spec.id = 99), "out-of-range id"),
            (
                with(|f| {
                    f[1].spec.id = 4;
                    f[4].spec.id = 1;
                }),
                "swapped ids",
            ),
            (with(|f| f[5].spec.id = 2), "duplicated id"),
        ] {
            match engine.serve_slo(&fleet, &config, SloPolicy::EdfDegrade) {
                Err(Error::Admit(_)) => {}
                other => panic!("{case}: expected Error::Admit, got {other:?}"),
            }
            match engine.slo_streams(&fleet, &config) {
                Err(Error::Admit(_)) => {}
                other => panic!("{case}: streams expected Error::Admit, got {other:?}"),
            }
        }
        assert!(engine
            .serve_slo(&tenants, &config, SloPolicy::EdfDegrade)
            .is_ok());
    }

    #[test]
    fn out_of_range_serving_inputs_are_errors_not_pool_panics() {
        let engine = EngineConfig::new().threads(2).build();
        let bad_input = |r: Result<(), Error>, case: &str| match r {
            Err(Error::Plan(PlanError::BadInput { .. })) => {}
            other => panic!("{case}: expected Error::Plan(BadInput), got {other:?}"),
        };
        let serve = ServeConfig {
            bursts_per_user: 4,
            ..ServeConfig::default()
        };
        let specs = fleet(&profiles(), 2, &serve);
        let run = |specs: &[UserSpec], config: &ServeConfig| engine.serve(specs, config).map(drop);
        let equal_ends = ServeConfig {
            lo_mbps: 10.0,
            hi_mbps: 10.0,
            ..serve
        };
        bad_input(run(&specs, &equal_ends), "serve lo == hi");
        let unbounded = ServeConfig {
            hi_mbps: f64::INFINITY,
            ..serve
        };
        bad_input(run(&specs, &unbounded), "serve hi = inf");
        // Knobs no frontier compile sees: unchecked, a zero `target_hz`
        // or a NaN `rho_limit` panics inside the pool, and a
        // `degrade_prob` outside [0, 1] degrades every burst or none.
        let with = |edit: fn(&mut ServeConfig)| {
            let mut config = serve;
            edit(&mut config);
            config
        };
        for (bad, case) in [
            (with(|c| c.target_hz = 0.0), "target_hz = 0"),
            (with(|c| c.target_hz = f64::INFINITY), "target_hz = inf"),
            (with(|c| c.rho_limit = f64::NAN), "rho_limit = NaN"),
            (with(|c| c.degrade_prob = 2.0), "degrade_prob = 2"),
            (with(|c| c.degrade_prob = f64::NAN), "degrade_prob = NaN"),
        ] {
            bad_input(run(&specs, &bad), case);
        }
        let mut no_jobs = specs.clone();
        no_jobs[1].n_jobs = 0;
        bad_input(run(&no_jobs, &serve), "serve n_jobs = 0");
        let mut partition_only = specs.clone();
        partition_only[0].strategy = Strategy::PartitionOnly;
        bad_input(run(&partition_only, &serve), "serve PartitionOnly");

        let slo = SloConfig {
            requests_per_tenant: 4,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 2, &slo);
        let run = |tenants: &[SloTenant], config: &SloConfig| {
            engine
                .serve_slo(tenants, config, SloPolicy::EdfDegrade)
                .map(drop)
        };
        let unbounded = SloConfig {
            hi_mbps: f64::INFINITY,
            ..slo
        };
        bad_input(run(&tenants, &unbounded), "serve_slo hi = inf");
        let mut no_jobs = tenants.clone();
        no_jobs[0].spec.n_jobs = 0;
        bad_input(run(&no_jobs, &slo), "serve_slo n_jobs = 0");
    }

    #[test]
    fn drift_and_adaptation_settings_are_checked() {
        // An infinite jitter makes realized stages infinite, a faulted
        // burst's upload then starts at t = inf, and serving never
        // returned. A NaN jitter reported a 0 ms mean makespan.
        let engine = EngineConfig::new().threads(2).build();
        let serve = ServeConfig {
            bursts_per_user: 8,
            fault_every: 4,
            ..ServeConfig::default()
        };
        let mut specs = fleet(&profiles(), 3, &serve);
        for spec in &mut specs {
            spec.strategy = Strategy::JpsBestMix;
        }
        let slo = SloConfig {
            requests_per_tenant: 8,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 3, &slo);
        let drift = DriftSpec {
            device_walk: 0.1,
            link_walk: 0.05,
            ..DriftSpec::none()
        };
        let with_drift = |edit: fn(&mut DriftSpec)| {
            let mut bad = drift;
            edit(&mut bad);
            bad
        };
        for (drift, case) in [
            (with_drift(|d| d.jitter = f64::INFINITY), "jitter = inf"),
            (with_drift(|d| d.jitter = f64::NAN), "jitter = NaN"),
            (with_drift(|d| d.device_walk = 1.0), "device_walk = 1"),
            (with_drift(|d| d.cloud_walk = -0.1), "cloud_walk = -0.1"),
            (with_drift(|d| d.link_walk = 2.0), "link_walk = 2"),
        ] {
            let config = ServeConfig { drift, ..serve };
            match engine.serve(&specs, &config) {
                Err(Error::Plan(PlanError::BadInput { .. })) => {}
                other => panic!("serve {case}: expected BadInput, got {other:?}"),
            }
            let config = SloConfig { drift, ..slo };
            match engine.serve_slo(&tenants, &config, SloPolicy::EdfDegrade) {
                Err(Error::Admit(AdmitError::BadConfig { .. })) => {}
                other => panic!("serve_slo {case}: expected BadConfig, got {other:?}"),
            }
        }
        let config = ServeConfig {
            drift,
            adapt: Some(AdaptConfig::default()),
            ..serve
        };
        assert!(engine.serve(&specs, &config).is_ok());
    }

    #[test]
    fn a_vanishing_overload_is_a_config_error() {
        // The arrival gap `fleet_size * u_mid / overload` overflows to
        // inf, which printed NaN latencies and a 100% hit rate.
        let engine = EngineConfig::new().threads(2).build();
        let slo = SloConfig {
            requests_per_tenant: 20,
            ..SloConfig::default()
        };
        let tenants = slo_fleet(&profiles(), 4, &slo);
        for overload in [5e-324, 1e-306] {
            let config = SloConfig {
                overload,
                ..slo
            };
            for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
                match engine.serve_slo(&tenants, &config, policy) {
                    Err(Error::Admit(AdmitError::BadConfig { .. })) => {}
                    other => {
                        panic!("overload {overload} {policy}: expected BadConfig, got {other:?}")
                    }
                }
            }
        }
        assert!(engine.serve_slo(&tenants, &slo, SloPolicy::Fifo).is_ok());
    }
}
