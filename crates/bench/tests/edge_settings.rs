//! Every numeric setting the serving configs carry survives edge values
//! through the `Engine` front door.
//!
//! Each float field of [`ServeConfig`], [`SloConfig`], [`ChaosConfig`]
//! and [`DriftSpec`] (walks and jitter) is set to NaN, ±inf, −1, ±0,
//! the smallest subnormal, 1e-300, 1e300 and `f64::MAX` — one field at
//! a time, then two at once in seeded pairs — and driven through
//! `Engine::{serve, serve_slo, slo_streams, chaos}`, with and without
//! adaptation and a cloud pool. Every call must return `Ok` or a typed
//! [`mcdnn::Error`]: never panic, and finish within [`BOUND`] on a
//! helper thread. An `Ok` report must carry finite, non-negative
//! makespans and latencies: a setting that no check rejects must not
//! reach the report as inf or NaN.
//!
//! The integer settings that size work or threads stay small (engine
//! width 1–2; users, tenants, bursts, requests and jobs 0–3) and are
//! never drawn from the edge set: a huge width starts that many OS
//! threads, and a huge count allocates that many requests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use mcdnn::prelude::*;
use mcdnn_partition::RateProfile;
use mcdnn_rng::Rng;
use mcdnn_sim::{fleet, slo_fleet, DispatchMode, ServeConfig, SloConfig, SloPolicy};

/// The values every float setting is tried at.
const EDGES: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    0.0,
    -0.0,
    5e-324,
    1e-300,
    1e300,
    f64::MAX,
];

/// The longest one call may run before the test calls it a hang.
const BOUND: Duration = Duration::from_secs(10);

/// Seeded two-field cases per config type.
const PAIRS: usize = 150;

type Setter<C> = (&'static str, fn(&mut C, f64));

const SERVE_FIELDS: [Setter<ServeConfig>; 9] = [
    ("lo_mbps", |c, v| c.lo_mbps = v),
    ("hi_mbps", |c, v| c.hi_mbps = v),
    ("target_hz", |c, v| c.target_hz = v),
    ("rho_limit", |c, v| c.rho_limit = v),
    ("degrade_prob", |c, v| c.degrade_prob = v),
    ("drift.device_walk", |c, v| c.drift.device_walk = v),
    ("drift.cloud_walk", |c, v| c.drift.cloud_walk = v),
    ("drift.link_walk", |c, v| c.drift.link_walk = v),
    ("drift.jitter", |c, v| c.drift.jitter = v),
];

const SLO_FIELDS: [Setter<SloConfig>; 7] = [
    ("lo_mbps", |c, v| c.lo_mbps = v),
    ("hi_mbps", |c, v| c.hi_mbps = v),
    ("overload", |c, v| c.overload = v),
    ("drift.device_walk", |c, v| c.drift.device_walk = v),
    ("drift.cloud_walk", |c, v| c.drift.cloud_walk = v),
    ("drift.link_walk", |c, v| c.drift.link_walk = v),
    ("drift.jitter", |c, v| c.drift.jitter = v),
];

const CHAOS_FIELDS: [Setter<ChaosConfig>; 2] = [
    ("target_hz", |c, v| c.target_hz = v),
    ("rho_limit", |c, v| c.rho_limit = v),
];

/// Small profiles whose suffixes carry cloud compute, so a cloud pool
/// has something to contend over.
fn profiles() -> Vec<RateProfile> {
    vec![
        RateProfile::from_parts(
            "edge-a",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            Some(vec![9.0, 6.0, 3.0, 0.0]),
        )
        .unwrap(),
        RateProfile::from_parts(
            "edge-b",
            vec![0.0, 2.0, 9.0, 11.0, 15.0],
            vec![200_000, 90_000, 40_000, 10_000, 0],
            1.0,
            Some(vec![12.0, 10.0, 5.0, 2.0, 0.0]),
        )
        .unwrap(),
    ]
}

/// The small integer settings of one case: engine width, fleet size,
/// bursts or requests per user, jobs per burst.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    width: usize,
    users: usize,
    rounds: usize,
    jobs: usize,
}

impl Sizes {
    /// Full-size case `i`: width alternating 1–2, three of everything.
    fn full(i: usize) -> Sizes {
        Sizes {
            width: 1 + i % 2,
            users: 3,
            rounds: 3,
            jobs: 3,
        }
    }

    /// Seeded case: width 1–2, every count in 0–3.
    fn drawn(rng: &mut Rng) -> Sizes {
        Sizes {
            width: rng.gen_range(1usize..=2),
            users: rng.gen_range(0usize..=3),
            rounds: rng.gen_range(0usize..=3),
            jobs: rng.gen_range(0usize..=3),
        }
    }
}

/// The calls made so far, how many returned `Ok`, and a line per call
/// that broke the contract.
#[derive(Default)]
struct Tally {
    calls: usize,
    ok: usize,
    failures: Vec<String>,
}

impl Tally {
    /// Run `call` on a helper thread: it must return (`Ok` or a typed
    /// error) within [`BOUND`], without panicking.
    fn run(&mut self, case: String, call: impl FnOnce() -> Result<(), Error> + Send + 'static) {
        self.calls += 1;
        let (tx, rx) = mpsc::channel();
        let helper = thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(call)));
        });
        let Ok(outcome) = rx.recv_timeout(BOUND) else {
            // A hung call cannot be joined: its thread is left running
            // and the test fails.
            let hung = format!("{case}: no answer within {BOUND:?}");
            self.failures.push(hung);
            return;
        };
        helper.join().expect("the helper catches the call's panic");
        match outcome {
            Ok(result) => self.ok += usize::from(result.is_ok()),
            Err(payload) => {
                let why = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("?");
                self.failures.push(format!("{case}: panicked: {why}"));
            }
        }
    }
}

/// Panics (so the case fails) unless `v` is finite and `>= 0`.
fn sane(what: &str, v: f64) {
    assert!(v.is_finite() && v >= 0.0, "{what} = {v}");
}

fn serve_call(config: ServeConfig, sizes: Sizes) -> impl FnOnce() -> Result<(), Error> + Send {
    move || {
        let engine = EngineConfig::new().threads(sizes.width).build();
        let mut specs = fleet(&profiles(), sizes.users, &config);
        for spec in &mut specs {
            spec.n_jobs = sizes.jobs;
        }
        let report = engine.serve(&specs, &config)?;
        for u in &report.users {
            sane("serve mean makespan", u.mean_makespan_ms);
        }
        Ok(())
    }
}

/// An SLO call through `serve_slo`, or through `slo_streams` and one
/// indexed schedule.
fn slo_call(
    config: SloConfig,
    sizes: Sizes,
    streams: bool,
) -> impl FnOnce() -> Result<(), Error> + Send {
    move || {
        let engine = EngineConfig::new().threads(sizes.width).build();
        let mut tenants = slo_fleet(&profiles(), sizes.users, &config);
        for t in &mut tenants {
            t.spec.n_jobs = sizes.jobs;
        }
        let policy = SloPolicy::EdfDegrade;
        let report = if streams {
            let mut s = engine.slo_streams(&tenants, &config)?;
            s.schedule(&tenants, &config, policy, DispatchMode::Indexed)?
        } else {
            engine.serve_slo(&tenants, &config, policy)?
        };
        let r = &report;
        for v in [
            r.p50_latency_ms,
            r.p95_latency_ms,
            r.p99_latency_ms,
            r.cloud_busy_ms,
        ] {
            sane("slo latency or cloud time", v);
        }
        for t in &report.tenants {
            sane("slo tenant mean latency", t.mean_latency_ms);
        }
        assert!(
            (0.0..=1.0).contains(&report.hit_rate),
            "slo hit rate {}",
            report.hit_rate
        );
        Ok(())
    }
}

fn chaos_call(
    scenario: &Scenario,
    config: ChaosConfig,
    width: usize,
) -> impl FnOnce() -> Result<(), Error> + Send {
    let scenario = scenario.clone();
    move || {
        let engine = EngineConfig::new().threads(width).build();
        let report = engine.chaos(&scenario, &config)?;
        for r in &report.rows {
            sane("chaos total", r.total_ms);
        }
        sane("chaos drill makespan", report.drill.result.makespan_ms);
        Ok(())
    }
}

/// The serving variants: adaptation off and on, faulted bursts every
/// other burst.
fn serve_base(adapt: bool, sizes: Sizes) -> ServeConfig {
    ServeConfig {
        bursts_per_user: sizes.rounds,
        fault_every: 2,
        adapt: adapt.then(AdaptConfig::default),
        ..ServeConfig::default()
    }
}

/// The SLO variants: adaptation off and on, no cloud pool or two
/// servers with joint allocation.
fn slo_base(adapt: bool, cloud: bool, sizes: Sizes) -> SloConfig {
    SloConfig {
        requests_per_tenant: sizes.rounds,
        cloud_servers: if cloud { 2 } else { 0 },
        joint_alloc: cloud,
        adapt: adapt.then(AdaptConfig::default),
        ..SloConfig::default()
    }
}

fn chaos_base(sizes: Sizes) -> ChaosConfig {
    ChaosConfig {
        jobs_per_burst: sizes.jobs,
        bursts: sizes.rounds,
        ..ChaosConfig::default()
    }
}

/// Two distinct field indices and two edge values, drawn from `rng`.
fn draw_pair(rng: &mut Rng, fields: usize) -> [(usize, f64); 2] {
    let a = rng.gen_range(0..fields);
    let b = (a + rng.gen_range(1..fields)) % fields;
    let va = EDGES[rng.gen_range(0..EDGES.len())];
    let vb = EDGES[rng.gen_range(0..EDGES.len())];
    [(a, va), (b, vb)]
}

#[test]
fn every_setting_survives_edge_values_through_the_engine() {
    let mut tally = Tally::default();
    let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());

    for (f, (name, set)) in SERVE_FIELDS.iter().enumerate() {
        for (e, &v) in EDGES.iter().enumerate() {
            for adapt in [false, true] {
                let sizes = Sizes::full(f + e);
                let mut config = serve_base(adapt, sizes);
                set(&mut config, v);
                let case = format!("serve {name} = {v:e}, adapt {adapt}");
                tally.run(case, serve_call(config, sizes));
            }
        }
    }
    for (f, (name, set)) in SLO_FIELDS.iter().enumerate() {
        for (e, &v) in EDGES.iter().enumerate() {
            for (adapt, cloud) in [(false, false), (true, false), (false, true), (true, true)] {
                // Each entry point sees adaptation and the pool on and off.
                let streams = adapt != cloud;
                let sizes = Sizes::full(f + e + usize::from(adapt));
                let mut config = slo_base(adapt, cloud, sizes);
                set(&mut config, v);
                let case =
                    format!("slo {name} = {v:e}, adapt {adapt}, cloud {cloud}, streams {streams}");
                tally.run(case, slo_call(config, sizes, streams));
            }
        }
    }
    for (name, set) in &CHAOS_FIELDS {
        for (e, &v) in EDGES.iter().enumerate() {
            let sizes = Sizes::full(e);
            let mut config = chaos_base(sizes);
            set(&mut config, v);
            let case = format!("chaos {name} = {v:e}");
            tally.run(case, chaos_call(&scenario, config, sizes.width));
        }
    }

    let mut rng = Rng::seed_from_u64(0xED6E);
    for _ in 0..PAIRS {
        let (sizes, adapt) = (Sizes::drawn(&mut rng), rng.gen_bool(0.5));
        let mut config = serve_base(adapt, sizes);
        let pair = draw_pair(&mut rng, SERVE_FIELDS.len());
        for &(f, v) in &pair {
            (SERVE_FIELDS[f].1)(&mut config, v);
        }
        let case = format!("serve pair {pair:?} {sizes:?}, adapt {adapt}");
        tally.run(case, serve_call(config, sizes));
    }
    for _ in 0..PAIRS {
        let sizes = Sizes::drawn(&mut rng);
        let (adapt, cloud, streams) = (rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_bool(0.5));
        let mut config = slo_base(adapt, cloud, sizes);
        let pair = draw_pair(&mut rng, SLO_FIELDS.len());
        for &(f, v) in &pair {
            (SLO_FIELDS[f].1)(&mut config, v);
        }
        let case =
            format!("slo pair {pair:?} {sizes:?}, adapt {adapt}, cloud {cloud}, streams {streams}");
        tally.run(case, slo_call(config, sizes, streams));
    }
    for _ in 0..PAIRS {
        let sizes = Sizes::drawn(&mut rng);
        let mut config = chaos_base(sizes);
        let pair = draw_pair(&mut rng, CHAOS_FIELDS.len());
        for &(f, v) in &pair {
            (CHAOS_FIELDS[f].1)(&mut config, v);
        }
        let case = format!("chaos pair {pair:?} {sizes:?}");
        tally.run(case, chaos_call(&scenario, config, sizes.width));
    }

    let Tally {
        calls,
        ok,
        failures,
    } = tally;
    assert!(
        failures.is_empty(),
        "{} of {calls} calls failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The edge values must not all be rejected up front: the base
    // configs and the harmless edges (±0 drift, say) reach the loops.
    assert!(ok > calls / 10, "only {ok} of {calls} calls returned Ok");
}
