//! Multi-tenant serving benchmark: cross-core throughput of the
//! serving engine (persistent worker pool + shared plan cache +
//! per-session arenas) on a mixed model-zoo fleet. Writes
//! `BENCH_serve.json` at the repo root.
//!
//! What it measures:
//!
//! 0. **Wall-clock jobs/sec** — the headline: the whole fleet through
//!    [`serve_fleet`] on the warm shared cache, on a fresh
//!    [`WorkerPool`] per width from 1 to `min(8, available_parallelism)`
//!    workers, best of 5 passes each (`wall_throughput`). A pass repeats
//!    the fleet until it spans at least 20 ms, so a fleet served in well
//!    under a millisecond is not timed by a handful of clock reads.
//!    Only widths the host can run are measured, so on a small host
//!    this shows what the pool delivers there, not the 8-way model
//!    below.
//! 1. **Per-user serving cost** — every user's full session (frontier
//!    fetch through the shared cache, ladder set-up, bursts through
//!    the warm arena) timed serially, best of three reps.
//! 2. **Aggregate jobs/sec at 1/2/4/8 workers** — computed from the
//!    measured per-user times with a critical-path model: users are
//!    placed LPT-first (longest processing time on the least-loaded
//!    worker, the classic list-scheduling bound) and the throughput at
//!    `W` workers is `total_jobs / max worker load`. Sessions share no
//!    mutable state and the steady-state path takes no locks and
//!    performs no allocations (both proven by tests), so the critical
//!    path is the wall clock an unloaded W-core machine approaches.
//!    The model is used because CI runners (and this container) do not
//!    have 8 free cores — a wall-clock 8-way measurement on one core
//!    can only show contention, not scaling. The real pool run below
//!    keeps the model honest on correctness.
//! 3. **Real pool execution** — the same fleet through an actual
//!    8-worker [`WorkerPool`] with a fresh cache; its report must be
//!    **bit-identical** to the serial reference (asserted).
//! 4. **Cache behaviour** — cold and steady-state hit rates of the
//!    shared [`PlanCache`] across fleet passes; steady state must be
//!    100% hits.
//! 5. **Observability cost** — the fleet served serially with recording
//!    on and off in interleaved pairs of timed passes, the order
//!    alternating from pair to pair; `obs_overhead_pct` is the median of
//!    the pairs' on/off time ratios, less one, and must stay within the
//!    3% budget (`obs_budget_met`).
//!
//! Every boolean flag in the JSON is asserted `true`, so a `false`
//! anywhere fails the run (CI also greps the JSON for `: false`).
//!
//! ```text
//! cargo run -p mcdnn-bench --release --bin serve_bench [-- --quick]
//! ```

use std::sync::Arc;
use std::time::Instant;

use mcdnn_bench::banner;
use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_partition::PlanCache;
use mcdnn_runtime::WorkerPool;
use mcdnn_sim::{fleet, run_user, serve_fleet, serve_fleet_serial, ServeConfig};

/// Aggregate 8-worker vs 1-worker throughput ratio the run must show.
const SCALING_TARGET: f64 = 4.0;
const POOL_WORKERS: usize = 8;
/// Timed fleet passes per pool width; the fastest one counts.
const WALL_PASSES: usize = 5;
/// Shortest wall time of one timed pass: a pass repeats the fleet until
/// it has run this long.
const MIN_PASS_SECS: f64 = 0.020;
/// Interleaved obs-on/obs-off pass pairs behind `obs_overhead_pct`.
const OBS_PAIRS: usize = 31;
/// What leaving observability on may cost a serving pass, percent.
const OBS_BUDGET_PCT: f64 = 3.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (users, bursts) = if quick { (16, 120) } else { (64, 600) };

    banner(
        "Multi-tenant serving benchmark",
        "shared-infrastructure serving scales across cores: >= 4x jobs/sec at 8 workers",
    );

    let profiles = monotone_zoo_rate_profiles(SETUP_MS);
    let config = ServeConfig {
        bursts_per_user: bursts,
        fault_every: 16,
        degrade_prob: 0.05,
        ..ServeConfig::default()
    };
    let specs = fleet(&profiles, users, &config);
    println!(
        "fleet: {users} users x {bursts} bursts over {} zoo models",
        profiles.len()
    );

    // 4. Cache behaviour: cold pass then steady-state pass on one
    // shared cache, hit/miss deltas from the obs counters.
    mcdnn_obs::set_enabled(true);
    let shared_cache = Arc::new(PlanCache::new());
    let (hit0, miss0) = cache_counters();
    let reference = serve_fleet_serial(&shared_cache, &specs, &config).expect("fleet serves");
    let (hit1, miss1) = cache_counters();
    let steady = serve_fleet_serial(&shared_cache, &specs, &config).expect("fleet serves");
    let (hit2, miss2) = cache_counters();
    assert_eq!(reference, steady, "serving is deterministic");
    let cold_hit_rate = rate(hit1 - hit0, miss1 - miss0);
    let steady_hit_rate = rate(hit2 - hit1, miss2 - miss1);
    let steady_state_all_hits = miss2 == miss1;
    println!(
        "cache: cold hit rate {:.2}, steady-state hit rate {:.2} ({} entries)",
        cold_hit_rate,
        steady_hit_rate,
        shared_cache.len(),
    );

    // 0. Wall-clock jobs/sec of the real pool on the warm shared cache
    // — timing runs with observability off.
    mcdnn_obs::set_enabled(false);
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut wall_rows = Vec::new();
    for w in 1..=available_parallelism.min(POOL_WORKERS) {
        let pool = WorkerPool::new(w);
        let mut best = f64::INFINITY;
        for _pass in 0..WALL_PASSES {
            let mut report = None;
            best = best.min(timed_pass(|| {
                report = Some(serve_fleet(&pool, &shared_cache, &specs, &config));
            }));
            let report = report
                .expect("a pass serves the fleet")
                .expect("fleet serves");
            assert_eq!(report, reference, "pooled pass diverged");
        }
        let jps = reference.total_jobs as f64 / best;
        println!("  {w} worker(s): {jps:.0} jobs/sec (wall clock, best of {WALL_PASSES})");
        wall_rows.push((w, jps));
    }

    // 5. What recording costs: interleaved serial passes with obs on
    // and off, alternating which goes first.
    let serial_pass = |obs: bool| {
        mcdnn_obs::set_enabled(obs);
        timed_pass(|| {
            std::hint::black_box(serve_fleet_serial(&shared_cache, &specs, &config).ok());
        })
    };
    let mut ratios: Vec<f64> = (0..OBS_PAIRS)
        .map(|pair| {
            let (on, off) = if pair % 2 == 0 {
                let on = serial_pass(true);
                (on, serial_pass(false))
            } else {
                let off = serial_pass(false);
                (serial_pass(true), off)
            };
            on / off
        })
        .collect();
    mcdnn_obs::set_enabled(false);
    ratios.sort_by(f64::total_cmp);
    let obs_overhead_pct = (ratios[OBS_PAIRS / 2] - 1.0) * 100.0;
    let obs_budget_met = obs_overhead_pct <= OBS_BUDGET_PCT;
    println!(
        "obs: {obs_overhead_pct:+.2}% serial pass time with recording on \
         (median of {OBS_PAIRS} interleaved pairs; budget {OBS_BUDGET_PCT:.0}%)"
    );

    // 1. Per-user serial cost on the warm shared cache.
    let mut user_secs = vec![f64::INFINITY; specs.len()];
    for _rep in 0..3 {
        for (i, spec) in specs.iter().enumerate() {
            let started = Instant::now();
            let summary = run_user(&shared_cache, spec, &config).expect("user serves");
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(summary, reference.users[i], "rep diverged");
            if elapsed < user_secs[i] {
                user_secs[i] = elapsed;
            }
        }
    }
    let serial_secs: f64 = user_secs.iter().sum();
    let total_jobs = reference.total_jobs;

    // 2. Critical-path throughput at 1/2/4/8 workers (LPT placement).
    let mut by_cost: Vec<usize> = (0..specs.len()).collect();
    by_cost.sort_by(|&a, &b| user_secs[b].total_cmp(&user_secs[a]));
    let mut rows = Vec::new();
    let jps_at = |w: usize| -> f64 {
        let mut loads = vec![0.0f64; w];
        for &u in &by_cost {
            let min = (0..w)
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
                .expect("w >= 1");
            loads[min] += user_secs[u];
        }
        let critical = loads.iter().cloned().fold(0.0f64, f64::max);
        total_jobs as f64 / critical
    };
    for w in [1usize, 2, 4, 8] {
        let jps = jps_at(w);
        println!("  {w} worker(s): {:.0} jobs/sec (critical path)", jps);
        rows.push((w, jps));
    }
    let scaling_factor = rows[3].1 / rows[0].1;
    let scaling_target_met = scaling_factor >= SCALING_TARGET;
    println!(
        "scaling: {scaling_factor:.2}x jobs/sec at 8 workers vs 1 (target >= {SCALING_TARGET:.1}x)"
    );

    // 3. Real pool execution: fresh cache, 8 workers, wall
    // clock reported, report bit-compared against the serial reference.
    let pool = WorkerPool::new(POOL_WORKERS);
    let pool_cache = Arc::new(PlanCache::new());
    let started = Instant::now();
    let pooled = serve_fleet(&pool, &pool_cache, &specs, &config).expect("fleet serves");
    let pool_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let pool_bit_identical = pooled == reference;
    println!(
        "pool: {POOL_WORKERS} workers served {} bursts in {pool_wall_ms:.1} ms wall \
         (serial reference {:.1} ms), bit-identical: {}",
        pooled.total_bursts,
        serial_secs * 1e3,
        yn(pool_bit_identical),
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let json_rows = |rows: &[(usize, f64)]| -> String {
        let rows: Vec<String> = rows
            .iter()
            .map(|(w, jps)| format!("    {{\"workers\": {w}, \"jobs_per_sec\": {jps:.0}}}"))
            .collect();
        rows.join(",\n")
    };
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run -p mcdnn-bench --release --bin serve_bench{}\",\n  \
         \"scaling_model\": \"critical-path over measured per-user serial times: jobs/sec(W) = total_jobs / max worker load under LPT placement; sessions share no mutable state and the steady-state path is lock- and allocation-free (proven by the alloc/equivalence tests), so the critical path is the wall clock an unloaded W-core machine approaches. Computed this way because single-core CI runners cannot demonstrate an 8-way wall-clock speedup; the real 8-worker pool run executes regardless and must be bit-identical to the serial reference.\",\n  \
         \"users\": {users},\n  \"bursts_per_user\": {bursts},\n  \"distinct_models\": {},\n  \
         \"total_bursts\": {},\n  \"total_jobs\": {total_jobs},\n  \
         \"faulted_bursts\": {},\n  \"degraded_bursts\": {},\n  \
         \"available_parallelism\": {available_parallelism},\n  \
         \"wall_throughput\": [\n{}\n  ],\n  \
         \"obs_overhead_pct\": {obs_overhead_pct:.2},\n  \"obs_budget_pct\": {OBS_BUDGET_PCT:.1},\n  \
         \"obs_budget_met\": {obs_budget_met},\n  \
         \"serial_secs\": {serial_secs:.4},\n  \
         \"throughput\": [\n{}\n  ],\n  \
         \"scaling_factor_8v1\": {scaling_factor:.2},\n  \"scaling_target\": {SCALING_TARGET:.1},\n  \
         \"scaling_target_met\": {scaling_target_met},\n  \
         \"pool_workers\": {POOL_WORKERS},\n  \"pool_wall_ms\": {pool_wall_ms:.1},\n  \
         \"pool_bit_identical\": {pool_bit_identical},\n  \
         \"cache_entries\": {},\n  \
         \"cache_cold_hit_rate\": {cold_hit_rate:.4},\n  \"cache_steady_hit_rate\": {steady_hit_rate:.4},\n  \
         \"steady_state_all_hits\": {steady_state_all_hits},\n  \
         \"fleet_digest\": \"{:#018x}\"\n}}\n",
        if quick { " -- --quick" } else { "" },
        profiles.len(),
        reference.total_bursts,
        reference.total_faulted_bursts,
        reference.total_degraded_bursts,
        json_rows(&wall_rows),
        json_rows(&rows),
        shared_cache.len(),
        reference.fleet_digest,
    );
    std::fs::write(path, json).expect("write json");
    println!("wrote {path}");

    assert!(pool_bit_identical, "pooled report diverged from serial");
    assert!(
        obs_budget_met,
        "recording costs {obs_overhead_pct:.2}% of a serving pass, over the {OBS_BUDGET_PCT:.0}% budget"
    );
    assert!(steady_state_all_hits, "steady-state pass missed the cache");
    assert!(
        scaling_target_met,
        "aggregate jobs/sec scaling {scaling_factor:.2}x below the {SCALING_TARGET:.1}x target"
    );
}

/// Seconds per call of `fleet_once`, timed over as many calls as fit
/// in [`MIN_PASS_SECS`] (at least one).
fn timed_pass(mut fleet_once: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    loop {
        fleet_once();
        calls += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= MIN_PASS_SECS {
            return elapsed / f64::from(calls);
        }
    }
}

fn cache_counters() -> (u64, u64) {
    (
        mcdnn_obs::counter_value("frontier.cache.hit"),
        mcdnn_obs::counter_value("frontier.cache.miss"),
    )
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn yn(flag: bool) -> &'static str {
    if flag {
        "yes"
    } else {
        "NO"
    }
}
