//! Bandwidth-frontier + DES-arena benchmark.
//!
//! Measures the four perf claims of the frontier subsystem and writes
//! them to `BENCH_frontier.json` at the repo root:
//!
//! 1. **Compile cost** — one [`RateFrontier::compile`] pass for a real
//!    zoo model, its probe count against a budget, plus the per-lookup
//!    cost of `decide_at` afterwards.
//! 2. **Exactness** — `audit_against_planner` over a dense sweep must
//!    report zero mismatches (bit-identical plans, ties excepted).
//! 3. **Online replanning** — a bandwidth trace replanned per burst
//!    with the direct `Strategy::plan` path vs compile-once +
//!    `decide_at`, decisions cross-checked burst by burst.
//! 4. **DES throughput** — one-shot [`simulate`] (fresh buffers per
//!    schedule) vs a warm [`DesArena`], makespans bit-compared.
//!
//! Every equivalence flag is asserted, so a `false` anywhere fails the
//! run (CI greps the JSON for `: false` as a second line of defence).
//!
//! ```text
//! cargo run -p mcdnn-bench --release --bin frontier_bench [-- --quick]
//! ```
//!
//! `--quick` shrinks the workloads for CI smoke runs; the asserted
//! flags (equivalence everywhere, steady-state online speedup >= 10x)
//! are identical in both modes. The committed JSON comes from the full
//! run.

use std::time::Instant;

use mcdnn_bench::banner;
use mcdnn_bench::workload::{ModelWorkload, SETUP_MS};
use mcdnn_flowshop::FlowJob;
use mcdnn_models::Model;
use mcdnn_partition::{CutMix, RateFrontier, Strategy};
use mcdnn_sim::{simulate, DesArena, DesConfig};

const N_JOBS: usize = 8;
const LO_MBPS: f64 = 1.0;
const HI_MBPS: f64 = 100.0;

/// Steady-state online replanning speedup the run must demonstrate.
const ONLINE_SPEEDUP_TARGET: f64 = 10.0;
/// Planner probes the AlexNet compile may make: a fifth of the 2,636
/// the lattice-and-audit compile made.
const COMPILE_PROBE_BUDGET: u64 = 527;

struct Sizes {
    bursts: usize,
    lookups: usize,
    audit_samples: usize,
    des_schedules: usize,
    des_jobs: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = if quick {
        Sizes {
            bursts: 2_000,
            lookups: 50_000,
            audit_samples: 500,
            des_schedules: 10_000,
            des_jobs: 16,
        }
    } else {
        Sizes {
            bursts: 10_000,
            lookups: 200_000,
            audit_samples: 2_000,
            des_schedules: 100_000,
            des_jobs: 16,
        }
    };
    // Timing must not pay for span/counter recording.
    mcdnn_obs::set_enabled(false);
    banner(
        "Bandwidth-frontier benchmark",
        "compile once, decide in O(log B): >= 10x over per-burst replanning",
    );

    let workload = ModelWorkload::zoo(Model::AlexNet, SETUP_MS).expect("alexnet line view");

    // 1. Compile cost + lookup cost + exactness audit.
    let rate = workload.rate_profile();
    let started = Instant::now();
    let frontier = RateFrontier::compile(&rate, Strategy::JpsBestMix, N_JOBS, LO_MBPS, HI_MBPS)
        .expect("clustered alexnet profile is monotone");
    let compile_ms = started.elapsed().as_secs_f64() * 1e3;
    // The same compile again, untimed, with recording on to count probes.
    mcdnn_obs::set_enabled(true);
    let probes0 = mcdnn_obs::thread_counter_value("frontier.compile_probes");
    RateFrontier::compile(&rate, Strategy::JpsBestMix, N_JOBS, LO_MBPS, HI_MBPS)
        .expect("clustered alexnet profile is monotone");
    let compile_probes = mcdnn_obs::thread_counter_value("frontier.compile_probes") - probes0;
    mcdnn_obs::set_enabled(false);
    let probe_budget_met = compile_probes <= COMPILE_PROBE_BUDGET;

    let started = Instant::now();
    let mut checksum = 0.0f64;
    for i in 0..sizes.lookups {
        let b = bandwidth_at(i);
        checksum += frontier.decide_at(b).makespan_ms;
    }
    let lookup_ns = started.elapsed().as_nanos() as f64 / sizes.lookups as f64;
    assert!(checksum > 0.0);

    let plan_equivalent = frontier.audit_against_planner(sizes.audit_samples) == 0;
    println!(
        "frontier: {} pieces over [{LO_MBPS}, {HI_MBPS}] Mbps, compiled in {compile_ms:.2} ms \
         with {compile_probes} probes (budget {COMPILE_PROBE_BUDGET}: {}), \
         {lookup_ns:.0} ns/lookup, planner-equivalent on {} samples: {}",
        frontier.num_pieces(),
        yn(probe_budget_met),
        sizes.audit_samples,
        yn(plan_equivalent),
    );

    // 2. Online replanning. The baseline is the work a replanner
    // without a frontier does on every burst: evaluate the believed
    // profile, plan, then evaluate the realized profile and price the
    // cuts through a materialized plan. The frontier side replays the
    // same bursts with `decide_at` + kernel pricing; its one-time
    // compile is timed separately so both the amortized and the
    // steady-state (cache-hit) speedup are reported.
    let trace: Vec<f64> = (0..sizes.bursts).map(bandwidth_at).collect();
    let started = Instant::now();
    let mut direct_plans = Vec::with_capacity(trace.len());
    for &b in &trace {
        let believed = workload.cost_profile_at(b);
        let plan = Strategy::JpsBestMix.plan(&believed, N_JOBS);
        let realized = workload.cost_profile_at(b * 1.05);
        let paid =
            mcdnn_partition::Plan::from_cuts(Strategy::JpsBestMix, &realized, plan.cuts.clone());
        std::hint::black_box(paid.makespan_ms);
        direct_plans.push(plan);
    }
    let direct_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let online_rate = workload.rate_profile();
    let online_frontier =
        RateFrontier::compile(&online_rate, Strategy::JpsBestMix, N_JOBS, LO_MBPS, HI_MBPS)
            .expect("clustered alexnet profile is monotone");
    let online_compile_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let mut mixes: Vec<CutMix> = Vec::with_capacity(trace.len());
    for &b in &trace {
        let mix = online_frontier.decide_at(b).mix;
        let paid = online_frontier.profile().mix_makespan(N_JOBS, mix, b * 1.05);
        std::hint::black_box(paid);
        mixes.push(mix);
    }
    let decide_ms = started.elapsed().as_secs_f64() * 1e3;

    let online_speedup = direct_ms / decide_ms;
    let online_speedup_amortized = direct_ms / (online_compile_ms + decide_ms);
    let online_equivalent = direct_plans.iter().zip(&mixes).zip(&trace).all(|((p, m), &b)| {
        p.cuts == m.cuts(N_JOBS) || {
            // A breakpoint tie: equal makespans, different but equally
            // optimal cut vectors.
            let kernel = online_frontier.profile().mix_makespan(N_JOBS, *m, b);
            (kernel - p.makespan_ms).abs() <= 1e-9 * p.makespan_ms.abs().max(1.0)
        }
    });
    println!(
        "online: {} bursts, direct {direct_ms:.1} ms vs decide {decide_ms:.1} ms \
         -> {online_speedup:.1}x steady-state ({online_speedup_amortized:.1}x with the \
         {online_compile_ms:.1} ms compile amortized in), decisions equivalent: {}",
        trace.len(),
        yn(online_equivalent),
    );

    // 3. DES throughput: one-shot buffers vs a warm arena, on the
    // burst-sized schedules the chaos/robustness sweeps actually run
    // (small enough that buffer churn is a real fraction of the work).
    // Best of three reps per side to shake scheduler noise out.
    let jobs: Vec<FlowJob> = (0..sizes.des_jobs)
        .map(|i| FlowJob::two_stage(i, 3.0 + (i % 5) as f64, 8.0 - (i % 6) as f64))
        .collect();
    let order: Vec<usize> = (0..jobs.len()).collect();
    let config = |seed: u64| DesConfig {
        uplink_channels: 2,
        cloud_slots: 1,
        jitter_frac: 0.1,
        seed,
        ..DesConfig::default()
    };
    let mut one_shot: Vec<f64> = Vec::new();
    let mut one_shot_s = f64::INFINITY;
    for rep in 0..3 {
        let started = Instant::now();
        let res: Vec<f64> = (0..sizes.des_schedules)
            .map(|i| simulate(&jobs, &order, &config(i as u64)).makespan_ms)
            .collect();
        one_shot_s = one_shot_s.min(started.elapsed().as_secs_f64());
        if rep == 0 {
            one_shot = res;
        }
    }

    let mut arena = DesArena::new();
    let mut warm: Vec<f64> = Vec::new();
    let mut warm_s = f64::INFINITY;
    for rep in 0..3 {
        let started = Instant::now();
        let res: Vec<f64> = (0..sizes.des_schedules)
            .map(|i| arena.simulate(&jobs, &order, &config(i as u64)))
            .collect();
        warm_s = warm_s.min(started.elapsed().as_secs_f64());
        if rep == 0 {
            warm = res;
        }
    }

    let total_jobs = (sizes.des_schedules * sizes.des_jobs) as f64;
    let one_shot_jps = total_jobs / one_shot_s;
    let warm_jps = total_jobs / warm_s;
    let des_bit_exact = one_shot == warm;
    println!(
        "des: {} schedules x {} jobs, one-shot {:.2} Mjobs/s vs warm arena {:.2} Mjobs/s \
         ({:.2}x), bit-exact: {}",
        sizes.des_schedules,
        sizes.des_jobs,
        one_shot_jps / 1e6,
        warm_jps / 1e6,
        warm_jps / one_shot_jps,
        yn(des_bit_exact),
    );

    let online_target_met = online_speedup >= ONLINE_SPEEDUP_TARGET;
    println!(
        "\nsteady-state online speedup >= {ONLINE_SPEEDUP_TARGET:.1}x: {}",
        yn(online_target_met),
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontier.json");
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run -p mcdnn-bench --release --bin frontier_bench{}\",\n  \
         \"model\": \"alexnet\",\n  \"n_jobs\": {N_JOBS},\n  \"bandwidth_range_mbps\": [{LO_MBPS}, {HI_MBPS}],\n  \
         \"frontier_pieces\": {},\n  \"compile_ms\": {compile_ms:.3},\n  \"compile_probes\": {compile_probes},\n  \
         \"compile_probe_budget\": {COMPILE_PROBE_BUDGET},\n  \"compile_probe_budget_met\": {probe_budget_met},\n  \
         \"lookup_ns\": {lookup_ns:.0},\n  \
         \"plan_equivalent\": {plan_equivalent},\n  \
         \"online_bursts\": {},\n  \"online_direct_ms\": {direct_ms:.1},\n  \"online_compile_ms\": {online_compile_ms:.1},\n  \
         \"online_decide_ms\": {decide_ms:.1},\n  \
         \"online_speedup\": {online_speedup:.1},\n  \"online_speedup_amortized\": {online_speedup_amortized:.1},\n  \
         \"online_speedup_target\": {ONLINE_SPEEDUP_TARGET:.1},\n  \
         \"online_speedup_target_met\": {online_target_met},\n  \"online_decisions_equivalent\": {online_equivalent},\n  \
         \"des_schedules\": {},\n  \"des_jobs_per_schedule\": {},\n  \
         \"des_one_shot_jobs_per_sec\": {one_shot_jps:.0},\n  \"des_warm_arena_jobs_per_sec\": {warm_jps:.0},\n  \
         \"des_bit_exact\": {des_bit_exact}\n}}\n",
        if quick { " -- --quick" } else { "" },
        frontier.num_pieces(),
        trace.len(),
        sizes.des_schedules,
        sizes.des_jobs,
    );
    std::fs::write(path, json).expect("write json");
    println!("wrote {path}");

    assert!(plan_equivalent, "frontier diverged from the planner");
    assert!(
        probe_budget_met,
        "compile made {compile_probes} probes, over the {COMPILE_PROBE_BUDGET} budget"
    );
    assert!(online_equivalent, "online decisions diverged");
    assert!(des_bit_exact, "warm arena diverged from one-shot DES");
    assert!(
        online_target_met,
        "steady-state online replanning speedup {online_speedup:.1}x below the \
         {ONLINE_SPEEDUP_TARGET:.1}x target"
    );
}

/// Deterministic bandwidth trace point: a sine-modulated walk through
/// the compiled range (no RNG — benches must be reproducible).
fn bandwidth_at(i: usize) -> f64 {
    let mid = (LO_MBPS * HI_MBPS).sqrt();
    (mid * (1.0 + 0.9 * (i as f64 * 0.37).sin())).clamp(LO_MBPS + 0.01, HI_MBPS - 0.01)
}

fn yn(flag: bool) -> &'static str {
    if flag {
        "yes"
    } else {
        "NO"
    }
}
