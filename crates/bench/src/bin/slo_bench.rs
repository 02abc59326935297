//! SLO admission-control benchmark: deadline hit-rate of the
//! EDF + degradation-ladder scheduler against the FIFO baseline on the
//! same seeded tenant fleet, driven to 2x offered uplink load. Writes
//! `BENCH_slo.json` at the repo root.
//!
//! What it measures:
//!
//! 1. **Headline comparison at 2x overload** — both queue disciplines
//!    over an identical request stream: deadline hit-rate, shed/degrade
//!    accounting and exact latency percentiles. EDF with the ladder
//!    must beat FIFO's hit-rate (asserted as `hit_rate_improved`) and
//!    its p99 admitted latency (`p99_improved`) — FIFO queues
//!    unboundedly, so under overload its tail grows without bound
//!    while EDF sheds what cannot fit and degrades what barely can.
//! 2. **Pooled/serial equivalence** — the pooled run (8-worker
//!    [`WorkerPool`], shared [`PlanCache`]) must be **bit-identical**
//!    to the serial reference for both policies
//!    (`pooled_bit_identical`): virtual time makes the scheduler
//!    deterministic at any thread count.
//! 3. **Overload sweep** — hit rates for both policies from an
//!    underloaded fleet (0.5x) to heavy saturation (4x), showing where
//!    admission control starts paying for itself.
//! 4. **Dispatch-path throughput sweep** — the indexed EDF/WFQ
//!    dispatcher (heaps + rung-pricing memo) against the linear-scan
//!    reference across queue depths (1x–16x overload) and fleet sizes,
//!    measured over the scheduling loop alone on one warm
//!    [`SloStreams`] per cell.
//!    Every cell must produce the **same outcome digest** in both
//!    modes (`dispatch_bit_identical`), and the deepest-queue cell must
//!    clear a ≥5x speedup (`dispatch_speedup_target_met`) with a warm
//!    pricing memo (`price_memo_hits_positive`).
//!
//! Every boolean flag in the JSON is asserted `true`, so a `false`
//! anywhere fails the run (CI also greps the JSON for `: false`).
//!
//! ```text
//! cargo run -p mcdnn-bench --release --bin slo_bench [-- --quick]
//! ```

use std::sync::Arc;
use std::time::Instant;

use mcdnn_bench::banner;
use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_partition::PlanCache;
use mcdnn_runtime::WorkerPool;
use mcdnn_sim::{
    serve_slo, serve_slo_serial, slo_fleet, DispatchMode, DispatchStats, SloConfig, SloPolicy,
    SloReport, SloStreams, SloTenant,
};

const POOL_WORKERS: usize = 8;

/// One cell of the dispatch-throughput sweep.
struct DispatchCell {
    tenants: usize,
    overload: f64,
    requests: u64,
    reference_rps: f64,
    indexed_rps: f64,
    speedup: f64,
    memo_hits: u64,
    heap_stale: u64,
    digest_match: bool,
}

/// Best-of-three scheduling-loop time for one dispatch mode, plus the
/// digest and the final run's stats. The streams are generated once
/// per cell and stay warm across the timed runs, so the loop is
/// measured without buffer churn.
fn time_mode(
    run: &mut SloStreams,
    fleet: &[SloTenant],
    config: &SloConfig,
    mode: DispatchMode,
) -> (u64, u64, DispatchStats) {
    let mut digest = 0u64;
    let mut best_ns = u64::MAX;
    let mut stats = run.stats();
    for _ in 0..3 {
        digest = run
            .digest(fleet, config, SloPolicy::EdfDegrade, mode)
            .expect("fleet serves");
        stats = run.stats();
        best_ns = best_ns.min(stats.schedule_ns.max(1));
    }
    (digest, best_ns, stats)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (tenants, requests) = if quick { (8, 80) } else { (24, 400) };

    banner(
        "SLO admission-control benchmark",
        "EDF + degradation ladder beats the FIFO deadline hit-rate under 2x overload",
    );

    let profiles = monotone_zoo_rate_profiles(SETUP_MS);
    let config = SloConfig {
        requests_per_tenant: requests,
        ..SloConfig::default()
    };
    let fleet = slo_fleet(&profiles, tenants, &config);
    println!(
        "fleet: {tenants} tenants x {requests} requests over {} zoo models, \
         {:.1}x offered uplink load",
        profiles.len(),
        config.overload,
    );

    // 1 + 2. Headline comparison, pooled against the serial reference.
    let pool = WorkerPool::new(POOL_WORKERS);
    let cache = Arc::new(PlanCache::new());
    let serial_cache = PlanCache::new();
    let started = Instant::now();
    let fifo = serve_slo(&pool, &cache, &fleet, &config, SloPolicy::Fifo).expect("fifo serves");
    let edf =
        serve_slo(&pool, &cache, &fleet, &config, SloPolicy::EdfDegrade).expect("edf serves");
    let pool_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    // Serial reference runs use the pre-overhaul linear-scan dispatcher,
    // so this equality spans both the worker pool AND the dispatch-mode
    // boundary: pooled-indexed must equal serial-reference byte for byte.
    let mut serial = SloStreams::default();
    serial
        .regenerate(&serial_cache, &fleet, &config)
        .expect("fleet generates");
    let fifo_serial = serial
        .schedule(&fleet, &config, SloPolicy::Fifo, DispatchMode::Reference)
        .expect("fifo serves");
    let edf_serial = serial
        .schedule(
            &fleet,
            &config,
            SloPolicy::EdfDegrade,
            DispatchMode::Reference,
        )
        .expect("edf serves");
    let pooled_bit_identical = fifo == fifo_serial && edf == edf_serial;
    let hit_rate_improved = edf.hit_rate > fifo.hit_rate;
    let p99_improved = edf.p99_latency_ms < fifo.p99_latency_ms;
    let gain_pts = (edf.hit_rate - fifo.hit_rate) * 100.0;

    for r in [&fifo, &edf] {
        println!(
            "  {}: hit rate {:.1}% ({}/{}), shed {} (queue {} / infeasible {}), \
             degraded {}, p50/p95/p99 {:.1}/{:.1}/{:.1} ms",
            r.policy,
            r.hit_rate * 100.0,
            r.deadline_hits,
            r.total_requests,
            r.shed_queue_full + r.shed_infeasible,
            r.shed_queue_full,
            r.shed_infeasible,
            r.degraded,
            r.p50_latency_ms,
            r.p95_latency_ms,
            r.p99_latency_ms,
        );
    }
    println!(
        "edf-degrade vs fifo: {gain_pts:+.1} pts hit rate, p99 {:.1} vs {:.1} ms; \
         pooled ({POOL_WORKERS} workers, {pool_wall_ms:.1} ms wall) bit-identical to serial: {}",
        edf.p99_latency_ms,
        fifo.p99_latency_ms,
        yn(pooled_bit_identical),
    );

    // 3. Overload sweep on the same fleet (arrival gaps rescale with
    // the offered load; the per-tenant streams stay seeded).
    let mut sweep = Vec::new();
    for overload in [0.5, 1.0, 2.0, 4.0] {
        let c = SloConfig {
            overload,
            ..config
        };
        let f = serve_slo_serial(&serial_cache, &fleet, &c, SloPolicy::Fifo).expect("fifo serves");
        let e = serve_slo_serial(&serial_cache, &fleet, &c, SloPolicy::EdfDegrade)
            .expect("edf serves");
        println!(
            "  {overload:.1}x load: fifo {:.1}% vs edf-degrade {:.1}%",
            f.hit_rate * 100.0,
            e.hit_rate * 100.0,
        );
        sweep.push((overload, f, e));
    }

    // 4. Dispatch-path throughput: indexed vs reference across queue
    // depths. Large max_queue so deep overload actually builds deep
    // queues instead of shedding at admission.
    let (sweep_tenants, sweep_overloads, sweep_requests, sweep_max_queue): (
        &[usize],
        &[f64],
        usize,
        usize,
    ) = if quick {
        (&[24, 128], &[1.0, 4.0, 16.0], 200, 4096)
    } else {
        (&[24, 96, 192], &[1.0, 2.0, 4.0, 8.0, 16.0], 200, 4096)
    };
    println!(
        "dispatch sweep: tenants {sweep_tenants:?} x overload {sweep_overloads:?}, \
         {sweep_requests} requests/tenant, max_queue {sweep_max_queue}"
    );
    let mut cells: Vec<DispatchCell> = Vec::new();
    let mut run = SloStreams::default();
    // Time the dispatch path itself, not the observability registry:
    // per-request observe calls cost the same in both modes and would
    // only compress the measured ratio.
    mcdnn_obs::set_enabled(false);
    for &t in sweep_tenants {
        for &overload in sweep_overloads {
            let c = SloConfig {
                overload,
                requests_per_tenant: sweep_requests,
                max_queue: sweep_max_queue,
                ..config
            };
            let f = slo_fleet(&profiles, t, &c);
            run.regenerate(&serial_cache, &f, &c)
                .expect("fleet generates");
            let (ref_digest, ref_ns, _) = time_mode(&mut run, &f, &c, DispatchMode::Reference);
            let (idx_digest, idx_ns, stats) = time_mode(&mut run, &f, &c, DispatchMode::Indexed);
            let requests = stats.requests;
            let cell = DispatchCell {
                tenants: t,
                overload,
                requests,
                reference_rps: requests as f64 / (ref_ns as f64 / 1e9),
                indexed_rps: requests as f64 / (idx_ns as f64 / 1e9),
                speedup: ref_ns as f64 / idx_ns as f64,
                memo_hits: stats.memo_hits,
                heap_stale: stats.heap_stale,
                digest_match: ref_digest == idx_digest,
            };
            println!(
                "  {t:3} tenants @ {overload:4.1}x: reference {:9.0} req/s, \
                 indexed {:9.0} req/s, speedup {:5.1}x, digests match: {}",
                cell.reference_rps,
                cell.indexed_rps,
                cell.speedup,
                yn(cell.digest_match),
            );
            cells.push(cell);
        }
    }
    mcdnn_obs::set_enabled(true);
    let deepest = cells.last().expect("sweep is non-empty");
    let dispatch_bit_identical = cells.iter().all(|c| c.digest_match);
    let dispatch_speedup_target_met = deepest.speedup >= 5.0;
    let price_memo_hits_positive = cells.iter().all(|c| c.memo_hits > 0);
    println!(
        "deepest cell ({} tenants @ {:.0}x): {:.1}x speedup (target >= 5x: {}), \
         memo hits {} / stale pops {}",
        deepest.tenants,
        deepest.overload,
        deepest.speedup,
        yn(dispatch_speedup_target_met),
        deepest.memo_hits,
        deepest.heap_stale,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_slo.json");
    let sweep_rows: Vec<String> = sweep
        .iter()
        .map(|(overload, f, e)| {
            format!(
                "    {{\"overload\": {overload:.1}, \"fifo_hit_rate\": {:.4}, \
                 \"edf_hit_rate\": {:.4}, \"edf_shed\": {}, \"edf_degraded\": {}}}",
                f.hit_rate,
                e.hit_rate,
                e.shed_queue_full + e.shed_infeasible,
                e.degraded,
            )
        })
        .collect();
    let cell_rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"tenants\": {}, \"overload\": {:.1}, \"requests\": {}, \
                 \"reference_rps\": {:.0}, \"indexed_rps\": {:.0}, \"speedup\": {:.2}, \
                 \"memo_hits\": {}, \"heap_stale\": {}, \"digest_match\": {}}}",
                c.tenants,
                c.overload,
                c.requests,
                c.reference_rps,
                c.indexed_rps,
                c.speedup,
                c.memo_hits,
                c.heap_stale,
                c.digest_match,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run -p mcdnn-bench --release --bin slo_bench{}\",\n  \
         \"tenants\": {tenants},\n  \"requests_per_tenant\": {requests},\n  \
         \"distinct_models\": {},\n  \"overload\": {:.1},\n  \
         \"fifo\": {},\n  \"edf_degrade\": {},\n  \
         \"hit_rate_improved\": {hit_rate_improved},\n  \
         \"hit_rate_gain_pts\": {gain_pts:.1},\n  \
         \"p99_improved\": {p99_improved},\n  \
         \"pool_workers\": {POOL_WORKERS},\n  \"pool_wall_ms\": {pool_wall_ms:.1},\n  \
         \"pooled_bit_identical\": {pooled_bit_identical},\n  \
         \"overload_sweep\": [\n{}\n  ],\n  \
         \"dispatch_sweep\": [\n{}\n  ],\n  \
         \"dispatch_deepest_speedup\": {:.2},\n  \
         \"dispatch_deepest_indexed_rps\": {:.0},\n  \
         \"dispatch_bit_identical\": {dispatch_bit_identical},\n  \
         \"dispatch_speedup_target_met\": {dispatch_speedup_target_met},\n  \
         \"price_memo_hits_positive\": {price_memo_hits_positive}\n}}\n",
        if quick { " -- --quick" } else { "" },
        profiles.len(),
        config.overload,
        policy_json(&fifo),
        policy_json(&edf),
        sweep_rows.join(",\n"),
        cell_rows.join(",\n"),
        deepest.speedup,
        deepest.indexed_rps,
    );
    std::fs::write(path, json).expect("write json");
    println!("wrote {path}");

    assert!(pooled_bit_identical, "pooled report diverged from serial");
    assert!(
        hit_rate_improved,
        "edf-degrade hit rate {:.4} did not beat fifo {:.4}",
        edf.hit_rate, fifo.hit_rate
    );
    assert!(
        p99_improved,
        "edf-degrade p99 {:.1} ms did not beat fifo {:.1} ms",
        edf.p99_latency_ms, fifo.p99_latency_ms
    );
    assert!(
        dispatch_bit_identical,
        "indexed dispatch diverged from the reference somewhere in the sweep"
    );
    assert!(
        dispatch_speedup_target_met,
        "deepest-queue speedup {:.2}x below the 5x target",
        deepest.speedup
    );
    assert!(price_memo_hits_positive, "pricing memo never hit");
}

fn policy_json(r: &SloReport) -> String {
    format!(
        "{{\"hit_rate\": {:.4}, \"total_requests\": {}, \"admitted\": {}, \
         \"shed_queue_full\": {}, \"shed_infeasible\": {}, \"degraded\": {}, \
         \"p50_latency_ms\": {:.1}, \"p95_latency_ms\": {:.1}, \"p99_latency_ms\": {:.1}, \
         \"digest\": \"{:#018x}\"}}",
        r.hit_rate,
        r.total_requests,
        r.admitted,
        r.shed_queue_full,
        r.shed_infeasible,
        r.degraded,
        r.p50_latency_ms,
        r.p95_latency_ms,
        r.p99_latency_ms,
        r.digest,
    )
}

fn yn(flag: bool) -> &'static str {
    if flag {
        "yes"
    } else {
        "NO"
    }
}
