//! Joint cut/cloud-share allocation benchmark: deadline hit-rate of
//! the joint allocator against contention-oblivious frontier cuts on
//! the same seeded tenant fleet, across cloud pool sizes. Writes
//! `BENCH_joint.json` at the repo root.
//!
//! What it measures:
//!
//! 1. **Contention sweep** — for each pool size C ∈ {1, 2, 4, 8}, the
//!    EdfDegrade scheduler runs the identical request stream twice:
//!    contention-oblivious (every tenant keeps its frontier cut, the
//!    pool splits equally) and joint (`joint_allocate` water-filling +
//!    best-response shares, per-request best-response Normal-rung
//!    cuts). Joint must beat the oblivious hit rate at two or more
//!    contention levels (`joint_beats_at_two_levels`) and must move
//!    real cuts while doing it (`joint_moves_cuts`).
//! 2. **Pooled/serial equivalence** — the pooled joint run (8-worker
//!    [`WorkerPool`], shared [`PlanCache`]) must be **bit-identical**
//!    to the serial reference (`pooled_bit_identical`):
//!    shares derive purely from the generated streams, so virtual time
//!    stays deterministic at any thread count.
//! 3. **Overload sweep at C = 2** — oblivious vs joint hit rate from
//!    an underloaded fleet (0.5x) to heavy saturation (4x), showing
//!    that the allocator's edge survives across load regimes.
//!
//! Every boolean flag in the JSON is asserted `true`, so a `false`
//! anywhere fails the run (CI also greps the JSON for `: false`).
//!
//! ```text
//! cargo run -p mcdnn-bench --release --bin joint_bench [-- --quick]
//! ```

use std::sync::Arc;
use std::time::Instant;

use mcdnn_bench::banner;
use mcdnn_bench::workload::{monotone_zoo_cloud_rate_profiles, SETUP_MS};
use mcdnn_partition::PlanCache;
use mcdnn_runtime::WorkerPool;
use mcdnn_sim::{serve_slo, serve_slo_serial, slo_fleet, SloConfig, SloPolicy, SloReport};

const POOL_WORKERS: usize = 8;
const CONTENTION_LEVELS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (tenants, requests) = if quick { (10, 60) } else { (24, 300) };

    banner(
        "Joint cut/cloud-share allocation benchmark",
        "joint allocation beats contention-oblivious frontier cuts under a finite cloud pool",
    );

    // Suffix compute is costed on the reference cloud GPU so the pool
    // has real work to stretch; the fleet is seeded exactly like
    // slo_bench's, just on the cloud-aware profiles.
    let profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    let base = SloConfig {
        requests_per_tenant: requests,
        ..SloConfig::default()
    };
    let fleet = slo_fleet(&profiles, tenants, &base);
    println!(
        "fleet: {tenants} tenants x {requests} requests over {} zoo models, \
         {:.1}x offered uplink load, cloud pool swept over {CONTENTION_LEVELS:?}",
        profiles.len(),
        base.overload,
    );

    // 1. Contention sweep: oblivious vs joint at each pool size.
    let serial_cache = PlanCache::new();
    let mut levels: Vec<(usize, SloReport, SloReport)> = Vec::new();
    for c in CONTENTION_LEVELS {
        let oblivious_cfg = SloConfig {
            cloud_servers: c,
            ..base
        };
        let joint_cfg = SloConfig {
            joint_alloc: true,
            ..oblivious_cfg
        };
        let oblivious = serve_slo_serial(&serial_cache, &fleet, &oblivious_cfg, SloPolicy::EdfDegrade)
            .expect("oblivious serves");
        let joint = serve_slo_serial(&serial_cache, &fleet, &joint_cfg, SloPolicy::EdfDegrade)
            .expect("joint serves");
        println!(
            "  C={c}: oblivious {:.1}% vs joint {:.1}% ({:+.1} pts), \
             {} joint cut overrides, cloud busy {:.0} vs {:.0} ms",
            oblivious.hit_rate * 100.0,
            joint.hit_rate * 100.0,
            (joint.hit_rate - oblivious.hit_rate) * 100.0,
            joint.joint_overrides,
            oblivious.cloud_busy_ms,
            joint.cloud_busy_ms,
        );
        levels.push((c, oblivious, joint));
    }
    let joint_wins = levels
        .iter()
        .filter(|(_, o, j)| j.hit_rate > o.hit_rate)
        .count();
    let joint_beats_at_two_levels = joint_wins >= 2;
    let joint_moves_cuts = levels.iter().any(|(_, _, j)| j.joint_overrides > 0);

    // 2. Pooled/serial equivalence on the scarcest contended config.
    let equivalence_cfg = SloConfig {
        cloud_servers: 2,
        joint_alloc: true,
        ..base
    };
    let pool = WorkerPool::new(POOL_WORKERS);
    let cache = Arc::new(PlanCache::new());
    let started = Instant::now();
    let pooled = serve_slo(&pool, &cache, &fleet, &equivalence_cfg, SloPolicy::EdfDegrade)
        .expect("pooled joint serves");
    let pool_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let serial = serve_slo_serial(&serial_cache, &fleet, &equivalence_cfg, SloPolicy::EdfDegrade)
        .expect("serial joint serves");
    let pooled_bit_identical = pooled == serial;
    println!(
        "pooled joint run ({POOL_WORKERS} workers, {pool_wall_ms:.1} ms wall) \
         bit-identical to serial: {}",
        yn(pooled_bit_identical),
    );

    // 3. Overload sweep at C = 2.
    let mut sweep = Vec::new();
    for overload in [0.5, 1.0, 2.0, 4.0] {
        let oblivious_cfg = SloConfig {
            overload,
            cloud_servers: 2,
            ..base
        };
        let joint_cfg = SloConfig {
            joint_alloc: true,
            ..oblivious_cfg
        };
        let o = serve_slo_serial(&serial_cache, &fleet, &oblivious_cfg, SloPolicy::EdfDegrade)
            .expect("oblivious serves");
        let j = serve_slo_serial(&serial_cache, &fleet, &joint_cfg, SloPolicy::EdfDegrade)
            .expect("joint serves");
        println!(
            "  {overload:.1}x load at C=2: oblivious {:.1}% vs joint {:.1}%",
            o.hit_rate * 100.0,
            j.hit_rate * 100.0,
        );
        sweep.push((overload, o, j));
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_joint.json");
    let level_rows: Vec<String> = levels
        .iter()
        .map(|(c, o, j)| {
            format!(
                "    {{\"cloud_servers\": {c}, \"oblivious\": {}, \"joint\": {}, \
                 \"joint_gain_pts\": {:.1}, \"joint_overrides\": {}}}",
                policy_json(o),
                policy_json(j),
                (j.hit_rate - o.hit_rate) * 100.0,
                j.joint_overrides,
            )
        })
        .collect();
    let sweep_rows: Vec<String> = sweep
        .iter()
        .map(|(overload, o, j)| {
            format!(
                "    {{\"overload\": {overload:.1}, \"oblivious_hit_rate\": {:.4}, \
                 \"joint_hit_rate\": {:.4}, \"joint_overrides\": {}}}",
                o.hit_rate, j.hit_rate, j.joint_overrides,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"generated_by\": \"cargo run -p mcdnn-bench --release --bin joint_bench{}\",\n  \
         \"tenants\": {tenants},\n  \"requests_per_tenant\": {requests},\n  \
         \"distinct_models\": {},\n  \"overload\": {:.1},\n  \
         \"contention_levels\": [\n{}\n  ],\n  \
         \"joint_wins\": {joint_wins},\n  \
         \"joint_beats_at_two_levels\": {joint_beats_at_two_levels},\n  \
         \"joint_moves_cuts\": {joint_moves_cuts},\n  \
         \"pool_workers\": {POOL_WORKERS},\n  \"pool_wall_ms\": {pool_wall_ms:.1},\n  \
         \"pooled_bit_identical\": {pooled_bit_identical},\n  \
         \"overload_sweep_c2\": [\n{}\n  ]\n}}\n",
        if quick { " -- --quick" } else { "" },
        profiles.len(),
        base.overload,
        level_rows.join(",\n"),
        sweep_rows.join(",\n"),
    );
    std::fs::write(path, json).expect("write json");
    println!("wrote {path}");

    assert!(pooled_bit_identical, "pooled joint report diverged from serial");
    assert!(
        joint_beats_at_two_levels,
        "joint beat oblivious at only {joint_wins} contention level(s), need >= 2"
    );
    assert!(
        joint_moves_cuts,
        "joint allocation never overrode a frontier cut — the allocator is inert"
    );
}

fn policy_json(r: &SloReport) -> String {
    format!(
        "{{\"hit_rate\": {:.4}, \"admitted\": {}, \"shed\": {}, \"degraded\": {}, \
         \"cloud_busy_ms\": {:.1}, \"p99_latency_ms\": {:.1}, \"digest\": \"{:#018x}\"}}",
        r.hit_rate,
        r.admitted,
        r.shed_queue_full + r.shed_infeasible,
        r.degraded,
        r.cloud_busy_ms,
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
