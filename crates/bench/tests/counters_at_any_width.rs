//! Every work counter and every histogram reads the same at any pool
//! width, and on every repeat.
//!
//! Two pinned serving runs go through [`Engine`] at 1, 2 and 4
//! workers, twice at each width, each on a fresh engine with the
//! registry reset first: a `serve` fleet with faults, drift and
//! adaptation, and a `serve --slo` fleet on two cloud servers with
//! joint allocation (drifting and adapting too). Each snapshot must
//! equal the first run's, metric by metric. Only wall-clock metrics
//! are exempt, each for the reason [`WALL_CLOCK`] gives, so a new
//! metric whose value depends on the pool width or on thread timing
//! fails here.
//!
//! One test in its own file: the registry is process-global, so no
//! sibling test may record into it between a reset and a snapshot.

use mcdnn::{Engine, EngineConfig};
use mcdnn_bench::workload::{
    monotone_zoo_cloud_rate_profiles, monotone_zoo_rate_profiles, SETUP_MS,
};
use mcdnn_obs::json::{self, Json};
use mcdnn_profile::AdaptConfig;
use mcdnn_sim::{fleet, slo_fleet, DriftSpec, ServeConfig, SloConfig, SloPolicy};

/// Metrics whose values are wall-clock time. A counter listed here is
/// not compared at all; a histogram listed here has its count compared
/// but not its values.
const WALL_CLOCK: &[(&str, &str)] = &[
    ("sched.dispatch_ns", "wall time of the dispatch loop"),
    ("sched.generate_ns", "wall time of request generation"),
    ("sched.merge_ns", "wall time of the stream merge"),
    ("sched.summary_ns", "wall time of the report summary"),
    (
        "frontier.compile_ms",
        "wall time of each compile; the count is work",
    ),
];

const WIDTHS: [usize; 3] = [1, 2, 4];
const REPEATS: usize = 2;

/// The drift the CLI's `--drift 0.08` maps to.
fn drift() -> DriftSpec {
    DriftSpec {
        device_walk: 0.08,
        link_walk: 0.04,
        jitter: 0.02,
        ..DriftSpec::none()
    }
}

/// One run on a fresh `workers`-wide engine, scoped by a reset; returns
/// the metrics snapshot as parsed JSON.
fn snapshot_of(workers: usize, run: &dyn Fn(&Engine)) -> Json {
    mcdnn_obs::set_enabled(true);
    let engine = EngineConfig::new().threads(workers).build();
    mcdnn_obs::reset();
    run(&engine);
    let snapshot = mcdnn_obs::snapshot().to_json();
    drop(engine);
    json::parse(&snapshot).expect("snapshot JSON parses")
}

fn wall_clock(name: &str) -> bool {
    WALL_CLOCK.iter().any(|&(n, _)| n == name)
}

fn fields<'a>(snapshot: &'a Json, kind: &str) -> &'a [(String, Json)] {
    snapshot.get(kind).and_then(Json::as_object).expect(kind)
}

/// Compare two snapshots metric by metric; returns one line per
/// difference.
fn differences(reference: &Json, other: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for ((name, a), (other_name, b)) in fields(reference, "counters")
        .iter()
        .zip(fields(other, "counters"))
    {
        assert_eq!(name, other_name, "snapshots list the same counters");
        if !wall_clock(name) && a != b {
            out.push(format!("counter {name}: {a:?} vs {b:?}"));
        }
    }
    for ((name, a), (other_name, b)) in fields(reference, "histograms")
        .iter()
        .zip(fields(other, "histograms"))
    {
        assert_eq!(name, other_name, "snapshots list the same histograms");
        let keys: &[&str] = if wall_clock(name) {
            &["count"]
        } else {
            &["count", "min_ms", "max_ms", "buckets", "overflow"]
        };
        for key in keys {
            if a.get(key) != b.get(key) {
                out.push(format!(
                    "histogram {name}.{key}: {:?} vs {:?}",
                    a.get(key),
                    b.get(key)
                ));
            }
        }
        // Slabs are summed per thread, so only the float association of
        // the sum may differ.
        let sum = |h: &Json| h.get("sum_ms").and_then(Json::as_f64).expect("sum_ms");
        let (x, y) = (sum(a), sum(b));
        if !wall_clock(name) && (x - y).abs() > 1e-9 * x.abs().max(y.abs()) + 1e-6 {
            out.push(format!("histogram {name}.sum_ms: {x} vs {y}"));
        }
    }
    out
}

#[test]
fn every_work_counter_reads_the_same_at_any_pool_width() {
    let profiles = monotone_zoo_rate_profiles(SETUP_MS);
    let serve_config = ServeConfig {
        bursts_per_user: 40,
        fault_every: 8,
        seed: 7,
        drift: drift(),
        adapt: Some(AdaptConfig::default()),
        ..ServeConfig::default()
    };
    let users = fleet(&profiles, 12, &serve_config);
    let serve = |engine: &Engine| {
        let report = engine.serve(&users, &serve_config).expect("fleet serves");
        assert!(report.total_faulted_bursts > 0 && report.total_replans > 0);
    };

    let cloud_profiles = monotone_zoo_cloud_rate_profiles(SETUP_MS);
    let slo_config = SloConfig {
        requests_per_tenant: 40,
        seed: 7,
        cloud_servers: 2,
        joint_alloc: true,
        drift: drift(),
        adapt: Some(AdaptConfig::default()),
        ..SloConfig::default()
    };
    let tenants = slo_fleet(&cloud_profiles, 8, &slo_config);
    let slo = |engine: &Engine| {
        let report = engine
            .serve_slo(&tenants, &slo_config, SloPolicy::EdfDegrade)
            .expect("fleet serves");
        assert!(report.admitted > 0 && report.joint_overrides > 0);
    };

    assert_width_invariant("serve", &serve);
    assert_width_invariant("serve --slo", &slo);
}

/// Run `run` at every width, [`REPEATS`] times each, and hold each
/// snapshot to the first one at one worker.
fn assert_width_invariant(label: &str, run: &dyn Fn(&Engine)) {
    let reference = snapshot_of(1, run);
    for workers in WIDTHS {
        for repeat in 0..REPEATS {
            if (workers, repeat) == (1, 0) {
                continue;
            }
            let diffs = differences(&reference, &snapshot_of(workers, run));
            assert!(
                diffs.is_empty(),
                "{label} at {workers} workers (repeat {repeat}) differs from 1 worker:\n{}",
                diffs.join("\n")
            );
        }
    }
}
