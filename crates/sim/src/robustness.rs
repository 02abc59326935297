//! Robustness of plans under runtime variance — and the chaos harness.
//!
//! Plans are computed from *nominal* stage durations (lookup table +
//! regression); real runs jitter — CPU frequency scaling, Wi-Fi
//! contention. [`realized_makespans`] replays a fixed plan through the
//! discrete-event simulator under multiplicative jitter and reports
//! distributional statistics, so planners can be compared on realised
//! rather than nominal makespans (rank stability).
//!
//! The rest of the module is the **chaos harness**: a named grid of
//! fault scenarios ([`chaos_scenarios`]) swept over every degradation
//! policy on a worker pool ([`run_chaos_grid`], reporting each policy's
//! total makespan relative to the oracle that knew the fault schedule
//! in advance), plus a seeded single-run drill ([`chaos_drill`]) that
//! replays a random [`FaultPlan`] through the
//! DES and packages the canonical event log with its digest — the
//! artifact the determinism CI job diffs across repeated runs.

use mcdnn_flowshop::FlowJob;
use mcdnn_profile::CostProfile;
use mcdnn_rng::Rng;
use mcdnn_runtime::WorkerPool;

use crate::degrade::{run_degraded, DegradePolicy};
use crate::des::{simulate, DesArena, DesConfig, DesResult};
use crate::fault::{format_events, log_digest, FaultPlan, FaultSpec, FaultedRun};

/// Summary statistics of realised makespans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MakespanStats {
    /// Nominal (jitter-free) makespan, ms.
    pub nominal_ms: f64,
    /// Mean realised makespan, ms.
    pub mean_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// Worst observed, ms.
    pub worst_ms: f64,
}

/// Replay `(jobs, order)` under `trials` independent jitter draws of
/// `jitter_frac` relative magnitude.
pub fn realized_makespans(
    jobs: &[FlowJob],
    order: &[usize],
    jitter_frac: f64,
    trials: usize,
    base_seed: u64,
) -> MakespanStats {
    assert!(trials > 0, "need at least one trial");
    // Only makespans are kept, so one warm arena serves every trial.
    let mut arena = DesArena::new();
    let nominal = arena.simulate(jobs, order, &DesConfig::default());
    let mut spans: Vec<f64> = (0..trials)
        .map(|t| {
            arena.simulate(
                jobs,
                order,
                &DesConfig {
                    jitter_frac,
                    seed: base_seed.wrapping_add(t as u64),
                    ..DesConfig::default()
                },
            )
        })
        .collect();
    spans.sort_by(f64::total_cmp);
    let mean = spans.iter().sum::<f64>() / trials as f64;
    let p95 = spans[((trials as f64 * 0.95) as usize).min(trials - 1)];
    MakespanStats {
        nominal_ms: nominal,
        mean_ms: mean,
        p95_ms: p95,
        worst_ms: *spans.last().expect("trials > 0"),
    }
}

/// One named fault scenario: the true link-rate factor per burst.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name (stable across runs; keys the grid output).
    pub name: String,
    /// Link rate factor per burst, each in `[0, 1]`.
    pub factors: Vec<f64>,
}

/// The standard chaos scenario grid over `bursts` bursts: a healthy
/// control, shallow and deep rate collapses, a mid-stream blackout, a
/// seeded flapping link, a steady downward ramp, and a fully dead
/// link. Deterministic in `(bursts, seed)` — only `flapping` draws
/// randomness, via `mcdnn-rng`.
pub fn chaos_scenarios(bursts: usize, seed: u64) -> Vec<ChaosScenario> {
    assert!(bursts >= 3, "the windowed scenarios need at least 3 bursts");
    let window = |lo: usize, hi: usize, inside: f64| -> Vec<f64> {
        (0..bursts)
            .map(|i| if i >= lo && i < hi { inside } else { 1.0 })
            .collect()
    };
    let third = bursts / 3;
    let mut rng = Rng::seed_from_u64(seed);
    let flapping: Vec<f64> = (0..bursts)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => 1.0,
            1 => 0.3,
            _ => 0.0,
        })
        .collect();
    let ramp: Vec<f64> = (0..bursts)
        .map(|i| 1.0 - 0.9 * i as f64 / (bursts - 1) as f64)
        .collect();
    vec![
        ChaosScenario {
            name: "steady".into(),
            factors: vec![1.0; bursts],
        },
        ChaosScenario {
            name: "collapse_half".into(),
            factors: window(third, 2 * third, 0.5),
        },
        ChaosScenario {
            name: "collapse_deep".into(),
            factors: window(third, 2 * third, 0.1),
        },
        ChaosScenario {
            name: "blackout_mid".into(),
            factors: window(third, 2 * third, 0.0),
        },
        ChaosScenario {
            name: "flapping".into(),
            factors: flapping,
        },
        ChaosScenario {
            name: "ramp".into(),
            factors: ramp,
        },
        ChaosScenario {
            name: "dead_link".into(),
            factors: vec![0.0; bursts],
        },
    ]
}

/// One row of the chaos grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Scenario name.
    pub scenario: String,
    /// Degradation policy evaluated.
    pub policy: DegradePolicy,
    /// Total makespan across bursts, ms.
    pub total_ms: f64,
    /// `total_ms` relative to the oracle ([`DegradePolicy::Ladder`]
    /// with the true factors) on the same scenario; 1.0 = as good as
    /// knowing the fault schedule in advance.
    pub vs_oracle: f64,
}

/// Sweep every scenario × policy combination, one scenario per `pool`
/// task. Row order is deterministic: scenarios in input order, policies
/// in `[Frozen, Ladder, LaggedLadder, MobileOnly]` order within each.
pub fn run_chaos_grid(
    pool: &WorkerPool,
    profile: &CostProfile,
    scenarios: &[ChaosScenario],
    jobs_per_burst: usize,
    target_hz: f64,
    rho_limit: f64,
) -> Vec<ChaosRow> {
    let _span = mcdnn_obs::span("sim", "run_chaos_grid");
    const POLICIES: [DegradePolicy; 4] = [
        DegradePolicy::Frozen,
        DegradePolicy::Ladder,
        DegradePolicy::LaggedLadder,
        DegradePolicy::MobileOnly,
    ];
    let (profile, scenarios) = (profile.clone(), scenarios.to_vec());
    let per_scenario = pool.run_indexed(scenarios.len(), move |i| {
        let sc = &scenarios[i];
        let totals: Vec<f64> = POLICIES
            .iter()
            .map(|&policy| {
                let run = run_degraded(
                    &profile,
                    &sc.factors,
                    jobs_per_burst,
                    target_hz,
                    rho_limit,
                    policy,
                );
                run.total_ms
            })
            .collect();
        let oracle = totals[1];
        POLICIES
            .iter()
            .zip(&totals)
            .map(|(&policy, &total_ms)| ChaosRow {
                scenario: sc.name.clone(),
                policy,
                total_ms,
                vs_oracle: if oracle > 0.0 { total_ms / oracle } else { 1.0 },
            })
            .collect::<Vec<_>>()
    });
    per_scenario.into_iter().flatten().collect()
}

/// Outcome of one seeded chaos drill through the DES.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosDrill {
    /// The fault plan that was replayed.
    pub plan: FaultPlan,
    /// Full simulation output.
    pub result: DesResult,
    /// Canonical textual event log, one line per fault event.
    pub log: String,
    /// FNV-1a digest of `log` — equal across runs of the same seed.
    pub digest: u64,
}

/// Replay `n_jobs` homogeneous jobs cut at `cut` through the DES under
/// a random fault plan drawn from `spec` with `seed`. The fault
/// horizon is twice the nominal makespan, so windows land where the
/// schedule actually runs; the local-fallback remainder is
/// `f(k) − f(cut)` per the profile.
pub fn chaos_drill(
    profile: &CostProfile,
    cut: usize,
    n_jobs: usize,
    spec: &FaultSpec,
    seed: u64,
) -> ChaosDrill {
    assert!(cut <= profile.k(), "cut out of range");
    assert!(n_jobs >= 1, "need at least one job");
    let (f, g) = (profile.f(cut), profile.g(cut));
    let jobs: Vec<FlowJob> = (0..n_jobs).map(|i| FlowJob::two_stage(i, f, g)).collect();
    let order: Vec<usize> = (0..n_jobs).collect();
    let horizon = (mcdnn_flowshop::uniform_makespan(n_jobs, f, g) * 2.0).max(1.0);
    let config = DesConfig {
        faults: FaultedRun {
            faults: FaultPlan::random(spec, n_jobs, horizon, seed),
            local_fallback_ms: profile.f(profile.k()) - f,
        },
        ..DesConfig::default()
    };
    let result = simulate(&jobs, &order, &config);
    let log = format_events(&result.events);
    let digest = log_digest(&log);
    ChaosDrill {
        plan: config.faults.faults,
        result,
        log,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(spec: &[(f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
            .collect()
    }

    #[test]
    fn zero_jitter_matches_nominal() {
        let js = jobs(&[(4.0, 6.0), (7.0, 2.0)]);
        let order = vec![1, 0];
        let stats = realized_makespans(&js, &order, 0.0, 10, 1);
        assert_eq!(stats.nominal_ms, stats.mean_ms);
        assert_eq!(stats.nominal_ms, stats.worst_ms);
    }

    #[test]
    fn jitter_statistics_are_ordered() {
        let js = jobs(&[(10.0, 10.0); 8]);
        let order: Vec<usize> = (0..8).collect();
        let stats = realized_makespans(&js, &order, 0.2, 200, 7);
        assert!(stats.mean_ms <= stats.p95_ms + 1e-9);
        assert!(stats.p95_ms <= stats.worst_ms + 1e-9);
        // Pipelined max() of jittered stages inflates the mean slightly.
        let inflation = stats.mean_ms / stats.nominal_ms - 1.0;
        assert!(inflation > -0.05 && inflation < 0.2);
    }

    #[test]
    fn more_jitter_more_spread() {
        let js = jobs(&[(10.0, 10.0); 8]);
        let order: Vec<usize> = (0..8).collect();
        let small = realized_makespans(&js, &order, 0.05, 300, 11);
        let large = realized_makespans(&js, &order, 0.4, 300, 11);
        assert!(
            large.worst_ms - large.nominal_ms > small.worst_ms - small.nominal_ms,
            "spread must grow with jitter"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let js = jobs(&[(3.0, 5.0), (6.0, 1.0)]);
        let order = vec![0, 1];
        let a = realized_makespans(&js, &order, 0.3, 50, 99);
        let b = realized_makespans(&js, &order, 0.3, 50, 99);
        assert_eq!(a, b);
    }

    fn profile() -> CostProfile {
        CostProfile::from_vectors(
            "chaos-test",
            vec![0.0, 10.0, 40.0, 120.0],
            vec![200.0, 60.0, 20.0, 0.0],
            None,
        )
    }

    #[test]
    fn scenario_grid_is_deterministic_and_bounded() {
        let a = chaos_scenarios(12, 7);
        let b = chaos_scenarios(12, 7);
        assert_eq!(a, b, "same seed, same grid");
        assert_eq!(a.len(), 7);
        for sc in &a {
            assert_eq!(sc.factors.len(), 12);
            assert!(sc.factors.iter().all(|f| (0.0..=1.0).contains(f)));
        }
        let c = chaos_scenarios(12, 8);
        assert_ne!(a, c, "flapping scenario must vary with the seed");
    }

    #[test]
    fn chaos_grid_ladder_never_loses_to_mobile_only() {
        let p = profile();
        let scenarios = chaos_scenarios(9, 7);
        let pool = WorkerPool::new(2);
        let rows = run_chaos_grid(&pool, &p, &scenarios, 6, 20.0, 0.9);
        assert_eq!(rows.len(), scenarios.len() * 4);
        for sc in &scenarios {
            let total = |policy: DegradePolicy| {
                rows.iter()
                    .find(|r| r.scenario == sc.name && r.policy == policy)
                    .expect("row present")
                    .total_ms
            };
            assert!(
                total(DegradePolicy::Ladder) <= total(DegradePolicy::MobileOnly) + 1e-9,
                "{}: ladder must never lose to mobile-only",
                sc.name
            );
            // The oracle row is 1.0 by construction.
            let oracle_row = rows
                .iter()
                .find(|r| r.scenario == sc.name && r.policy == DegradePolicy::Ladder)
                .unwrap();
            assert!((oracle_row.vs_oracle - 1.0).abs() < 1e-12);
        }
        // On the healthy control, the ladder beats mobile-only outright.
        let steady_ladder = rows
            .iter()
            .find(|r| r.scenario == "steady" && r.policy == DegradePolicy::Ladder)
            .unwrap();
        let steady_mobile = rows
            .iter()
            .find(|r| r.scenario == "steady" && r.policy == DegradePolicy::MobileOnly)
            .unwrap();
        assert!(steady_ladder.total_ms < steady_mobile.total_ms);
    }

    #[test]
    fn chaos_grid_rows_are_reproducible() {
        let p = profile();
        let scenarios = chaos_scenarios(6, 3);
        let grid = |pool: &WorkerPool| run_chaos_grid(pool, &p, &scenarios, 4, 20.0, 0.9);
        let a = grid(&WorkerPool::new(1));
        let b = grid(&WorkerPool::new(3));
        assert_eq!(a, b, "the sweep must not depend on the pool width");
    }

    #[test]
    fn chaos_drill_same_seed_bit_identical_log() {
        let p = profile();
        let spec = FaultSpec {
            loss_prob: 0.8,
            blackout_prob: 1.0,
            ..FaultSpec::default()
        };
        for seed in [7u64, 1234] {
            let a = chaos_drill(&p, 2, 8, &spec, seed);
            let b = chaos_drill(&p, 2, 8, &spec, seed);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.log, b.log, "seed {seed}: logs must be bit-identical");
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.result, b.result);
        }
        let x = chaos_drill(&p, 2, 8, &spec, 7);
        let y = chaos_drill(&p, 2, 8, &spec, 8);
        assert_ne!(x.digest, y.digest, "different seeds must diverge");
    }
}
