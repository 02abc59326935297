//! Integration tests for the fault-injection and graceful-degradation
//! subsystem, wired through real model profiles.
//!
//! Pins the two headline guarantees:
//!
//! 1. **Determinism** — an identical fault schedule (same seed) yields
//!    a bit-identical event log, digest, and simulation result across
//!    repeated runs (what the CI chaos job diffs).
//! 2. **Bounded degradation** — the ladder policy's total makespan
//!    never exceeds the mobile-only baseline under *any* injected
//!    scenario, because mobile-only is its own last rung.
//!
//! Plus the `best_cut_for_rate` `None` contract end to end: streaming
//! exactly at the saturation rate, and a link dying mid-stream, both
//! degrade through the ladder instead of failing.

use mcdnn::prelude::*;
use mcdnn_rng::{fnv_fold, FNV_OFFSET};
use mcdnn_sim::{
    best_cut_for_rate, chaos_drill, chaos_scenarios, ladder_decision, run_chaos_grid,
    run_degraded, run_pipeline, saturation_rate_hz, simulate, DegradePolicy, DesConfig,
    ExecutorConfig, FaultSpec, FaultedRun, LadderLevel,
};

const SEEDS: [u64; 2] = [7, 1234];

fn alexnet_wifi() -> Scenario {
    Scenario::paper_default(Model::AlexNet, NetworkModel::wifi())
}

#[test]
fn same_seed_same_fault_schedule_bit_identical_logs() {
    let s = alexnet_wifi();
    let spec = FaultSpec {
        loss_prob: 0.6,
        blackout_prob: 1.0,
        ..FaultSpec::default()
    };
    for seed in SEEDS {
        let runs: Vec<_> = (0..3).map(|_| chaos_drill(s.profile(), 3, 8, &spec, seed)).collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].plan, other.plan, "seed {seed}: fault plan must repeat");
            assert_eq!(runs[0].log, other.log, "seed {seed}: event log must be bit-identical");
            assert_eq!(runs[0].digest, other.digest, "seed {seed}: digest must repeat");
            assert_eq!(runs[0].result, other.result, "seed {seed}: full DES result must repeat");
        }
        assert!(!runs[0].log.is_empty(), "seed {seed}: the drill spec must fire events");
    }
    let a = chaos_drill(s.profile(), 3, 8, &spec, SEEDS[0]);
    let b = chaos_drill(s.profile(), 3, 8, &spec, SEEDS[1]);
    assert_ne!(a.digest, b.digest, "different seeds must diverge");
}

#[test]
fn des_and_executor_agree_on_faulted_runs() {
    // The drill's DES replay and the threaded executor (logical clock)
    // must tell the same story: same fallbacks, same event log.
    let s = alexnet_wifi();
    let p = s.profile();
    for seed in SEEDS {
        let drill = chaos_drill(p, 3, 6, &FaultSpec::default(), seed);
        let (f, g) = (p.f(3), p.g(3));
        let jobs: Vec<FlowJob> = (0..6).map(|i| FlowJob::two_stage(i, f, g)).collect();
        let order: Vec<usize> = (0..6).collect();
        let run = FaultedRun {
            faults: drill.plan.clone(),
            local_fallback_ms: p.f(p.k()) - f,
        };
        let des_config = DesConfig {
            faults: run.clone(),
            ..DesConfig::default()
        };
        let exec_config = ExecutorConfig {
            faults: run,
            ..ExecutorConfig::default()
        };
        let des = simulate(&jobs, &order, &des_config);
        let exec = run_pipeline(&jobs, &order, &exec_config);
        assert_eq!(des.makespan_ms, exec.makespan_ms, "seed {seed}");
        assert_eq!(des.events, exec.events, "seed {seed}: event logs must match exactly");
        assert_eq!(des.fallback_jobs(), exec.fallback_jobs, "seed {seed}");
    }
}

#[test]
fn ladder_never_loses_to_mobile_only_on_real_models() {
    let engine = Engine::default();
    for model in [Model::AlexNet, Model::MobileNetV2, Model::ResNet18] {
        for net in [NetworkModel::four_g(), NetworkModel::wifi()] {
            let s = Scenario::paper_default(model, net);
            let scenarios = chaos_scenarios(9, SEEDS[0]);
            let rows = run_chaos_grid(engine.pool(), s.profile(), &scenarios, 6, 15.0, 0.9);
            for sc in &scenarios {
                let total = |policy: DegradePolicy| {
                    rows.iter()
                        .find(|r| r.scenario == sc.name && r.policy == policy)
                        .expect("grid row")
                        .total_ms
                };
                assert!(
                    total(DegradePolicy::Ladder) <= total(DegradePolicy::MobileOnly) + 1e-9,
                    "{model} / {}: ladder lost to mobile-only",
                    sc.name
                );
            }
        }
    }
}

#[test]
fn rate_at_exact_saturation_hits_none_contract_and_degrades() {
    // `best_cut_for_rate` feasibility is strict (`max(f,g) < ρ·period`),
    // so streaming *exactly at* the platform ceiling is infeasible at
    // every cut — the documented `None` contract.
    let s = alexnet_wifi();
    let p = s.profile();
    let ceiling = (0..=p.k())
        .map(|c| saturation_rate_hz(p.f(c), p.g(c)))
        .fold(0.0f64, f64::max);
    assert!(ceiling.is_finite() && ceiling > 0.0);
    assert_eq!(
        best_cut_for_rate(p, ceiling, 1.0),
        None,
        "exactly at saturation must be infeasible (strict inequality)"
    );
    assert!(
        best_cut_for_rate(p, ceiling * 0.999, 1.0).is_some(),
        "just below saturation must be feasible"
    );
    // End to end: the ladder absorbs the None by shifting toward the
    // mobile side (or falling to mobile-only) instead of failing...
    let decision = ladder_decision(p, ceiling, 1.0, 1.0, 6);
    assert!(
        matches!(decision.level, LadderLevel::Shifted | LadderLevel::MobileOnly),
        "None contract must degrade, got {:?}",
        decision.level
    );
    // ...and the degraded stream still never does worse than mobile-only.
    let factors = vec![1.0; 6];
    let ladder = run_degraded(p, &factors, 6, ceiling, 1.0, DegradePolicy::Ladder);
    let mobile = run_degraded(p, &factors, 6, ceiling, 1.0, DegradePolicy::MobileOnly);
    assert!(ladder.total_ms <= mobile.total_ms + 1e-9);
}

#[test]
fn link_dying_mid_stream_falls_to_mobile_only_and_recovers() {
    let s = alexnet_wifi();
    let p = s.profile();
    // Healthy at 15 fps, then the uplink dies for two bursts, then
    // recovers.
    let factors = [1.0, 1.0, 0.0, 0.0, 1.0, 1.0];
    let run = run_degraded(p, &factors, 6, 15.0, 0.9, DegradePolicy::Ladder);
    assert_eq!(run.bursts.len(), factors.len());
    let healthy_level = run.bursts[0].level;
    assert_eq!(run.bursts[1].level, healthy_level);
    for dead in &run.bursts[2..4] {
        assert_eq!(
            dead.level,
            LadderLevel::MobileOnly,
            "a dead link must land on the last rung"
        );
        assert_eq!(dead.cut, p.k(), "mobile-only runs the whole net on-device");
    }
    assert_eq!(run.bursts[4].level, healthy_level, "recovery must restore the healthy rung");
    assert_eq!(run.bursts[5].level, healthy_level);
    // The dead bursts each cost the mobile-only price, never more.
    let mobile = run_degraded(p, &factors, 6, 15.0, 0.9, DegradePolicy::MobileOnly);
    for (l, m) in run.bursts.iter().zip(&mobile.bursts) {
        assert!(l.makespan_ms <= m.makespan_ms + 1e-9, "burst {}", l.burst);
    }
}

#[test]
fn chaos_report_renders_deterministically_for_both_ci_seeds() {
    let s = alexnet_wifi();
    let engine = Engine::default();
    for seed in SEEDS {
        let cfg = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        let a = chaos_report(engine.pool(), &s, &cfg).unwrap().render();
        let b = chaos_report(engine.pool(), &s, &cfg).unwrap().render();
        assert_eq!(a, b, "seed {seed}: report must render byte-identically");
        assert!(a.contains("digest="), "seed {seed}: digest line present");
    }
}

#[test]
fn chaos_grid_totals_match_the_pinned_digests() {
    // The grid `mcdnn chaos --model alexnet --bandwidth 18.88` prints at
    // both CI seeds, folded bit for bit: every scenario × policy total
    // is a sum of ladder-priced bursts, so any ladder decision that
    // moves shows up here.
    let s = alexnet_wifi();
    let digests: [u64; 2] = [0x2777_a037_255c_35da, 0x850c_a2ee_9cef_c34b];
    let engine = Engine::default();
    for (seed, pinned) in SEEDS.into_iter().zip(digests) {
        let cfg = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        let h = chaos_report(engine.pool(), &s, &cfg)
            .unwrap()
            .rows
            .iter()
            .fold(FNV_OFFSET, |h, r| fnv_fold(h, r.total_ms.to_bits()));
        assert_eq!(h, pinned, "seed {seed}: chaos grid digest");
    }
}
