//! Integration tests for the extension modules: multi-channel uplinks
//! (cross-validated against the DES), heterogeneous batches, edge-cloud
//! planning, energy Pareto fronts, and online adaptation — wired
//! through real model profiles rather than synthetic vectors.

use mcdnn::prelude::*;
use mcdnn_partition::{
    edge_jps_plan, hetero_jps_plan, makespan_multichannel, multichannel_jps_plan,
    pareto_front, two_stage_blind_plan, JobGroup,
};
use mcdnn_profile::EnergyModel;
use mcdnn_sim::{realized_makespans, run_online, simulate, BandwidthTrace, DesConfig, ReplanPolicy};

#[test]
fn multichannel_evaluator_matches_des() {
    // Two independent implementations of the parallel-uplink pipeline:
    // partition::multichannel (planning-side greedy) and sim::des
    // (simulation-side). They must agree exactly.
    let s = Scenario::paper_default(Model::AlexNet, NetworkModel::four_g());
    for channels in 1..=4 {
        let plan = multichannel_jps_plan(s.profile(), 15, channels);
        let jobs = plan.jobs(s.profile());
        let two_stage: Vec<FlowJob> = jobs
            .iter()
            .map(|j| FlowJob::two_stage(j.id, j.compute_ms, j.comm_ms))
            .collect();
        let des = simulate(
            &two_stage,
            &plan.order,
            &DesConfig {
                uplink_channels: channels,
                ..DesConfig::default()
            },
        );
        let eval = makespan_multichannel(&two_stage, &plan.order, channels);
        assert!(
            (des.makespan_ms - eval).abs() < 1e-9,
            "channels={channels}: DES {} vs evaluator {eval}",
            des.makespan_ms
        );
    }
}

#[test]
fn extra_channels_help_comm_bound_models_most() {
    // GoogLeNet at 4G is communication-limited; AlexNet at Wi-Fi is
    // compute-limited. Channel 2 should help the former far more.
    let comm_bound = Scenario::paper_default(Model::GoogLeNet, NetworkModel::four_g());
    let comp_bound = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
    let gain = |s: &Scenario| {
        let one = multichannel_jps_plan(s.profile(), 30, 1).makespan_ms;
        let two = multichannel_jps_plan(s.profile(), 30, 2).makespan_ms;
        1.0 - two / one
    };
    let g_comm = gain(&comm_bound);
    let g_comp = gain(&comp_bound);
    assert!(
        g_comm > g_comp,
        "comm-bound gain {g_comm:.3} should exceed compute-bound gain {g_comp:.3}"
    );
}

#[test]
fn hetero_batch_on_real_models() {
    let s1 = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
    let s2 = Scenario::paper_default(Model::MobileNetV2, NetworkModel::wifi());
    let joint = hetero_jps_plan(&[
        JobGroup {
            profile: s1.profile().clone(),
            count: 5,
        },
        JobGroup {
            profile: s2.profile().clone(),
            count: 5,
        },
    ]);
    assert_eq!(joint.jobs.len(), 10);
    // Joint never loses to sequential per-model planning.
    let separate = Strategy::JpsBestMix.plan(s1.profile(), 5).makespan_ms
        + Strategy::JpsBestMix.plan(s2.profile(), 5).makespan_ms;
    assert!(joint.makespan_ms <= separate + 1e-6);
    // And the schedule respects Johnson across the union.
    assert_eq!(joint.order.len(), 10);
}

#[test]
fn edge_cloud_on_real_models() {
    // A 2× edge: the blind 2-stage plan must never beat the aware one.
    let line = Model::MobileNetV2.line().unwrap();
    let mobile = DeviceModel::raspberry_pi4();
    let edge = CloudModel::Device(DeviceModel::new(
        "edge2x",
        mobile.flops_per_sec * 2.0,
        0.1,
    ));
    let profile = CostProfile::evaluate(&line, &mobile, &NetworkModel::wifi(), &edge);
    for n in [5usize, 25] {
        let aware = edge_jps_plan(&profile, n);
        let blind = two_stage_blind_plan(&profile, n);
        assert!(aware.makespan_ms <= blind.makespan_ms + 1e-6);
    }
}

#[test]
fn energy_front_on_real_models() {
    let s = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
    let energy = EnergyModel::raspberry_pi4_wifi();
    let front = pareto_front(s.profile(), 20, &energy);
    assert!(!front.is_empty());
    // The latency-optimal point matches JPS* (same candidate family).
    let jps = Strategy::JpsBestMix.plan(s.profile(), 20);
    assert!(front[0].makespan_ms <= jps.makespan_ms + 1e-6);
    // Local-only is the zero-radio extreme; it must not dominate the
    // front head in both dimensions.
    let lo = s.plan(Strategy::LocalOnly, 20);
    assert!(lo.makespan_ms >= front[0].makespan_ms);
}

#[test]
fn online_adaptation_on_real_models() {
    let line = Model::AlexNet.line().unwrap();
    let mobile = DeviceModel::raspberry_pi4();
    let trace = BandwidthTrace::Sine {
        mid: 10.0,
        amp: 8.0,
        period: 7.0,
    };
    let fixed = run_online(&line, &mobile, &trace, 10, 5, 10.0, ReplanPolicy::Static).unwrap();
    let oracle = run_online(&line, &mobile, &trace, 10, 5, 10.0, ReplanPolicy::Oracle).unwrap();
    assert!(oracle.total_ms() <= fixed.total_ms() + 1e-6);
}

#[test]
fn jitter_does_not_flip_jps_vs_lo_on_real_models() {
    let s = Scenario::paper_default(Model::MobileNetV2, NetworkModel::wifi());
    let jps = s.plan(Strategy::Jps, 30);
    let lo = s.plan(Strategy::LocalOnly, 30);
    let jps_stats = realized_makespans(&jps.jobs(s.profile()), &jps.order, 0.25, 100, 5);
    let lo_stats = realized_makespans(&lo.jobs(s.profile()), &lo.order, 0.25, 100, 5);
    assert!(jps_stats.p95_ms < lo_stats.p95_ms, "advantage must survive jitter");
}
