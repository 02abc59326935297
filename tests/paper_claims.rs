//! The claims ledger: one test per checkable claim in the paper, in
//! paper order, each naming its section. Several overlap deliberately
//! with deeper suites elsewhere — this file is the navigable index
//! from "the paper says X" to "the code shows X".

use mcdnn::experiment::{bandwidth_sweep, benefit_range, ratio_sweep};
use mcdnn::prelude::*;
use mcdnn_flowshop::{best_permutation, makespan_closed_form};
use mcdnn_partition::{
    balanced_cut_continuous, binary_search_cut, duality_gap, theorem53_condition, Plan, Strategy,
};

/// §1, Fig. 2 — "partitioning DNNs at different positions is a better
/// choice": mixed cuts reach 13, every common cut needs 16.
#[test]
fn claim_fig2_mixed_cuts_beat_common_cuts() {
    let p = CostProfile::from_vectors(
        "fig2",
        vec![0.0, 4.0, 7.0, 100.0],
        vec![999.0, 6.0, 2.0, 0.0],
        None,
    );
    for cut in [1, 2] {
        assert_eq!(
            Plan::from_cuts(Strategy::Jps, &p, vec![cut, cut]).makespan_ms,
            16.0
        );
    }
    assert_eq!(
        Plan::from_cuts(Strategy::Jps, &p, vec![1, 2]).makespan_ms,
        13.0
    );
}

/// §3.1 — "the computation power of cloud servers is usually much
/// larger … the processing time of the cloud is negligible": billing
/// the cloud stage explicitly moves the makespan < 1%.
#[test]
fn claim_cloud_stage_negligible() {
    for model in Model::EVALUATED {
        let s = Scenario::paper_default(model, NetworkModel::wifi());
        let plan = s.plan(Strategy::Jps, 50);
        let jobs = plan.jobs(s.profile());
        let three = mcdnn_flowshop::makespan_three_stage(&jobs, &plan.order);
        assert!(three <= plan.makespan_ms * 1.01, "{model}");
    }
}

/// §3.2 — "f is monotonically increasing and g is non-increasing"
/// after virtual-block clustering, for every model in the zoo.
#[test]
fn claim_monotone_stage_functions() {
    for model in Model::ALL {
        let s = Scenario::paper_default(model, NetworkModel::four_g());
        assert!(s.profile().f_is_monotone(), "{model}: f");
        assert!(s.profile().g_is_monotone(), "{model}: g");
    }
}

/// §4.1 — "the scheduling problem … can be optimally solved by
/// Johnson's rule": spot-check against exhaustive permutation search.
#[test]
fn claim_johnson_rule_optimal() {
    let jobs: Vec<FlowJob> = [(3.0, 6.0), (7.0, 2.0), (4.0, 4.0), (5.0, 3.0), (1.0, 5.0)]
        .iter()
        .enumerate()
        .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
        .collect();
    let johnson = makespan(&jobs, &johnson_order(&jobs));
    assert_eq!(johnson, best_permutation(&jobs).makespan);
}

/// §4.2, Prop. 4.1 — the closed-form makespan holds for the balanced
/// two-type schedules the paper's algorithm produces.
#[test]
fn claim_proposition_41_in_its_regime() {
    let jobs: Vec<FlowJob> = (0..8)
        .map(|i| {
            if i < 4 {
                FlowJob::two_stage(i, 9.0, 11.0)
            } else {
                FlowJob::two_stage(i, 11.0, 9.0)
            }
        })
        .collect();
    let order = johnson_order(&jobs);
    let cf = makespan_closed_form(&jobs, &order).unwrap();
    assert!((cf - makespan(&jobs, &order)).abs() < 1e-9);
}

/// §5.1, Lemma 5.1 — "our optimization problem P2 holds a strong
/// duality if both f(x) and g(x) are convex".
#[test]
fn claim_lemma_51_strong_duality() {
    let k = 8usize;
    let f: Vec<f64> = (0..=k).map(|i| 3.0 * i as f64).collect();
    let mut g: Vec<f64> = (0..=k).map(|i| 40.0 * 0.5f64.powi(i as i32)).collect();
    g[k] = 0.0;
    let p = CostProfile::from_vectors("convex", f, g, None);
    let (primal, dual) = duality_gap(&p, 256);
    assert!((primal - dual).abs() <= primal * 0.02 + 1e-6);
}

/// §5.1, Theorem 5.2 — "partitioning all homogeneous line-structure
/// DAGs at the same point could reach the optimal makespan" in the
/// continuous relaxation: the balanced cut minimises the objective.
#[test]
fn claim_theorem_52_balanced_cut() {
    let p = CostProfile::from_vectors(
        "t52",
        vec![0.0, 2.0, 4.0, 7.0, 9.0],
        vec![20.0, 8.0, 5.0, 2.0, 0.0],
        None,
    );
    let x_star = balanced_cut_continuous(&p);
    let best = mcdnn_partition::continuous::relaxed_objective(&p, x_star);
    for i in 0..=64 {
        let x = 4.0 * i as f64 / 64.0;
        assert!(mcdnn_partition::continuous::relaxed_objective(&p, x) >= best - 1e-9);
    }
}

/// §5.1, Theorem 5.3 — "performing two types of partitions on
/// different DNNs is sufficient to reach the optimal makespan" under
/// the stated conditions.
#[test]
fn claim_theorem_53_two_types_suffice() {
    let p = CostProfile::from_vectors(
        "t53",
        vec![0.0, 4.0, 6.0, 50.0],
        vec![60.0, 6.0, 4.0, 0.0],
        None,
    );
    let s = binary_search_cut(&p);
    assert!(theorem53_condition(&p, s.l_star));
    for n in [2usize, 4, 6] {
        let mut cuts = vec![s.l_star - 1; n / 2];
        cuts.extend(std::iter::repeat_n(s.l_star, n - n / 2));
        let mixed = Plan::from_cuts(Strategy::Jps, &p, cuts).makespan_ms;
        assert_eq!(mixed, Strategy::BruteForce.plan(&p, n).makespan_ms, "n = {n}");
    }
}

/// §5.2, Alg. 2 — "the complexity of the search algorithm is
/// O(log k)" and it lands on the left-most crossing: equivalent to the
/// linear scan on every zoo profile.
#[test]
fn claim_alg2_binary_search_correct() {
    for model in Model::ALL {
        for net in [NetworkModel::three_g(), NetworkModel::wifi()] {
            let s = Scenario::paper_default(model, net);
            assert_eq!(
                binary_search_cut(s.profile()).l_star,
                s.profile().l_star_linear(),
                "{model}"
            );
        }
    }
}

/// §5.3, Alg. 3 — general-structure partitions are valid predecessor
/// closures and never lose to the pure line view.
#[test]
fn claim_alg3_general_structure() {
    let g = Model::SqueezeNet.graph();
    let plan = mcdnn_partition::general_jps_plan(
        &g,
        10,
        &DeviceModel::raspberry_pi4(),
        &NetworkModel::wifi(),
        4096,
    )
    .unwrap();
    let on_mobile = g.mobile_side(&plan.cut_nodes);
    for (u, v) in g.edges() {
        if on_mobile[v.index()] {
            assert!(on_mobile[u.index()]);
        }
    }
    assert!(plan.best_makespan_ms() <= plan.line_plan.makespan_ms + 1e-9);
}

/// §6.3, Fig. 11 — "our scheme could generate optimal scheduling":
/// JPS equals brute force on AlexNet′ at small n.
#[test]
fn claim_fig11_jps_matches_bf() {
    let s = Scenario::paper_default(Model::AlexNetPrime, NetworkModel::wifi());
    for n in [2usize, 4, 8] {
        assert_eq!(
            s.plan(Strategy::Jps, n).makespan_ms,
            s.plan(Strategy::BruteForce, n).makespan_ms,
            "n = {n}"
        );
    }
}

/// §6.3, Fig. 12 — "our joint optimization scheme JPS has the best
/// performance for all types of DNNs in all network environments".
#[test]
fn claim_fig12_jps_best_everywhere() {
    for model in Model::EVALUATED {
        for net in [
            NetworkModel::three_g(),
            NetworkModel::four_g(),
            NetworkModel::wifi(),
        ] {
            let s = Scenario::paper_default(model, net);
            let jps = s.plan(Strategy::Jps, 100).makespan_ms;
            for other in [
                Strategy::LocalOnly,
                Strategy::CloudOnly,
                Strategy::PartitionOnly,
            ] {
                assert!(jps <= s.plan(other, 100).makespan_ms + 1e-6, "{model}");
            }
        }
    }
}

/// §6.3 — "it costs more than 4,000 ms to upload the input tensor"
/// at 3G (the CO-off-chart remark under Fig. 12(a)).
#[test]
fn claim_co_exceeds_4s_at_3g() {
    for model in Model::EVALUATED {
        let s = Scenario::paper_default(model, NetworkModel::three_g());
        assert!(
            s.plan(Strategy::CloudOnly, 1).makespan_ms > 4000.0,
            "{model}"
        );
    }
}

/// §6.3, Fig. 13 — "our JPS scheme can speedup both AlexNet and
/// MobileNet in bandwidth range of [1, 20] Mbps".
#[test]
fn claim_fig13_benefit_range() {
    let mbps: Vec<f64> = (1..=20).map(|b| b as f64).collect();
    let engine = Engine::default();
    for model in [Model::AlexNet, Model::MobileNetV2] {
        let rows = bandwidth_sweep(engine.pool(), model, &mbps, 50);
        let range = benefit_range(&rows, 1e-6);
        assert_eq!(range.len(), mbps.len(), "{model}: gaps in [1, 20] Mbps");
    }
}

/// §6.3, Fig. 14 — "the optimal ratio between two types of jobs is
/// not 1, and it varies with the bandwidth configurations".
#[test]
fn claim_fig14_ratio_shifts() {
    let ratios: Vec<f64> = (2..=10).map(|i| i as f64 / 10.0).collect();
    let engine = Engine::default();
    let rows = ratio_sweep(
        engine.pool(),
        Model::GoogLeNet,
        &[9.0, 10.0, 11.0],
        &ratios,
        100,
    );
    let best_at = |b: f64| {
        rows.iter()
            .filter(|r| r.bandwidth_mbps == b)
            .min_by(|x, y| x.makespan_ms.total_cmp(&y.makespan_ms))
            .unwrap()
            .ratio
    };
    let (r9, r11) = (best_at(9.0), best_at(11.0));
    assert!(r9 < 1.0, "optimal ratio at 9 Mbps is {r9}, expected < 1");
    assert_ne!(r9, r11, "optimum must shift with bandwidth");
}

/// §6.3, Fig. 12(d) — "the overhead is negligible compared with the
/// inference time".
#[test]
fn claim_fig12d_overhead_negligible() {
    let s = Scenario::paper_default(Model::GoogLeNet, NetworkModel::wifi());
    let timed = s.plan_timed(Strategy::Jps, 100);
    let overhead_ms = timed.decision_time.as_secs_f64() * 1e3;
    assert!(overhead_ms < 0.001 * timed.plan.makespan_ms);
}
