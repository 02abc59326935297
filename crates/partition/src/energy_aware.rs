//! Energy-aware partition planning: the latency/energy Pareto front.
//!
//! JPS minimises makespan; a battery-constrained device may prefer a
//! slightly slower plan that keeps the radio or the CPU quieter. Over
//! the same candidate family as JPS (uniform cuts + adjacent two-type
//! mixes), this module computes every plan's `(makespan, energy)` pair,
//! extracts the Pareto-efficient set, and answers the practical query
//! of minimum energy under a latency budget.

use mcdnn_profile::energy::EnergyModel;
use mcdnn_profile::CostProfile;

use crate::alg2::binary_search_cut;
use crate::plan::{Plan, Strategy};

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct EnergyPoint {
    /// The plan.
    pub plan: Plan,
    /// Batch makespan, ms.
    pub makespan_ms: f64,
    /// Mobile device energy over the batch, mJ.
    pub energy_mj: f64,
}

/// Evaluate the device energy of a plan: active compute = Σf, active
/// tx = Σg, idle for the rest of the makespan.
pub(crate) fn plan_energy_mj(profile: &CostProfile, plan: &Plan, energy: &EnergyModel) -> f64 {
    let busy_f: f64 = plan.cuts.iter().map(|&c| profile.f(c)).sum();
    let busy_g: f64 = plan.cuts.iter().map(|&c| profile.g(c)).sum();
    energy.batch_mj(busy_f, busy_g, plan.makespan_ms.max(busy_f.max(busy_g)))
}

/// All candidate plans with their `(makespan, energy)` coordinates.
pub(crate) fn candidate_points(
    profile: &CostProfile,
    n: usize,
    energy: &EnergyModel,
) -> Vec<EnergyPoint> {
    let mut plans: Vec<Plan> = (0..=profile.k())
        .map(|l| Plan::from_cuts(Strategy::Jps, profile, vec![l; n]))
        .collect();
    let search = binary_search_cut(profile);
    if let Some(prev) = search.l_prev {
        let ms: Vec<usize> = if n <= 64 {
            (1..n).collect()
        } else {
            let mut ms: Vec<usize> =
                (1..64).map(|i| n * i / 64).filter(|&m| m > 0 && m < n).collect();
            ms.dedup();
            ms
        };
        for m in ms {
            let mut cuts = vec![prev; m];
            cuts.extend(std::iter::repeat_n(search.l_star, n - m));
            plans.push(Plan::from_cuts(Strategy::Jps, profile, cuts));
        }
    }
    plans
        .into_iter()
        .map(|plan| {
            let energy_mj = plan_energy_mj(profile, &plan, energy);
            EnergyPoint {
                makespan_ms: plan.makespan_ms,
                energy_mj,
                plan,
            }
        })
        .collect()
}

/// The Pareto-efficient subset (minimal in both makespan and energy),
/// sorted by ascending makespan.
pub fn pareto_front(profile: &CostProfile, n: usize, energy: &EnergyModel) -> Vec<EnergyPoint> {
    let mut points = candidate_points(profile, n, energy);
    points.sort_by(|a, b| {
        a.makespan_ms
            .total_cmp(&b.makespan_ms)
            .then(a.energy_mj.total_cmp(&b.energy_mj))
    });
    let mut front: Vec<EnergyPoint> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in points {
        if p.energy_mj < best_energy - 1e-9 {
            best_energy = p.energy_mj;
            front.push(p);
        }
    }
    front
}

/// Minimum-energy plan whose makespan stays within `latency_budget_ms`.
/// `None` when no candidate fits the budget.
pub fn min_energy_plan(
    profile: &CostProfile,
    n: usize,
    energy: &EnergyModel,
    latency_budget_ms: f64,
) -> Option<EnergyPoint> {
    candidate_points(profile, n, energy)
        .into_iter()
        .filter(|p| p.makespan_ms <= latency_budget_ms + 1e-9)
        .min_by(|a, b| a.energy_mj.total_cmp(&b.energy_mj))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CostProfile {
        CostProfile::from_vectors(
            "e",
            vec![0.0, 10.0, 40.0, 120.0],
            vec![200.0, 60.0, 20.0, 0.0],
            None,
        )
    }

    fn energy() -> EnergyModel {
        EnergyModel::new(6.0, 4.0, 2.0)
    }

    #[test]
    fn pareto_front_is_monotone() {
        let front = pareto_front(&profile(), 10, &energy());
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[1].makespan_ms > w[0].makespan_ms);
            assert!(w[1].energy_mj < w[0].energy_mj);
        }
    }

    #[test]
    fn front_contains_the_jps_optimum() {
        let p = profile();
        let jps = Strategy::JpsBestMix.plan(&p, 10);
        let front = pareto_front(&p, 10, &energy());
        let fastest = &front[0];
        assert!(
            fastest.makespan_ms <= jps.makespan_ms + 1e-9,
            "front head {} vs JPS {}",
            fastest.makespan_ms,
            jps.makespan_ms
        );
    }

    #[test]
    fn front_points_are_mutually_nondominated() {
        let front = pareto_front(&profile(), 8, &energy());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = a.makespan_ms <= b.makespan_ms + 1e-9
                    && a.energy_mj <= b.energy_mj + 1e-9;
                assert!(!dominates, "point {i} dominates {j}");
            }
        }
    }

    #[test]
    fn latency_budget_trades_energy() {
        let p = profile();
        let e = energy();
        let tight = min_energy_plan(&p, 10, &e, pareto_front(&p, 10, &e)[0].makespan_ms);
        let loose = min_energy_plan(&p, 10, &e, f64::INFINITY);
        let (tight, loose) = (tight.unwrap(), loose.unwrap());
        assert!(loose.energy_mj <= tight.energy_mj);
        assert!(loose.makespan_ms >= tight.makespan_ms);
    }

    #[test]
    fn impossible_budget_returns_none() {
        assert!(min_energy_plan(&profile(), 10, &energy(), 0.001).is_none());
    }

    #[test]
    fn plan_energy_counts_both_resources() {
        let p = profile();
        let e = energy();
        let plan = Plan::from_cuts(Strategy::Jps, &p, vec![1, 1]);
        // Σf = 20, Σg = 120, makespan = 10 + 60 + 60 = 130.
        let mj = plan_energy_mj(&p, &plan, &e);
        let expect = 2.0 * 130.0 + 4.0 * 20.0 + 2.0 * 120.0;
        assert!((mj - expect).abs() < 1e-9, "got {mj}, want {expect}");
    }
}
