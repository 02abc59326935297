//! Pre-kernel reference implementations of the JPS planners.
//!
//! These are the original O(n log n)-per-candidate planners: every
//! candidate is fully materialized (cut vector → jobs → Johnson sort →
//! makespan recurrence) before it is compared. The shipped planners in
//! [`crate::jps`] score candidates with the O(1) closed-form kernels of
//! `mcdnn_flowshop::kernels` and materialize only the winner.
//!
//! Kept — not as dead code — for two consumers:
//!
//! * the property tests, which assert the refactored planners return
//!   bit-identical `(cuts, order, makespan_ms)` against these;
//! * the `planner_bench` binary, which measures the speedup of the
//!   kernel path over this path and commits the numbers to
//!   `BENCH_planner.json`.

use mcdnn_profile::CostProfile;

use crate::alg2::binary_search_cut;
use crate::plan::{Plan, Strategy};

/// `split_by_ratio` as shipped before the kernel refactor, with the
/// ratio capped at `2n` like the planner's.
fn split_by_ratio(n: usize, ratio: usize) -> (usize, usize) {
    let ratio = ratio.min(2 * n);
    let group = ratio + 1;
    let full_groups = n / group;
    let remainder = n % group;
    (full_groups * ratio, full_groups + remainder)
}

/// `ratio_mix_cuts` as shipped before the kernel refactor.
fn ratio_mix_cuts(profile: &CostProfile, n: usize) -> Vec<usize> {
    let search = binary_search_cut(profile);
    let l_star = search.l_star;
    match (search.l_prev, search.ratio) {
        (None, _) | (_, None) => vec![l_star; n],
        (Some(prev), Some(ratio)) => {
            if ratio == 0 {
                vec![l_star; n]
            } else {
                let (at_prev, at_star) = split_by_ratio(n, ratio);
                let mut cuts = vec![prev; at_prev];
                cuts.extend(std::iter::repeat_n(l_star, at_star));
                cuts
            }
        }
    }
}

/// The original `jps_plan`: each candidate cut vector is turned into a
/// full [`Plan`] (jobs, Johnson order, recurrence makespan) before the
/// strict-`<` comparison.
pub fn jps_plan(profile: &CostProfile, n: usize) -> Plan {
    let mut best: Option<Plan> = None;
    let mut consider = |cuts: Vec<usize>| {
        let plan = Plan::from_cuts(Strategy::Jps, profile, cuts);
        if best.as_ref().is_none_or(|b| plan.makespan_ms < b.makespan_ms) {
            best = Some(plan);
        }
    };
    for l in 0..=profile.k() {
        consider(vec![l; n]);
    }
    consider(ratio_mix_cuts(profile, n));
    let search = binary_search_cut(profile);
    if let (Some(prev), Some(ratio)) = (search.l_prev, search.ratio) {
        if ratio > 0 && n > 0 {
            let ratio = ratio.min(2 * n);
            let at_prev =
                (((n * ratio) as f64 / (ratio + 1) as f64).round() as usize).min(n);
            let mut cuts = vec![prev; at_prev];
            cuts.extend(std::iter::repeat_n(search.l_star, n - at_prev));
            consider(cuts);
        }
    }
    best.expect("k + 1 >= 1 uniform candidates evaluated")
}

/// The original `jps_best_mix_plan`: O(n) candidate plans, each built
/// and evaluated in O(n log n) — O(n² log n) total.
pub fn jps_best_mix_plan(profile: &CostProfile, n: usize) -> Plan {
    let mut best = {
        let mut p = jps_plan(profile, n);
        p.strategy = Strategy::JpsBestMix;
        p
    };
    let search = binary_search_cut(profile);
    let Some(prev) = search.l_prev else {
        return best;
    };
    for m in 0..=n {
        let mut cuts = vec![prev; m];
        cuts.extend(std::iter::repeat_n(search.l_star, n - m));
        let plan = Plan::from_cuts(Strategy::JpsBestMix, profile, cuts);
        if plan.makespan_ms < best.makespan_ms {
            best = plan;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_reproduces_fig2_optimum() {
        let p = CostProfile::from_vectors(
            "t",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![9.0, 6.0, 2.0, 0.0],
            None,
        );
        assert_eq!(jps_best_mix_plan(&p, 2).makespan_ms, 13.0);
        assert_eq!(jps_plan(&p, 2).n(), 2);
    }
}
