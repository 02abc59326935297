//! Edge-cloud planning: joint partition + scheduling when the remote
//! stage is **not** negligible.
//!
//! The paper reduces scheduling to two stages after observing the
//! GTX1080 cloud is ~500× the mobile device (Fig. 4(a)). Offloading to
//! a loaded *edge* server (a few × the mobile throughput) breaks that
//! reduction: the third stage queues, and a cut that balanced `f` and
//! `g` may drown the edge. This module extends JPS to that regime using
//! the `F3` machinery ([`mcdnn_flowshop::three`]): every candidate cut
//! family is scheduled with the best of Johnson-surrogate/CDS/NEH and
//! evaluated by the exact three-stage recurrence.

use mcdnn_flowshop::three::three_stage_order;
use mcdnn_flowshop::{makespan_three_stage, FlowJob};
use mcdnn_profile::CostProfile;

use crate::alg2::binary_search_cut;
use crate::plan::Strategy;

/// A three-stage plan.
#[derive(Debug, Clone)]
pub struct EdgePlan {
    /// Per-job cut points.
    pub cuts: Vec<usize>,
    /// Processing order (best of the F3 heuristics).
    pub order: Vec<usize>,
    /// Exact three-stage makespan, ms.
    pub makespan_ms: f64,
}

/// Materialise three-stage jobs for a cut assignment.
pub(crate) fn edge_jobs(profile: &CostProfile, cuts: &[usize]) -> Vec<FlowJob> {
    cuts.iter()
        .enumerate()
        .map(|(id, &c)| FlowJob::three_stage(id, profile.f(c), profile.g(c), profile.cloud(c)))
        .collect()
}

fn evaluate(profile: &CostProfile, cuts: Vec<usize>) -> EdgePlan {
    let jobs = edge_jobs(profile, &cuts);
    let order = three_stage_order(&jobs);
    let makespan_ms = makespan_three_stage(&jobs, &order);
    EdgePlan {
        cuts,
        order,
        makespan_ms,
    }
}

/// Three-stage-aware JPS: uniform cuts at every layer plus two-type
/// mixes around both the `f/g` crossing and the `f/(g+cloud)` crossing,
/// each scheduled with the F3 heuristics.
pub fn edge_jps_plan(profile: &CostProfile, n: usize) -> EdgePlan {
    let mut best: Option<EdgePlan> = None;
    let mut consider = |cuts: Vec<usize>| {
        let plan = evaluate(profile, cuts);
        if best.as_ref().is_none_or(|b| plan.makespan_ms < b.makespan_ms) {
            best = Some(plan);
        }
    };
    for l in 0..=profile.k() {
        consider(vec![l; n]);
    }
    let k = profile.k();
    // Tiny instances: exact search over every cut multiset with exact
    // permutation ordering (F3 has no optimal rule, so both dimensions
    // must be enumerated).
    if n <= 6 && multiset_count(n, k) <= 2_000 {
        let mut counts = vec![0usize; k + 1];
        enumerate_cut_multisets(&mut counts, 0, n, &mut |counts| {
            let mut cuts = Vec::with_capacity(n);
            for (cut, &c) in counts.iter().enumerate() {
                cuts.extend(std::iter::repeat_n(cut, c));
            }
            let jobs = edge_jobs(profile, &cuts);
            let (order, span) =
                mcdnn_flowshop::three::best_three_stage_permutation(&jobs);
            if best.as_ref().is_none_or(|b| span < b.makespan_ms) {
                best = Some(EdgePlan {
                    cuts,
                    order,
                    makespan_ms: span,
                });
            }
        });
        return best.expect("at least one multiset");
    }
    if (k + 1) * (k + 1) * n <= 20_000 {
        // Small instance: two-type mixes of EVERY cut pair.
        for l1 in 0..k {
            for l2 in (l1 + 1)..=k {
                for m in 1..n {
                    let mut cuts = vec![l1; m];
                    cuts.extend(std::iter::repeat_n(l2, n - m));
                    consider(cuts);
                }
            }
        }
    } else {
        // Mixes around the f/g crossing (the 2-stage l*).
        let search = binary_search_cut(profile);
        if let Some(prev) = search.l_prev {
            for m in mix_grid(n) {
                let mut cuts = vec![prev; m];
                cuts.extend(std::iter::repeat_n(search.l_star, n - m));
                consider(cuts);
            }
        }
        // Mixes around the f vs (g + cloud) crossing: the point where
        // local work balances the whole remote pipeline.
        let l_remote = (0..=k)
            .find(|&l| profile.f(l) >= profile.g(l) + profile.cloud(l))
            .unwrap_or(k);
        if l_remote > 0 && l_remote != search.l_star {
            for m in mix_grid(n) {
                let mut cuts = vec![l_remote - 1; m];
                cuts.extend(std::iter::repeat_n(l_remote, n - m));
                consider(cuts);
            }
        }
    }
    // Guarantee dominance over the 2-stage-blind plan: adopt its cut
    // assignment as a candidate (with the better of its own order and
    // the F3 heuristic orders).
    let blind = two_stage_blind_plan(profile, n);
    let blind_jobs = edge_jobs(profile, &blind.cuts);
    let blind_reordered = three_stage_order(&blind_jobs);
    let blind_best = if makespan_three_stage(&blind_jobs, &blind_reordered) < blind.makespan_ms {
        EdgePlan {
            cuts: blind.cuts.clone(),
            order: blind_reordered,
            makespan_ms: makespan_three_stage(
                &blind_jobs,
                &three_stage_order(&blind_jobs),
            ),
        }
    } else {
        blind
    };
    if best
        .as_ref()
        .is_none_or(|b| blind_best.makespan_ms < b.makespan_ms)
    {
        best = Some(blind_best);
    }
    best.expect("k + 1 >= 1 candidates")
}

/// Two-stage-blind baseline: plan with the paper's 2-stage JPS, then
/// pay the real three-stage cost. Quantifies what ignoring a slow cloud
/// costs.
pub fn two_stage_blind_plan(profile: &CostProfile, n: usize) -> EdgePlan {
    let plan2 = Strategy::JpsBestMix.plan(profile, n);
    let jobs = edge_jobs(profile, &plan2.cuts);
    let makespan_ms = makespan_three_stage(&jobs, &plan2.order);
    EdgePlan {
        cuts: plan2.cuts,
        order: plan2.order,
        makespan_ms,
    }
}

fn multiset_count(n: usize, k: usize) -> u128 {
    // C(n + k, k)
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n + k - i) as u128) / (i as u128 + 1);
    }
    acc
}

fn enumerate_cut_multisets(
    counts: &mut Vec<usize>,
    pos: usize,
    remaining: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    if pos == counts.len() - 1 {
        counts[pos] = remaining;
        visit(counts);
        counts[pos] = 0;
        return;
    }
    for take in 0..=remaining {
        counts[pos] = take;
        enumerate_cut_multisets(counts, pos + 1, remaining - take, visit);
    }
    counts[pos] = 0;
}

fn mix_grid(n: usize) -> Vec<usize> {
    if n <= 16 {
        (1..n).collect()
    } else {
        let mut ms: Vec<usize> = (1..16).map(|i| n * i / 16).collect();
        ms.dedup();
        ms.retain(|&m| m > 0 && m < n);
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profile with a genuinely slow cloud: cloud(l) comparable to f/g.
    fn edge_profile() -> CostProfile {
        CostProfile::from_vectors(
            "edge",
            vec![0.0, 3.0, 6.0, 9.0, 12.0],
            vec![16.0, 9.0, 5.0, 2.0, 0.0],
            Some(vec![10.0, 7.0, 4.0, 2.0, 0.0]),
        )
    }

    #[test]
    fn edge_plan_never_loses_to_blind_plan() {
        let p = edge_profile();
        for n in [1usize, 4, 10, 40] {
            let aware = edge_jps_plan(&p, n);
            let blind = two_stage_blind_plan(&p, n);
            assert!(
                aware.makespan_ms <= blind.makespan_ms + 1e-9,
                "n={n}: aware {} vs blind {}",
                aware.makespan_ms,
                blind.makespan_ms
            );
        }
    }

    #[test]
    fn negligible_cloud_recovers_two_stage_plan() {
        let p = CostProfile::from_vectors(
            "fast-cloud",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![50.0, 6.0, 2.0, 0.0],
            None,
        );
        let aware = edge_jps_plan(&p, 10);
        let two = Strategy::JpsBestMix.plan(&p, 10);
        assert!((aware.makespan_ms - two.makespan_ms).abs() < 1e-9);
    }

    #[test]
    fn slow_edge_pushes_cut_deeper() {
        // With a slow edge, more work should stay on the mobile device
        // (deeper or equal cuts) than with a free cloud.
        let slow = edge_profile();
        let fast = CostProfile::from_vectors(
            "fast",
            vec![0.0, 3.0, 6.0, 9.0, 12.0],
            vec![16.0, 9.0, 5.0, 2.0, 0.0],
            None,
        );
        let n = 20;
        let mean = |cuts: &[usize]| {
            cuts.iter().sum::<usize>() as f64 / cuts.len() as f64
        };
        let cut_slow = mean(&edge_jps_plan(&slow, n).cuts);
        let cut_fast = mean(&edge_jps_plan(&fast, n).cuts);
        assert!(
            cut_slow >= cut_fast - 1e-9,
            "slow edge cut {cut_slow} vs fast cloud cut {cut_fast}"
        );
    }

    #[test]
    fn matches_three_stage_brute_force_on_tiny_instances() {
        use mcdnn_flowshop::three::best_three_stage_permutation;
        let p = edge_profile();
        for n in [2usize, 3, 4] {
            let aware = edge_jps_plan(&p, n);
            // Exhaustive over ALL cut assignments × permutations.
            let mut best = f64::INFINITY;
            let mut counts = vec![0usize; p.k() + 1];
            fn rec(
                p: &CostProfile,
                counts: &mut Vec<usize>,
                pos: usize,
                left: usize,
                best: &mut f64,
            ) {
                if pos == counts.len() - 1 {
                    counts[pos] = left;
                    let mut cuts = Vec::new();
                    for (c, &k) in counts.iter().enumerate() {
                        cuts.extend(std::iter::repeat_n(c, k));
                    }
                    let jobs = edge_jobs(p, &cuts);
                    let (_, span) = best_three_stage_permutation(&jobs);
                    if span < *best {
                        *best = span;
                    }
                    counts[pos] = 0;
                    return;
                }
                for take in 0..=left {
                    counts[pos] = take;
                    rec(p, counts, pos + 1, left - take, best);
                }
                counts[pos] = 0;
            }
            rec(&p, &mut counts, 0, n, &mut best);
            assert!(
                aware.makespan_ms <= best * 1.03 + 1e-9,
                "n={n}: aware {} vs exhaustive {best}",
                aware.makespan_ms
            );
        }
    }
}
