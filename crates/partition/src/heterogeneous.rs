//! Heterogeneous job sets — the paper's stated open problem
//! (§7: "Joint partition and scheduling for … heterogeneous jobs is
//! worth further investigation").
//!
//! The device now holds jobs from *different* DNNs (e.g. a detector and
//! a segmenter per frame): group `g` has its own cost profile and job
//! count. Johnson's rule still schedules optimally once every job's
//! stage durations are fixed, so the joint problem reduces to choosing
//! a cut per group (or a two-type mix per group, as in the homogeneous
//! theory).
//!
//! The planner searches the product of per-group candidate sets, where
//! each group's candidates are Theorem 5.2/5.3's survivors — every
//! uniform cut plus the adjacent mix around its own crossing `l*` —
//! pruned by dominance. Product search is exact over that candidate
//! family and stays tiny (`∏ (k_g + 2)` with `k_g ≤ ~6` after
//! clustering); a guard falls back to coordinate descent when the
//! product explodes.

use mcdnn_flowshop::{johnson_order, makespan, FlowJob};
use mcdnn_profile::CostProfile;

use crate::alg2::binary_search_cut;

/// One group of identical jobs inside a heterogeneous batch.
#[derive(Debug, Clone)]
pub struct JobGroup {
    /// Cost profile of this group's DNN.
    pub profile: CostProfile,
    /// Number of jobs in the group.
    pub count: usize,
}

/// A per-group cut decision. `mix` is `Some((prev, m))` when `m` of the
/// group's jobs are cut at `prev = l − 1` instead of `cut`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCut {
    /// Primary cut layer for the group.
    pub cut: usize,
    /// Optional two-type mix: `(previous layer, jobs moved there)`.
    pub mix: Option<(usize, usize)>,
}

/// Plan for a heterogeneous batch.
#[derive(Debug, Clone)]
pub struct HeteroPlan {
    /// One decision per input group.
    pub cuts: Vec<GroupCut>,
    /// Flow-shop jobs of the whole batch (ids are batch-global, grouped
    /// by input group in order).
    pub jobs: Vec<FlowJob>,
    /// Johnson processing order over the batch.
    pub order: Vec<usize>,
    /// Batch makespan, ms.
    pub makespan_ms: f64,
}

/// Candidate cut choices for one group.
fn group_candidates(profile: &CostProfile, count: usize) -> Vec<GroupCut> {
    let mut out: Vec<GroupCut> = (0..=profile.k())
        .map(|cut| GroupCut { cut, mix: None })
        .collect();
    let search = binary_search_cut(profile);
    if let Some(prev) = search.l_prev {
        // All mix counts for small groups; otherwise a grid around the
        // balance point plus the ratio-formula count.
        let mut ms: Vec<usize> = if count <= 12 {
            (1..count).collect()
        } else {
            let mut ms: Vec<usize> = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
                .iter()
                .map(|f| ((count as f64) * f).round() as usize)
                .collect();
            if let Some(ratio) = search.ratio {
                if ratio > 0 {
                    // Capped: ⌊c·r/(r+1)⌋ = c − 1 for every r ≥ c − 1.
                    let ratio = ratio.min(2 * count);
                    ms.push((count * ratio) / (ratio + 1));
                }
            }
            ms
        };
        ms.sort_unstable();
        ms.dedup();
        for m in ms {
            if m > 0 && m < count {
                out.push(GroupCut {
                    cut: search.l_star,
                    mix: Some((prev, m)),
                });
            }
        }
    }
    out
}

/// Materialise one group's flow jobs for a decision.
fn group_jobs(profile: &CostProfile, count: usize, decision: &GroupCut, id0: usize) -> Vec<FlowJob> {
    let mut jobs = Vec::with_capacity(count);
    let (at_prev, prev) = match decision.mix {
        Some((prev, m)) => (m, prev),
        None => (0, decision.cut),
    };
    for i in 0..count {
        let cut = if i < at_prev { prev } else { decision.cut };
        jobs.push(FlowJob::three_stage(
            id0 + i,
            profile.f(cut),
            profile.g(cut),
            profile.cloud(cut),
        ));
    }
    jobs
}

fn evaluate(groups: &[JobGroup], decisions: &[GroupCut]) -> (Vec<FlowJob>, Vec<usize>, f64) {
    let mut jobs = Vec::new();
    for (g, d) in groups.iter().zip(decisions) {
        let id0 = jobs.len();
        jobs.extend(group_jobs(&g.profile, g.count, d, id0));
    }
    let order = johnson_order(&jobs);
    let span = makespan(&jobs, &order);
    (jobs, order, span)
}

/// Cap on the candidate-product size before falling back to coordinate
/// descent.
pub(crate) const PRODUCT_CAP: usize = 200_000;

/// Joint partition + scheduling for a heterogeneous batch.
///
/// Exact over the per-group candidate family when the product of
/// candidate counts is at most `PRODUCT_CAP` (200,000); otherwise
/// coordinate descent over the same family (monotone improving, hence
/// terminating).
pub fn hetero_jps_plan(groups: &[JobGroup]) -> HeteroPlan {
    assert!(!groups.is_empty(), "need at least one group");
    let candidates: Vec<Vec<GroupCut>> = groups
        .iter()
        .map(|g| group_candidates(&g.profile, g.count))
        .collect();
    let product: usize = candidates
        .iter()
        .map(Vec::len)
        .try_fold(1usize, |acc, len| acc.checked_mul(len))
        .unwrap_or(usize::MAX);

    let best_decisions = if product <= PRODUCT_CAP {
        exhaustive_product(groups, &candidates)
    } else {
        coordinate_descent(groups, &candidates)
    };
    let (jobs, order, makespan_ms) = evaluate(groups, &best_decisions);
    HeteroPlan {
        cuts: best_decisions,
        jobs,
        order,
        makespan_ms,
    }
}

fn exhaustive_product(groups: &[JobGroup], candidates: &[Vec<GroupCut>]) -> Vec<GroupCut> {
    let mut idx = vec![0usize; candidates.len()];
    let mut best: Option<(f64, Vec<GroupCut>)> = None;
    loop {
        let decisions: Vec<GroupCut> = idx
            .iter()
            .zip(candidates)
            .map(|(&i, c)| c[i].clone())
            .collect();
        let (_, _, span) = evaluate(groups, &decisions);
        if best.as_ref().is_none_or(|(b, _)| span < *b) {
            best = Some((span, decisions));
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == idx.len() {
                let (_, d) = best.expect("at least one combination");
                return d;
            }
            idx[pos] += 1;
            if idx[pos] < candidates[pos].len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

fn coordinate_descent(groups: &[JobGroup], candidates: &[Vec<GroupCut>]) -> Vec<GroupCut> {
    // Start from each group's own crossing cut.
    let mut decisions: Vec<GroupCut> = groups
        .iter()
        .map(|g| GroupCut {
            cut: binary_search_cut(&g.profile).l_star,
            mix: None,
        })
        .collect();
    let (_, _, mut best) = evaluate(groups, &decisions);
    loop {
        let mut improved = false;
        for g in 0..groups.len() {
            for cand in &candidates[g] {
                if *cand == decisions[g] {
                    continue;
                }
                let saved = std::mem::replace(&mut decisions[g], cand.clone());
                let (_, _, span) = evaluate(groups, &decisions);
                if span < best - 1e-12 {
                    best = span;
                    improved = true;
                } else {
                    decisions[g] = saved;
                }
            }
        }
        if !improved {
            return decisions;
        }
    }
}

/// Exact brute force over all per-group cut multisets (tiny instances
/// only) — the validation oracle for [`hetero_jps_plan`].
///
/// Panics when the total assignment count exceeds 5×10⁶.
#[cfg(test)]
fn hetero_brute_force(groups: &[JobGroup]) -> HeteroPlan {
    // Count multisets per group: C(count + k, k); product across groups.
    let mut total: u128 = 1;
    for g in groups {
        let (n, k) = (g.count, g.profile.k());
        let mut c: u128 = 1;
        for i in 0..k {
            c = c.saturating_mul((n + k - i) as u128) / (i as u128 + 1);
        }
        total = total.saturating_mul(c);
    }
    assert!(total <= 5_000_000, "hetero brute force too large: {total}");

    let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
    let mut per_group_cuts: Vec<Vec<usize>> = groups.iter().map(|g| vec![0; g.count]).collect();
    search_group(groups, 0, &mut per_group_cuts, &mut best);
    let (_, cuts) = best.expect("at least one assignment");

    // Materialise the best assignment.
    let mut jobs = Vec::new();
    for (g, group_cuts) in groups.iter().zip(&cuts) {
        for &c in group_cuts {
            let id = jobs.len();
            jobs.push(FlowJob::three_stage(
                id,
                g.profile.f(c),
                g.profile.g(c),
                g.profile.cloud(c),
            ));
        }
    }
    let order = johnson_order(&jobs);
    let makespan_ms = makespan(&jobs, &order);
    let decisions = cuts
        .iter()
        .map(|gc| GroupCut {
            cut: gc.last().copied().unwrap_or(0),
            mix: None,
        })
        .collect();
    HeteroPlan {
        cuts: decisions,
        jobs,
        order,
        makespan_ms,
    }
}

/// Recursive enumeration of non-decreasing cut assignments per group.
#[cfg(test)]
fn search_group(
    groups: &[JobGroup],
    g: usize,
    acc: &mut Vec<Vec<usize>>,
    best: &mut Option<(f64, Vec<Vec<usize>>)>,
) {
    if g == groups.len() {
        let mut jobs = Vec::new();
        for (grp, cuts) in groups.iter().zip(acc.iter()) {
            for &c in cuts {
                let id = jobs.len();
                jobs.push(FlowJob::two_stage(id, grp.profile.f(c), grp.profile.g(c)));
            }
        }
        let order = johnson_order(&jobs);
        let span = makespan(&jobs, &order);
        if best.as_ref().is_none_or(|(b, _)| span < *b) {
            *best = Some((span, acc.clone()));
        }
        return;
    }
    let k = groups[g].profile.k();
    fn rec(
        groups: &[JobGroup],
        g: usize,
        pos: usize,
        min_cut: usize,
        k: usize,
        acc: &mut Vec<Vec<usize>>,
        best: &mut Option<(f64, Vec<Vec<usize>>)>,
    ) {
        if pos == groups[g].count {
            search_group(groups, g + 1, acc, best);
            return;
        }
        for c in min_cut..=k {
            acc[g][pos] = c;
            rec(groups, g, pos + 1, c, k, acc, best);
        }
    }
    rec(groups, g, 0, 0, k, acc, best);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(f: Vec<f64>, g: Vec<f64>) -> CostProfile {
        CostProfile::from_vectors("h", f, g, None)
    }

    fn two_groups() -> Vec<JobGroup> {
        vec![
            JobGroup {
                profile: profile(vec![0.0, 4.0, 7.0, 20.0], vec![50.0, 6.0, 2.0, 0.0]),
                count: 3,
            },
            JobGroup {
                profile: profile(vec![0.0, 2.0, 9.0], vec![10.0, 3.0, 0.0]),
                count: 2,
            },
        ]
    }

    #[test]
    fn tiny_deficit_ratio_plans_without_overflow() {
        // The ratio saturates at usize::MAX; groups above 12 jobs use it.
        let groups = vec![JobGroup {
            profile: profile(vec![0.0, 5.0, 1.0e6], vec![10.0, 5.0 + 5e-15, 0.0]),
            count: 13,
        }];
        let plan = hetero_jps_plan(&groups);
        assert_eq!(plan.jobs.len(), 13);
    }

    #[test]
    fn plan_covers_every_job() {
        let groups = two_groups();
        let plan = hetero_jps_plan(&groups);
        assert_eq!(plan.jobs.len(), 5);
        assert_eq!(plan.order.len(), 5);
        assert_eq!(plan.cuts.len(), 2);
        assert!(plan.makespan_ms > 0.0);
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let groups = two_groups();
        let jps = hetero_jps_plan(&groups);
        let bf = hetero_brute_force(&groups);
        assert!(
            jps.makespan_ms <= bf.makespan_ms * 1.02 + 1e-9,
            "hetero JPS {} too far above optimum {}",
            jps.makespan_ms,
            bf.makespan_ms
        );
        assert!(bf.makespan_ms <= jps.makespan_ms + 1e-9);
    }

    #[test]
    fn single_group_reduces_to_homogeneous_jps() {
        let p = profile(vec![0.0, 4.0, 7.0, 20.0], vec![50.0, 6.0, 2.0, 0.0]);
        let groups = vec![JobGroup {
            profile: p.clone(),
            count: 6,
        }];
        let hetero = hetero_jps_plan(&groups);
        let homo = crate::Strategy::JpsBestMix.plan(&p, 6);
        // Same candidate family (uniform cuts + adjacent mixes): within
        // the mix-count granularity of the hetero candidates.
        assert!(
            hetero.makespan_ms <= homo.makespan_ms * 1.05 + 1e-9,
            "hetero {} vs homo {}",
            hetero.makespan_ms,
            homo.makespan_ms
        );
    }

    #[test]
    fn dominates_independent_planning() {
        // Planning the union jointly can never lose to concatenating
        // per-group plans (same cuts are available, plus Johnson over
        // the union interleaves groups).
        let groups = two_groups();
        let joint = hetero_jps_plan(&groups);
        let separate: f64 = groups
            .iter()
            .map(|g| crate::Strategy::JpsBestMix.plan(&g.profile, g.count).makespan_ms)
            .sum();
        assert!(
            joint.makespan_ms <= separate + 1e-9,
            "joint {} vs sequential {}",
            joint.makespan_ms,
            separate
        );
    }

    #[test]
    fn empty_group_handled() {
        let groups = vec![
            JobGroup {
                profile: profile(vec![0.0, 4.0], vec![3.0, 0.0]),
                count: 0,
            },
            JobGroup {
                profile: profile(vec![0.0, 2.0, 9.0], vec![10.0, 3.0, 0.0]),
                count: 2,
            },
        ];
        let plan = hetero_jps_plan(&groups);
        assert_eq!(plan.jobs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn no_groups_rejected() {
        hetero_jps_plan(&[]);
    }

    #[test]
    fn mixed_decision_counts_jobs_correctly() {
        let p = profile(vec![0.0, 4.0, 6.0, 30.0], vec![40.0, 6.0, 4.0, 0.0]);
        let d = GroupCut {
            cut: 2,
            mix: Some((1, 2)),
        };
        let jobs = group_jobs(&p, 5, &d, 10);
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[0].id, 10);
        let at_prev = jobs.iter().filter(|j| j.compute_ms == p.f(1)).count();
        assert_eq!(at_prev, 2);
    }

    #[test]
    fn three_group_batch() {
        let groups = vec![
            JobGroup {
                profile: profile(vec![0.0, 5.0, 9.0], vec![12.0, 4.0, 0.0]),
                count: 2,
            },
            JobGroup {
                profile: profile(vec![0.0, 1.0, 3.0, 8.0], vec![9.0, 5.0, 2.0, 0.0]),
                count: 2,
            },
            JobGroup {
                profile: profile(vec![0.0, 6.0], vec![7.0, 0.0]),
                count: 2,
            },
        ];
        let jps = hetero_jps_plan(&groups);
        let bf = hetero_brute_force(&groups);
        assert!((jps.makespan_ms - bf.makespan_ms).abs() / bf.makespan_ms < 0.05);
    }
}
