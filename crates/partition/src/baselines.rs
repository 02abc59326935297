//! Comparison strategies from the paper's §6.2: LO, CO, PO and the
//! exact joint brute force (BF).
//!
//! The implementations are crate-private: the public surface is
//! [`Strategy::plan`]/[`Strategy::try_plan`](crate::Strategy::try_plan),
//! which dispatch here and (for `try_plan`) report infeasibility as a
//! value rather than a panic.

use mcdnn_flowshop::kernels::johnson_blocks_makespan;
use mcdnn_obs::metrics;
use mcdnn_profile::CostProfile;

use crate::plan::{Plan, Strategy};

/// LO: every job runs fully on the mobile device (cut `k`).
pub(crate) fn local_only_plan(profile: &CostProfile, n: usize) -> Plan {
    Plan::from_cuts(Strategy::LocalOnly, profile, vec![profile.k(); n])
}

/// CO: every job uploads its raw input (cut `0`).
pub(crate) fn cloud_only_plan(profile: &CostProfile, n: usize) -> Plan {
    Plan::from_cuts(Strategy::CloudOnly, profile, vec![0; n])
}

/// PO: the state-of-the-art single-DNN partition (Neurosurgeon / DNN
/// surgery): choose the cut minimising one job's end-to-end latency
/// `f(l) + g(l) + cloud(l)` and apply it to every job. Scheduling
/// collaboration across jobs is ignored by construction (all jobs are
/// identical, so every order is equivalent).
pub(crate) fn partition_only_plan(profile: &CostProfile, n: usize) -> Plan {
    let best_cut = (0..=profile.k())
        .min_by(|&a, &b| {
            let la = profile.f(a) + profile.g(a) + profile.cloud(a);
            let lb = profile.f(b) + profile.g(b) + profile.cloud(b);
            la.total_cmp(&lb).then(a.cmp(&b))
        })
        .expect("profile has at least one cut");
    Plan::from_cuts(Strategy::PartitionOnly, profile, vec![best_cut; n])
}

/// BF: exact joint optimum — enumerate every multiset of cuts
/// (jobs are homogeneous, so only cut *counts* matter) and schedule
/// each with Johnson's rule (optimal for fixed cuts).
///
/// Each multiset is scored with the O(k log k) block kernel
/// ([`johnson_blocks_makespan`]) — a multiset *is* `k + 1` homogeneous
/// blocks, so per-candidate cost no longer depends on `n` and only the
/// winning multiset is expanded into a cut vector.
///
/// Complexity is `C(n + k, k)` multisets; callers should keep
/// `n` and `k` small (the paper uses BF only on small inputs).
/// Panics when the multiset count would exceed
/// [`BF_CANDIDATE_LIMIT`]; [`Strategy::try_plan`](crate::Strategy::try_plan)
/// reports the same condition as a
/// [`PlanError::TooManyCandidates`](crate::PlanError::TooManyCandidates)
/// instead.
pub(crate) fn brute_force_plan(profile: &CostProfile, n: usize) -> Plan {
    let _span = mcdnn_obs::span("planner", "brute_force_plan");
    let k = profile.k();
    let combos = brute_force_candidates(profile, n);
    assert!(
        combos <= BF_CANDIDATE_LIMIT,
        "joint brute force would enumerate {combos} multisets; reduce n or k"
    );
    metrics::PLANNER_BF_CALLS.add(1);
    // Every multiset is scored with exactly one block-kernel call.
    metrics::PLANNER_BF_CANDIDATES.add(combos as u64);
    metrics::PLANNER_KERNEL_EVALS.add(combos as u64);
    let fg: Vec<(f64, f64)> = (0..=k).map(|c| (profile.f(c), profile.g(c))).collect();
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut counts = vec![0usize; k + 1];
    let mut blocks: Vec<(usize, f64, f64)> = Vec::with_capacity(k + 1);
    enumerate_multisets(&mut counts, 0, n, &mut |counts| {
        blocks.clear();
        blocks.extend(
            counts
                .iter()
                .zip(&fg)
                .map(|(&c, &(f, g))| (c, f, g)),
        );
        let span = johnson_blocks_makespan(&blocks);
        if best.as_ref().is_none_or(|(b, _)| span < *b) {
            best = Some((span, counts.to_vec()));
        }
    });
    let (_, winning_counts) = best.expect("at least one multiset exists");
    let mut cuts = Vec::with_capacity(n);
    for (cut, &c) in winning_counts.iter().enumerate() {
        cuts.extend(std::iter::repeat_n(cut, c));
    }
    Plan::from_cuts(Strategy::BruteForce, profile, cuts)
}

/// Enumeration cap for [`Strategy::BruteForce`]: above this many
/// multisets the exact search refuses to run.
pub const BF_CANDIDATE_LIMIT: u128 = 10_000_000;

/// Number of cut multisets `C(n + k, k)` the brute force would
/// enumerate for this profile and job count (saturating).
pub fn brute_force_candidates(profile: &CostProfile, n: usize) -> u128 {
    binomial(n + profile.k(), profile.k())
}

/// Visit every way to write `remaining` as counts over `counts[pos..]`.
fn enumerate_multisets(
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
        enumerate_multisets(counts, pos + 1, remaining - take, visit);
    }
    counts[pos] = 0;
}

/// Binomial coefficient with saturation (overflow-safe guard maths).
fn binomial(n: usize, k: usize) -> u128 {
    let k = k.min(n - k.min(n));
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > u128::MAX / (n as u128 + 1) {
            return u128::MAX;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jps::{jps_best_mix_plan, jps_plan};

    fn profile(f: Vec<f64>, g: Vec<f64>) -> CostProfile {
        CostProfile::from_vectors("t", f, g, None)
    }

    fn fig2() -> CostProfile {
        profile(vec![0.0, 4.0, 7.0, 20.0], vec![99.0, 6.0, 2.0, 0.0])
    }

    #[test]
    fn local_only() {
        let p = fig2();
        let plan = local_only_plan(&p, 3);
        assert!(plan.cuts.iter().all(|&c| c == 3));
        assert_eq!(plan.makespan_ms, 60.0); // 3 × 20, no pipeline
    }

    #[test]
    fn cloud_only_serialises_on_uplink() {
        let p = fig2();
        let plan = cloud_only_plan(&p, 3);
        assert!(plan.cuts.iter().all(|&c| c == 0));
        assert_eq!(plan.makespan_ms, 297.0); // 3 × 99 upload, f = 0
    }

    #[test]
    fn partition_only_picks_single_job_optimum() {
        let p = fig2();
        // Single-job latency per cut: 99, 10, 9, 20 -> cut 2 wins.
        let plan = partition_only_plan(&p, 2);
        assert!(plan.cuts.iter().all(|&c| c == 2)); // 7+2=9 is minimal
        // Tie-break is deterministic (lowest cut index).
        let p2 = profile(vec![0.0, 4.0, 7.0, 20.0], vec![10.0, 6.0, 3.0, 0.0]);
        let plan2 = partition_only_plan(&p2, 2);
        assert!(plan2.cuts.iter().all(|&c| c == 0)); // 10 ties 4+6, 7+3
    }

    #[test]
    fn brute_force_matches_fig2_optimum() {
        let p = fig2();
        let bf = brute_force_plan(&p, 2);
        assert_eq!(bf.makespan_ms, 13.0);
        let mut cuts = bf.cuts.clone();
        cuts.sort_unstable();
        assert_eq!(cuts, vec![1, 2]);
    }

    #[test]
    fn brute_force_dominates_everything() {
        let profiles = [
            fig2(),
            profile(vec![0.0, 2.0, 9.0, 11.0], vec![12.0, 8.0, 1.0, 0.0]),
            profile(vec![0.0, 1.0, 2.0, 30.0], vec![5.0, 4.0, 3.0, 0.0]),
            profile(vec![0.0, 5.0, 10.0], vec![4.0, 2.0, 0.0]),
        ];
        for p in &profiles {
            for n in [1usize, 2, 3, 5] {
                let bf = brute_force_plan(p, n).makespan_ms;
                for plan in [
                    local_only_plan(p, n),
                    cloud_only_plan(p, n),
                    partition_only_plan(p, n),
                    jps_plan(p, n),
                    jps_best_mix_plan(p, n),
                ] {
                    assert!(
                        bf <= plan.makespan_ms + 1e-9,
                        "BF {bf} beaten by {:?} {}",
                        plan.strategy,
                        plan.makespan_ms
                    );
                }
            }
        }
    }

    #[test]
    fn jps_best_mix_matches_bf_on_two_type_instances() {
        // When the optimum uses only the two adjacent cut types (the
        // paper's Theorem 5.3 regime), best-mix equals brute force.
        let p = profile(vec![0.0, 4.0, 6.0, 30.0], vec![30.0, 6.0, 4.0, 0.0]);
        for n in 1..=6 {
            let bf = brute_force_plan(&p, n).makespan_ms;
            let bm = jps_best_mix_plan(&p, n).makespan_ms;
            assert!((bf - bm).abs() < 1e-9, "n={n}: bf {bf} vs best-mix {bm}");
        }
    }

    #[test]
    fn multiset_enumeration_counts() {
        let mut counts = vec![0usize; 3];
        let mut seen = 0usize;
        enumerate_multisets(&mut counts, 0, 4, &mut |c| {
            assert_eq!(c.iter().sum::<usize>(), 4);
            seen += 1;
        });
        // C(4 + 2, 2) = 15 multisets of size 4 over 3 bins.
        assert_eq!(seen, 15);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(6, 2), 15);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    #[should_panic(expected = "multisets")]
    fn brute_force_guard() {
        let f: Vec<f64> = (0..=40).map(|i| i as f64).collect();
        let mut g: Vec<f64> = (0..=40).rev().map(|i| i as f64 * 2.0).collect();
        *g.last_mut().unwrap() = 0.0;
        let p = CostProfile::from_vectors("big", f, g, None);
        brute_force_plan(&p, 50);
    }
}
