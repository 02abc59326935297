//! JPS — the paper's joint partition + scheduling planner.
//!
//! 1. Run Alg. 2 to locate `l*` (left-most cut with `f ≥ g`) and the
//!    mixing ratio between cut types `l*−1` and `l*`.
//! 2. Assign cuts: exact balance (`f(l*) = g(l*)`) or `l* = 0` ⇒ all
//!    jobs at `l*` (Theorem 5.2's discrete image); otherwise mix the
//!    two adjacent types per the ratio (Theorem 5.3).
//! 3. Schedule with Johnson's rule (Alg. 1).
//!
//! [`Strategy::JpsBestMix`] replaces the closed-form ratio with an
//! `O(n)` scan over every mix count — never worse than the ratio plan,
//! used to quantify how much the closed form gives away (ablation
//! bench).
//!
//! ## Hot path
//!
//! Every candidate either cuts all `n` jobs at one layer or mixes two
//! adjacent cut types, so it is *scored* in O(1) with the closed-form
//! kernels of [`mcdnn_flowshop::kernels`] — no job vectors, no Johnson
//! sort, no O(n) recurrence per candidate. Only the winning candidate
//! is materialized into a [`Plan`] (whose `makespan_ms` is therefore
//! still the exact recurrence value). This drops [`Strategy::Jps`] from
//! O(k·n log n) to O(k + n) and [`Strategy::JpsBestMix`] from
//! O(n² log n) to O(k + n). The pre-refactor implementations survive in
//! [`crate::reference`]; property tests pin the two paths to
//! bit-identical output.

use mcdnn_flowshop::kernels::{two_type_mix_makespan, uniform_makespan};
use mcdnn_obs::metrics;
use mcdnn_profile::CostProfile;

use crate::alg2::{binary_search_cut, search_cut, CutSearch};
use crate::plan::{Plan, Strategy};

/// Number of jobs cut at each of the two types for a given ratio.
///
/// With ratio `r`, groups of `r` jobs at `l*−1` pair with 1 job at
/// `l*`; remainders go to `l*` (the computation-heavy side, whose
/// surplus the paper's condition assumes is the larger).
fn split_by_ratio(n: usize, ratio: usize) -> (usize, usize) {
    // (count at l*-1, count at l*)
    let group = ratio + 1;
    let full_groups = n / group;
    let remainder = n % group;
    (full_groups * ratio, full_groups + remainder)
}

/// A candidate cut assignment, described — not materialized.
///
/// `Uniform(l)` is `n` jobs at layer `l`; `Mix { at_prev }` is
/// `at_prev` jobs at `l*−1` and the rest at `l*` (only constructed when
/// Alg. 2 found an `l*−1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Candidate {
    Uniform(usize),
    Mix { at_prev: usize },
}

impl Candidate {
    /// O(1) kernel score over the stage slices `f`, `g`: exactly the
    /// Johnson-schedule makespan the materialized plan would have (the
    /// kernels are cross-checked against the recurrence by the
    /// flowshop and property tests).
    fn score(self, f: &[f64], g: &[f64], n: usize, search: &CutSearch) -> f64 {
        match self {
            Candidate::Uniform(l) => uniform_makespan(n, f[l], g[l]),
            Candidate::Mix { at_prev } => {
                let prev = search.l_prev.expect("Mix candidates require l_prev");
                let star = search.l_star;
                two_type_mix_makespan(at_prev, f[prev], g[prev], n - at_prev, f[star], g[star])
            }
        }
    }

    /// Materialize the winning candidate into a full [`Plan`] — the one
    /// allocation of the search. Cut layout matches the pre-refactor
    /// code: the `l*−1` block first (lower job ids), then the `l*`
    /// block.
    pub(crate) fn materialize(
        self,
        strategy: Strategy,
        profile: &CostProfile,
        n: usize,
        search: &CutSearch,
    ) -> Plan {
        let cuts = match self {
            Candidate::Uniform(l) => vec![l; n],
            Candidate::Mix { at_prev } => {
                let prev = search.l_prev.expect("Mix candidates require l_prev");
                let mut cuts = vec![prev; at_prev];
                cuts.extend(std::iter::repeat_n(search.l_star, n - at_prev));
                cuts
            }
        };
        Plan::from_cuts(strategy, profile, cuts)
    }
}

/// The mix count the ratio-mix candidate of Alg. 2 line 9 assigns to
/// `l*−1`, or `None` when the ratio path degenerates to a single type
/// (then the uniform `l*` candidate already covers it).
pub(crate) fn ratio_mix_at_prev(search: &CutSearch, n: usize) -> Option<usize> {
    match (search.l_prev, search.ratio) {
        (Some(_), Some(ratio)) if ratio > 0 => Some(split_by_ratio(n, ratio).0),
        _ => None,
    }
}

/// The mix count of the proportional variant of the ratio mix
/// (`round(n·r/(r+1))` at `l*−1`), or `None` when the ratio path
/// degenerates.
pub(crate) fn proportional_at_prev(search: &CutSearch, n: usize) -> Option<usize> {
    match (search.l_prev, search.ratio) {
        (Some(_), Some(ratio)) if ratio > 0 && n > 0 => {
            Some((((n * ratio) as f64 / (ratio + 1) as f64).round() as usize).min(n))
        }
        _ => None,
    }
}

/// Score the pre-refactor candidate list in its original order with
/// strict-`<` improvement; return the winner, its score, and how many
/// candidates were kernel-scored (the planner's work metric).
fn best_jps_candidate(f: &[f64], g: &[f64], n: usize, search: &CutSearch) -> (Candidate, f64, u64) {
    let mut best = Candidate::Uniform(0);
    let mut best_score = best.score(f, g, n, search);
    let mut evals: u64 = 1;
    let mut consider = |cand: Candidate, best: &mut Candidate, best_score: &mut f64| {
        let score = cand.score(f, g, n, search);
        evals += 1;
        if score < *best_score {
            *best = cand;
            *best_score = score;
        }
    };
    for l in 1..f.len() {
        consider(Candidate::Uniform(l), &mut best, &mut best_score);
    }
    // Ratio mix (Alg. 2 line 9). Degenerate ratios collapse to the
    // uniform-l* candidate already considered above.
    match ratio_mix_at_prev(search, n) {
        Some(at_prev) => {
            consider(Candidate::Mix { at_prev }, &mut best, &mut best_score)
        }
        None => consider(
            Candidate::Uniform(search.l_star),
            &mut best,
            &mut best_score,
        ),
    }
    // Proportional variant of the mix (handles n below one ratio group).
    if let Some(at_prev) = proportional_at_prev(search, n) {
        consider(Candidate::Mix { at_prev }, &mut best, &mut best_score);
    }
    (best, best_score, evals)
}

/// The exhaustive two-type mix refinement of `jps_best_mix_plan`:
/// scan every `m ∈ 0..=n` (when an `l*−1` exists) with strict-`<`
/// improvement over the incumbent. Returns the extra kernel
/// evaluations. Factored out so the frontier compiler replays the
/// exact same scan order and tie-breaks as the planner.
fn best_mix_refine(
    f: &[f64],
    g: &[f64],
    n: usize,
    search: &CutSearch,
    best: &mut Candidate,
    best_score: &mut f64,
) -> u64 {
    if search.l_prev.is_none() {
        return 0;
    }
    for m in 0..=n {
        let cand = Candidate::Mix { at_prev: m };
        let score = cand.score(f, g, n, search);
        if score < *best_score {
            *best = cand;
            *best_score = score;
        }
    }
    n as u64 + 1
}

/// Counter-free winner computation shared by the planners and the
/// bandwidth-frontier compiler: Alg. 2 search plus the candidate scan
/// of `jps_plan` (and the exhaustive mix scan of
/// `jps_best_mix_plan` when `best_mix`), in the exact order and with
/// the exact tie-breaks of the public planners. Reads borrowed stage
/// slices, so a compile probe builds no [`CostProfile`], and emits no
/// observability counters, so probes do not inflate the `planner.*`
/// work metrics.
pub(crate) fn winning_candidate(
    f: &[f64],
    g: &[f64],
    n: usize,
    best_mix: bool,
) -> (CutSearch, Candidate) {
    let search = search_cut(f, g);
    let (mut best, mut best_score, _) = best_jps_candidate(f, g, n, &search);
    if best_mix {
        best_mix_refine(f, g, n, &search, &mut best, &mut best_score);
    }
    (search, best)
}

/// The paper's JPS plan for `n` homogeneous jobs.
///
/// Candidates evaluated, all scheduled by Johnson's rule:
///
/// 1. the uniform cut at every layer `l ∈ 0..=k` (Theorem 5.2's family
///    — "partition all DNNs at the same layer" — swept exhaustively,
///    `O(k)` with `k` tiny after clustering);
/// 2. the two-type ratio mix around `l*` from Alg. 2 (Theorem 5.3);
/// 3. a proportional variant of the mix (`⌈n·r/(r+1)⌉` at `l*−1`),
///    which handles `n` smaller than one ratio group.
///
/// The best candidate wins. Candidate 1 makes JPS dominate PO by
/// construction (PO's cut is one of the uniform candidates); candidates
/// 2–3 add the pipelining gain the paper's theorems describe. Real
/// profiles can violate the theorems' smoothness conditions (drastic
/// jumps between adjacent clustered blocks), which is why the sweep is
/// kept rather than trusting `l*` alone.
///
/// Each candidate is scored with the O(1) closed-form kernels; only the
/// winner is materialized, so the whole search is O(k + n) with exactly
/// one allocation of the cut vector.
///
/// Reached through [`Strategy::Jps`]'s
/// [`plan`](Strategy::plan)/[`try_plan`](crate::Strategy::try_plan).
pub(crate) fn jps_plan(profile: &CostProfile, n: usize) -> Plan {
    let _span = mcdnn_obs::span("planner", "jps_plan");
    let search = binary_search_cut(profile);
    let (best, _, evals) = best_jps_candidate(profile.f_all(), profile.g_all(), n, &search);
    metrics::PLANNER_JPS_CALLS.add(1);
    metrics::PLANNER_JPS_CANDIDATES.add(evals);
    metrics::PLANNER_KERNEL_EVALS.add(evals);
    best.materialize(Strategy::Jps, profile, n, &search)
}

/// JPS with the mix count chosen by exhaustive scan: for every
/// `m ∈ 0..=n`, evaluate `m` jobs at `l*−1` and `n−m` at `l*`, keep the
/// best. Every mix is scored by the O(1) kernel, so the scan is O(n)
/// total (it was O(n² log n) when each mix built and sorted its own job
/// vector) and still never worse than the ratio plan.
///
/// Reached through [`Strategy::JpsBestMix`]'s
/// [`plan`](Strategy::plan)/[`try_plan`](crate::Strategy::try_plan).
pub(crate) fn jps_best_mix_plan(profile: &CostProfile, n: usize) -> Plan {
    let _span = mcdnn_obs::span("planner", "jps_best_mix_plan");
    let (f, g) = (profile.f_all(), profile.g_all());
    let search = binary_search_cut(profile);
    let (mut best, mut best_score, mut evals) = best_jps_candidate(f, g, n, &search);
    evals += best_mix_refine(f, g, n, &search, &mut best, &mut best_score);
    metrics::PLANNER_BEST_MIX_CALLS.add(1);
    metrics::PLANNER_BEST_MIX_CANDIDATES.add(evals);
    metrics::PLANNER_KERNEL_EVALS.add(evals);
    best.materialize(Strategy::JpsBestMix, profile, n, &search)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(f: Vec<f64>, g: Vec<f64>) -> CostProfile {
        CostProfile::from_vectors("t", f, g, None)
    }

    #[test]
    fn split_by_ratio_partitions_n() {
        for n in 0..50 {
            for r in 1..6 {
                let (a, b) = split_by_ratio(n, r);
                assert_eq!(a + b, n, "n={n} r={r}");
                if n % (r + 1) == 0 && n > 0 {
                    assert_eq!(a, n / (r + 1) * r);
                }
            }
        }
    }

    #[test]
    fn fig2_example_mixed_cuts() {
        // Cuts available: l1 = (4, 6), l2 = (7, 2); k = 3 so that the
        // local-only endpoint exists. l* = 2, ratio = floor(5/2) = 2.
        let p = profile(vec![0.0, 4.0, 7.0, 20.0], vec![9.0, 6.0, 2.0, 0.0]);
        let plan = jps_plan(&p, 2);
        // n = 2, ratio 2 -> group size 3 -> 0 full groups: both at l*.
        // (The ratio balances *accumulated* difference for larger n.)
        assert_eq!(plan.n(), 2);
        // Best-mix finds the true optimum 13 with one job each.
        let best = jps_best_mix_plan(&p, 2);
        assert_eq!(best.makespan_ms, 13.0);
        let mut cuts = best.cuts.clone();
        cuts.sort_unstable();
        assert_eq!(cuts, vec![1, 2]);
    }

    #[test]
    fn exact_balance_uses_one_cut() {
        let p = profile(vec![0.0, 3.0, 6.0, 8.0], vec![20.0, 9.0, 6.0, 0.0]);
        let plan = jps_plan(&p, 10);
        assert!(plan.cuts.iter().all(|&c| c == 2));
        // Perfect pipeline: makespan = n·f(l*) + g(l*) = 60 + 6 = 66.
        assert_eq!(plan.makespan_ms, 66.0);
    }

    #[test]
    fn best_mix_never_worse_than_ratio_plan() {
        let profiles = [
            profile(vec![0.0, 4.0, 7.0, 20.0], vec![9.0, 6.0, 2.0, 0.0]),
            profile(vec![0.0, 2.0, 9.0, 11.0], vec![12.0, 8.0, 1.0, 0.0]),
            profile(vec![0.0, 1.0, 2.0, 30.0], vec![5.0, 4.0, 3.0, 0.0]),
        ];
        for p in &profiles {
            for n in [1usize, 2, 3, 5, 8, 13, 50] {
                let ratio_plan = jps_plan(p, n);
                let best = jps_best_mix_plan(p, n);
                assert!(
                    best.makespan_ms <= ratio_plan.makespan_ms + 1e-9,
                    "n={n}: best {} > ratio {}",
                    best.makespan_ms,
                    ratio_plan.makespan_ms
                );
            }
        }
    }

    #[test]
    fn jps_uses_at_most_two_adjacent_cut_types() {
        // Theorem 5.3: two adjacent partition types suffice; the JPS
        // candidates never mix anything else.
        let p = profile(vec![0.0, 4.0, 7.0, 20.0], vec![9.0, 6.0, 2.0, 0.0]);
        for n in [1usize, 4, 9, 100] {
            let plan = jps_plan(&p, n);
            let mut distinct: Vec<usize> = plan.cuts.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() <= 2, "n={n}: {distinct:?}");
            if let [a, b] = distinct[..] {
                assert_eq!(b, a + 1, "mixed cuts must be adjacent");
            }
        }
    }

    #[test]
    fn theorem53_instance_reaches_perfect_pipeline() {
        // Construct the Theorem 5.3 conditions exactly:
        // f(l*-1)+f(l*) = g(l*-1)+g(l*) and g(l*-1) = f(l*).
        // E.g. f = (4, 6), g = (6, 4) at cuts 1, 2.
        let p = profile(vec![0.0, 4.0, 6.0, 30.0], vec![8.0, 6.0, 4.0, 0.0]);
        assert!(crate::continuous::theorem53_condition(&p, 2));
        let best = jps_best_mix_plan(&p, 10);
        // Half-half mix: ratio = floor((6-4)/(6-4)) = 1.
        let ratio_plan = jps_plan(&p, 10);
        assert_eq!(
            ratio_plan.cuts.iter().filter(|&&c| c == 1).count(),
            5
        );
        assert!((best.makespan_ms - ratio_plan.makespan_ms).abs() < 1e-9);
    }

    #[test]
    fn zero_jobs() {
        let p = profile(vec![0.0, 4.0], vec![3.0, 0.0]);
        let plan = jps_plan(&p, 0);
        assert_eq!(plan.makespan_ms, 0.0);
        assert!(plan.cuts.is_empty());
    }

    #[test]
    fn large_n_average_makespan_approaches_max_mean() {
        // §4.2: (max τ)/n -> max(mean f, mean g) as n grows.
        let p = profile(vec![0.0, 4.0, 7.0, 20.0], vec![9.0, 6.0, 2.0, 0.0]);
        let plan = jps_best_mix_plan(&p, 400);
        let per_job = plan.average_makespan_ms();
        let mean_f: f64 =
            plan.cuts.iter().map(|&c| p.f(c)).sum::<f64>() / plan.n() as f64;
        let mean_g: f64 =
            plan.cuts.iter().map(|&c| p.g(c)).sum::<f64>() / plan.n() as f64;
        let limit = mean_f.max(mean_g);
        assert!((per_job - limit).abs() / limit < 0.02, "{per_job} vs {limit}");
    }

    #[test]
    fn kernel_path_matches_reference_on_pinned_profiles() {
        let profiles = [
            profile(vec![0.0, 4.0, 7.0, 20.0], vec![9.0, 6.0, 2.0, 0.0]),
            profile(vec![0.0, 2.0, 9.0, 11.0], vec![12.0, 8.0, 1.0, 0.0]),
            profile(vec![0.0, 3.0, 6.0, 8.0], vec![20.0, 9.0, 6.0, 0.0]),
            profile(vec![0.0, 4.0, 6.0, 30.0], vec![8.0, 6.0, 4.0, 0.0]),
            profile(vec![0.0, 5.0, 10.0], vec![4.0, 2.0, 0.0]),
        ];
        for p in &profiles {
            for n in [0usize, 1, 2, 3, 7, 20, 63] {
                let fast = jps_plan(p, n);
                let slow = crate::reference::jps_plan(p, n);
                assert_eq!(fast, slow, "jps_plan n={n} profile={}", p.name());
                let fast = jps_best_mix_plan(p, n);
                let slow = crate::reference::jps_best_mix_plan(p, n);
                assert_eq!(fast, slow, "best_mix n={n} profile={}", p.name());
            }
        }
    }
}
