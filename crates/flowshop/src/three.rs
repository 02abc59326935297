//! Three-stage flow shop (`F3 || C_max`) — the regime where the
//! paper's "cloud time is negligible" reduction does *not* apply, e.g.
//! offloading to a loaded edge server instead of a datacenter GPU.
//!
//! `F3 || C_max` is NP-hard in general, but:
//!
//! * **Johnson's special case**: when the middle machine is dominated
//!   (`min f ≥ max g` or `min cloud ≥ max g`), scheduling by Johnson's
//!   rule on the surrogate two-stage jobs `(f + g, g + cloud)` is
//!   provably optimal (Johnson 1954).
//! * **CDS heuristic** (Campbell–Dudek–Smith): try both natural
//!   two-stage surrogates — `(f, cloud)` and `(f + g, g + cloud)` —
//!   and keep the better Johnson order.
//! * **NEH heuristic** (Nawaz–Enscore–Ham): insert jobs in decreasing
//!   total-work order, each at its best position. The strongest
//!   classical constructive heuristic for permutation flow shops.
//!
//! [`three_stage_order`] runs all of the above and returns the best.

use crate::job::FlowJob;
use crate::johnson::johnson_order;
use crate::makespan::makespan_three_stage;

/// Johnson order on the `(f + g, g + cloud)` surrogate jobs — optimal
/// in Johnson's special case (middle machine dominated).
pub(crate) fn johnson_surrogate_order(jobs: &[FlowJob]) -> Vec<usize> {
    let surrogate: Vec<FlowJob> = jobs
        .iter()
        .map(|j| FlowJob::two_stage(j.id, j.compute_ms + j.comm_ms, j.comm_ms + j.cloud_ms))
        .collect();
    johnson_order(&surrogate)
}

/// CDS heuristic: best of the two surrogate Johnson orders.
pub(crate) fn cds_order(jobs: &[FlowJob]) -> Vec<usize> {
    let s1: Vec<FlowJob> = jobs
        .iter()
        .map(|j| FlowJob::two_stage(j.id, j.compute_ms, j.cloud_ms))
        .collect();
    let o1 = johnson_order(&s1);
    let o2 = johnson_surrogate_order(jobs);
    if makespan_three_stage(jobs, &o1) <= makespan_three_stage(jobs, &o2) {
        o1
    } else {
        o2
    }
}

/// NEH heuristic: jobs sorted by decreasing total work, inserted one by
/// one at the makespan-minimising position. `O(n³)` with the plain
/// evaluation used here — fine at this problem's scale.
pub(crate) fn neh_order(jobs: &[FlowJob]) -> Vec<usize> {
    let mut by_work: Vec<usize> = (0..jobs.len()).collect();
    by_work.sort_by(|&a, &b| {
        let wa = jobs[a].compute_ms + jobs[a].comm_ms + jobs[a].cloud_ms;
        let wb = jobs[b].compute_ms + jobs[b].comm_ms + jobs[b].cloud_ms;
        wb.total_cmp(&wa).then(a.cmp(&b))
    });
    let mut order: Vec<usize> = Vec::with_capacity(jobs.len());
    for &j in &by_work {
        let mut best_pos = 0;
        let mut best_span = f64::INFINITY;
        for pos in 0..=order.len() {
            order.insert(pos, j);
            let span = makespan_three_stage(jobs, &order);
            if span < best_span {
                best_span = span;
                best_pos = pos;
            }
            order.remove(pos);
        }
        order.insert(best_pos, j);
    }
    order
}

/// Best order across Johnson-surrogate, CDS and NEH (by 3-stage
/// makespan). Exact in Johnson's special case; a strong heuristic
/// otherwise.
pub fn three_stage_order(jobs: &[FlowJob]) -> Vec<usize> {
    let candidates = [johnson_surrogate_order(jobs), cds_order(jobs), neh_order(jobs)];
    candidates
        .into_iter()
        .min_by(|a, b| {
            makespan_three_stage(jobs, a).total_cmp(&makespan_three_stage(jobs, b))
        })
        .expect("three candidates")
}

/// Exhaustive optimum for small instances (≤ 10 jobs), for validation.
pub fn best_three_stage_permutation(jobs: &[FlowJob]) -> (Vec<usize>, f64) {
    assert!(jobs.len() <= 10, "3-stage brute force capped at 10 jobs");
    let n = jobs.len();
    if n == 0 {
        return (vec![], 0.0);
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = perm.clone();
    let mut best_span = makespan_three_stage(jobs, &perm);
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let span = makespan_three_stage(jobs, &perm);
            if span < best_span {
                best_span = span;
                best.copy_from_slice(&perm);
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best, best_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs3(spec: &[(f64, f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(a, b, c))| FlowJob::three_stage(i, a, b, c))
            .collect()
    }

    #[test]
    fn johnson_special_case_is_optimal() {
        // Machine 1 dominates the middle machine: min f >= max g.
        let cases = [
            jobs3(&[(10.0, 2.0, 5.0), (12.0, 1.0, 3.0), (11.0, 2.0, 9.0)]),
            jobs3(&[(8.0, 3.0, 7.0), (9.0, 1.0, 4.0), (10.0, 2.0, 10.0), (8.5, 0.5, 2.0)]),
        ];
        for js in cases {
            let order = johnson_surrogate_order(&js);
            let (_, opt) = best_three_stage_permutation(&js);
            assert!(
                (makespan_three_stage(&js, &order) - opt).abs() < 1e-9,
                "special case must be exact"
            );
        }
    }

    #[test]
    fn heuristics_close_to_optimal_on_random_instances() {
        // Deterministic pseudo-random 3-stage instances.
        let mut state = 0xC0FFEEu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 50.0
        };
        let mut worst: f64 = 1.0;
        for _ in 0..30 {
            let js: Vec<FlowJob> = (0..7)
                .map(|i| FlowJob::three_stage(i, rng(), rng(), rng()))
                .collect();
            let order = three_stage_order(&js);
            let heur = makespan_three_stage(&js, &order);
            let (_, opt) = best_three_stage_permutation(&js);
            worst = worst.max(heur / opt);
        }
        assert!(worst < 1.05, "combined heuristic ratio {worst}");
    }

    #[test]
    fn neh_handles_edge_cases() {
        assert!(neh_order(&[]).is_empty());
        let one = jobs3(&[(1.0, 2.0, 3.0)]);
        assert_eq!(neh_order(&one), vec![0]);
    }

    #[test]
    fn three_stage_reduces_to_two_stage_when_cloud_zero() {
        // With cloud = 0 the surrogate order must match plain Johnson's
        // makespan (orders may differ; makespans must not).
        let js = jobs3(&[(4.0, 6.0, 0.0), (7.0, 2.0, 0.0), (3.0, 3.0, 0.0)]);
        let o3 = three_stage_order(&js);
        let o2 = johnson_order(&js);
        assert!(
            (makespan_three_stage(&js, &o3) - makespan_three_stage(&js, &o2)).abs() < 1e-9
        );
    }

    #[test]
    fn cds_never_worse_than_its_surrogates_alone() {
        let js = jobs3(&[(5.0, 9.0, 2.0), (3.0, 4.0, 8.0), (7.0, 1.0, 5.0)]);
        let cds = makespan_three_stage(&js, &cds_order(&js));
        let sur = makespan_three_stage(&js, &johnson_surrogate_order(&js));
        assert!(cds <= sur + 1e-9);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn brute_force_guard() {
        let js = jobs3(&[(1.0, 1.0, 1.0); 11]);
        best_three_stage_permutation(&js);
    }
}
