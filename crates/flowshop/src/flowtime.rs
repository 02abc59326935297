//! Total flow time (`F2 || ΣC_j`): minimising the *sum* of completion
//! times rather than the makespan.
//!
//! Makespan is the throughput objective (the paper's); a user staring
//! at per-frame results cares about mean completion. `F2 || ΣC_j` is
//! NP-hard (Garey–Johnson–Sethi), so this module provides the two
//! classical heuristics, which its tests check against an exhaustive
//! oracle:
//!
//! * **SPT** on total processing time `f + g` — the single-machine
//!   optimum's natural lift;
//! * **NEH-style insertion** evaluating total completion directly.
//!
//! Johnson's order optimises the makespan and can be noticeably worse
//! on flow time (quantified in the tests) — choosing the objective is a
//! real decision, not a formality.

use crate::job::FlowJob;
use crate::makespan::gantt;

/// Sum of completion times of `order`.
pub fn total_flowtime(jobs: &[FlowJob], order: &[usize]) -> f64 {
    gantt(jobs, order)
        .completion_times()
        .iter()
        .map(|&(_, t)| t)
        .sum()
}

/// Shortest-processing-time order on `f + g + cloud`.
pub(crate) fn spt_order(jobs: &[FlowJob]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        let ta = jobs[a].compute_ms + jobs[a].comm_ms + jobs[a].cloud_ms;
        let tb = jobs[b].compute_ms + jobs[b].comm_ms + jobs[b].cloud_ms;
        ta.total_cmp(&tb).then(a.cmp(&b))
    });
    order
}

/// NEH-style insertion minimising total flow time: jobs in SPT order,
/// each inserted at its best position.
pub(crate) fn neh_flowtime_order(jobs: &[FlowJob]) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::with_capacity(jobs.len());
    for &j in &spt_order(jobs) {
        let mut best_pos = 0;
        let mut best = f64::INFINITY;
        for pos in 0..=order.len() {
            order.insert(pos, j);
            let ft = total_flowtime(jobs, &order);
            if ft < best {
                best = ft;
                best_pos = pos;
            }
            order.remove(pos);
        }
        order.insert(best_pos, j);
    }
    order
}

/// Best of SPT and NEH-insertion by total flow time.
pub fn flowtime_order(jobs: &[FlowJob]) -> Vec<usize> {
    let spt = spt_order(jobs);
    let neh = neh_flowtime_order(jobs);
    if total_flowtime(jobs, &spt) <= total_flowtime(jobs, &neh) {
        spt
    } else {
        neh
    }
}

/// Exhaustive flow-time optimum (≤ 9 jobs), the tests' oracle.
#[cfg(test)]
fn best_flowtime_permutation(jobs: &[FlowJob]) -> (Vec<usize>, f64) {
    assert!(jobs.len() <= 9, "flow-time brute force capped at 9 jobs");
    let n = jobs.len();
    if n == 0 {
        return (vec![], 0.0);
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = perm.clone();
    let mut best_ft = total_flowtime(jobs, &perm);
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let ft = total_flowtime(jobs, &perm);
            if ft < best_ft {
                best_ft = ft;
                best.copy_from_slice(&perm);
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best, best_ft)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::johnson::johnson_order;
    use crate::makespan::makespan;

    fn jobs(spec: &[(f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
            .collect()
    }

    #[test]
    fn spt_orders_by_total_time() {
        let js = jobs(&[(5.0, 5.0), (1.0, 1.0), (3.0, 2.0)]);
        assert_eq!(spt_order(&js), vec![1, 2, 0]);
    }

    #[test]
    fn heuristic_close_to_optimal() {
        let mut state = 0xFEEDu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100) as f64 / 10.0 + 0.1
        };
        let mut worst: f64 = 1.0;
        for _ in 0..40 {
            let js: Vec<FlowJob> = (0..7)
                .map(|i| FlowJob::two_stage(i, rng(), rng()))
                .collect();
            let heur = total_flowtime(&js, &flowtime_order(&js));
            let (_, opt) = best_flowtime_permutation(&js);
            worst = worst.max(heur / opt);
        }
        assert!(worst < 1.06, "flow-time heuristic ratio {worst}");
    }

    #[test]
    fn johnson_optimises_makespan_not_flowtime() {
        // A mix where Johnson front-loads a long comm-heavy job (good
        // for pipelining) that SPT correctly defers (good for mean
        // completion).
        let js = jobs(&[(1.0, 30.0), (5.0, 1.0), (4.0, 1.0), (3.0, 1.0)]);
        let j = johnson_order(&js);
        let f = flowtime_order(&js);
        assert!(total_flowtime(&js, &f) < total_flowtime(&js, &j));
        assert!(makespan(&js, &j) <= makespan(&js, &f));
    }

    #[test]
    fn identical_jobs_any_order_equal() {
        let js = jobs(&[(4.0, 3.0); 5]);
        let a = total_flowtime(&js, &flowtime_order(&js));
        let b = total_flowtime(&js, &johnson_order(&js));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(total_flowtime(&[], &[]), 0.0);
        let js = jobs(&[(2.0, 3.0)]);
        assert_eq!(total_flowtime(&js, &[0]), 5.0);
        assert_eq!(flowtime_order(&js), vec![0]);
    }
}
