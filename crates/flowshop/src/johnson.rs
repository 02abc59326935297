//! Johnson's rule — the paper's Algorithm 1.
//!
//! Split jobs into the communication-heavy set `S1 = {j : f < g}` and
//! the computation-heavy set `S2 = {j : f ≥ g}`; sort `S1` ascending by
//! `f`, `S2` descending by `g`; concatenate `S1 ‖ S2`. This is Johnson's
//! 1954 rule for `F2 || C_max`, which is optimal for any fixed
//! partition choice.

use crate::job::FlowJob;

/// Which Johnson set a job falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobClass {
    /// `f < g`: communication dominates; scheduled early, ascending `f`.
    CommHeavy,
    /// `f ≥ g`: computation dominates; scheduled late, descending `g`.
    ComputeHeavy,
}

/// Classify a job per Alg. 1 line 2.
pub(crate) fn classify(job: &FlowJob) -> JobClass {
    if job.is_comm_heavy() {
        JobClass::CommHeavy
    } else {
        JobClass::ComputeHeavy
    }
}

/// The paper's Alg. 1: return the optimal processing order as a
/// permutation of the input slice (indices into `jobs`).
///
/// Ties are broken by job id so the order is deterministic.
///
/// ```
/// use mcdnn_flowshop::{johnson_order, makespan, FlowJob};
///
/// // The paper's Fig. 2 optimum: the communication-heavy job first.
/// let jobs = vec![
///     FlowJob::two_stage(0, 7.0, 2.0), // computation-heavy
///     FlowJob::two_stage(1, 4.0, 6.0), // communication-heavy
/// ];
/// let order = johnson_order(&jobs);
/// assert_eq!(order, vec![1, 0]);
/// assert_eq!(makespan(&jobs, &order), 13.0);
/// ```
pub fn johnson_order(jobs: &[FlowJob]) -> Vec<usize> {
    debug_assert!(jobs.iter().all(FlowJob::is_valid), "invalid job durations");
    let mut s1: Vec<usize> = Vec::new();
    let mut s2: Vec<usize> = Vec::new();
    for (idx, job) in jobs.iter().enumerate() {
        match classify(job) {
            JobClass::CommHeavy => s1.push(idx),
            JobClass::ComputeHeavy => s2.push(idx),
        }
    }
    s1.sort_by(|&a, &b| {
        jobs[a]
            .compute_ms
            .total_cmp(&jobs[b].compute_ms)
            .then(jobs[a].id.cmp(&jobs[b].id))
    });
    s2.sort_by(|&a, &b| {
        jobs[b]
            .comm_ms
            .total_cmp(&jobs[a].comm_ms)
            .then(jobs[a].id.cmp(&jobs[b].id))
    });
    s1.extend(s2);
    s1
}

/// FIFO order (identity permutation) — the "no scheduling" baseline in
/// the ablation benches.
pub fn fifo_order(jobs: &[FlowJob]) -> Vec<usize> {
    (0..jobs.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::makespan::makespan;

    fn jobs(spec: &[(f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
            .collect()
    }

    #[test]
    fn classification() {
        assert_eq!(classify(&FlowJob::two_stage(0, 4.0, 6.0)), JobClass::CommHeavy);
        assert_eq!(
            classify(&FlowJob::two_stage(0, 7.0, 2.0)),
            JobClass::ComputeHeavy
        );
        assert_eq!(
            classify(&FlowJob::two_stage(0, 5.0, 5.0)),
            JobClass::ComputeHeavy
        );
    }

    #[test]
    fn comm_heavy_first_ascending_f() {
        // S1 = {(1,9), (3,8)}, S2 = {(9,2), (7,3)}.
        let js = jobs(&[(9.0, 2.0), (1.0, 9.0), (3.0, 8.0), (7.0, 3.0)]);
        assert_eq!(johnson_order(&js), vec![1, 2, 3, 0]);
    }

    #[test]
    fn deterministic_tie_break() {
        let js = jobs(&[(1.0, 5.0), (1.0, 5.0), (1.0, 5.0)]);
        assert_eq!(johnson_order(&js), vec![0, 1, 2]);
    }

    #[test]
    fn textbook_johnson_instance() {
        // Classic instance: jobs (a, b) = (3,6),(7,2),(4,4),(5,3),(1,5).
        // Johnson: S1={j0(3,6),j4(1,5)} asc a -> [4,0];
        // S2={j1(7,2),j2(4,4),j3(5,3)} desc b -> [2,3,1].
        let js = jobs(&[(3.0, 6.0), (7.0, 2.0), (4.0, 4.0), (5.0, 3.0), (1.0, 5.0)]);
        let order = johnson_order(&js);
        assert_eq!(order, vec![4, 0, 2, 3, 1]);
        // Known optimal makespan for this instance is 22.
        assert_eq!(makespan(&js, &order), 22.0);
    }

    #[test]
    fn johnson_beats_fifo_and_reverse_on_paper_example() {
        // Paper Fig. 2 middle case: jobs cut at (l1, l2):
        // job A (4, 6) comm-heavy, job B (7, 2) compute-heavy.
        let js = jobs(&[(7.0, 2.0), (4.0, 6.0)]);
        let j = johnson_order(&js);
        assert_eq!(j, vec![1, 0]);
        assert_eq!(makespan(&js, &j), 13.0); // the paper's optimal 13
        assert_eq!(makespan(&js, &fifo_order(&js)), 17.0);
        let reversed: Vec<usize> = j.iter().rev().copied().collect();
        assert_eq!(makespan(&js, &reversed), 17.0);
    }

    #[test]
    fn empty_and_single() {
        assert!(johnson_order(&[]).is_empty());
        let js = jobs(&[(5.0, 1.0)]);
        assert_eq!(johnson_order(&js), vec![0]);
    }

    #[test]
    fn exchange_argument_never_improved_by_adjacent_swap() {
        // Johnson optimality sanity: swapping any adjacent pair in the
        // Johnson order never reduces the makespan.
        let js = jobs(&[
            (3.0, 9.0),
            (8.0, 1.0),
            (5.0, 5.0),
            (2.0, 2.0),
            (6.0, 8.0),
            (1.0, 4.0),
        ]);
        let order = johnson_order(&js);
        let base = makespan(&js, &order);
        for i in 0..order.len() - 1 {
            let mut swapped = order.clone();
            swapped.swap(i, i + 1);
            assert!(
                makespan(&js, &swapped) >= base - 1e-12,
                "swap at {i} improved the makespan"
            );
        }
    }
}
