//! Release times (`F2 | r_j | C_max`): jobs arriving over time.
//!
//! The paper assumes all jobs available at time 0 ("All jobs in J are
//! available at the time 0", §3.1). Real frame sources release jobs
//! periodically — a camera at 30 fps frees one job every 33 ms. With
//! release dates the problem is NP-hard even on two machines; this
//! module provides:
//!
//! * exact schedule evaluation respecting releases,
//! * **list scheduling**: whenever the mobile CPU frees up, start the
//!   released-but-unscheduled job with the best Johnson priority,
//! * exhaustive search, the tests' oracle on tiny instances.

use crate::job::FlowJob;
use crate::johnson::JobClass;

/// Makespan of processing `jobs` in `order` where job `j` cannot start
/// its compute stage before `releases[j]`.
pub fn makespan_with_releases(jobs: &[FlowJob], order: &[usize], releases: &[f64]) -> f64 {
    assert_eq!(jobs.len(), releases.len(), "one release per job");
    let mut m1 = 0.0f64;
    let mut m2 = 0.0f64;
    let mut last = 0.0f64;
    for &idx in order {
        let j = &jobs[idx];
        let start = m1.max(releases[idx]);
        m1 = start + j.compute_ms;
        let mut done = m1;
        if j.comm_ms > 0.0 {
            m2 = m1.max(m2) + j.comm_ms;
            done = m2;
        }
        last = last.max(done);
    }
    last
}

/// Johnson priority key: comm-heavy ascending-`f` first, then
/// compute-heavy descending-`g` (smaller key = earlier).
fn johnson_key(job: &FlowJob) -> (u8, f64) {
    match crate::johnson::classify(job) {
        JobClass::CommHeavy => (0, job.compute_ms),
        JobClass::ComputeHeavy => (1, -job.comm_ms),
    }
}

/// List scheduling with Johnson priorities under release dates: at each
/// decision instant, start the best-priority released job; if none is
/// released, idle until the next release.
pub fn list_schedule_with_releases(jobs: &[FlowJob], releases: &[f64]) -> Vec<usize> {
    assert_eq!(jobs.len(), releases.len(), "one release per job");
    let n = jobs.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut clock = 0.0f64;
    while !remaining.is_empty() {
        let released: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&j| releases[j] <= clock + 1e-12)
            .collect();
        let pick = if released.is_empty() {
            // Jump to the earliest upcoming release.
            let next = remaining
                .iter()
                .copied()
                .min_by(|&a, &b| releases[a].total_cmp(&releases[b]))
                .expect("remaining non-empty");
            clock = releases[next];
            next
        } else {
            released
                .into_iter()
                .min_by(|&a, &b| {
                    let (ca, ka) = johnson_key(&jobs[a]);
                    let (cb, kb) = johnson_key(&jobs[b]);
                    ca.cmp(&cb).then(ka.total_cmp(&kb)).then(a.cmp(&b))
                })
                .expect("released non-empty")
        };
        clock = clock.max(releases[pick]) + jobs[pick].compute_ms;
        remaining.retain(|&j| j != pick);
        order.push(pick);
    }
    order
}

/// Exhaustive optimum under releases (≤ 9 jobs), the tests' oracle.
#[cfg(test)]
fn best_order_with_releases(jobs: &[FlowJob], releases: &[f64]) -> (Vec<usize>, f64) {
    assert!(jobs.len() <= 9, "release brute force capped at 9 jobs");
    let n = jobs.len();
    if n == 0 {
        return (vec![], 0.0);
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = perm.clone();
    let mut best_span = makespan_with_releases(jobs, &perm, releases);
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let span = makespan_with_releases(jobs, &perm, releases);
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
    use crate::johnson::johnson_order;
    use crate::makespan::makespan;

    fn jobs(spec: &[(f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
            .collect()
    }

    #[test]
    fn zero_releases_reduce_to_plain_makespan() {
        let js = jobs(&[(4.0, 6.0), (7.0, 2.0), (3.0, 3.0)]);
        let releases = vec![0.0; 3];
        let order = johnson_order(&js);
        assert_eq!(
            makespan_with_releases(&js, &order, &releases),
            makespan(&js, &order)
        );
        // List scheduling degenerates to the Johnson order.
        let list = list_schedule_with_releases(&js, &releases);
        assert_eq!(
            makespan_with_releases(&js, &list, &releases),
            makespan(&js, &order)
        );
    }

    #[test]
    fn release_forces_idle() {
        let js = jobs(&[(2.0, 1.0)]);
        assert_eq!(makespan_with_releases(&js, &[0], &[10.0]), 13.0);
    }

    #[test]
    fn list_scheduling_respects_releases() {
        // Job 0 released late; job 1 available immediately.
        let js = jobs(&[(1.0, 5.0), (4.0, 1.0)]);
        let releases = vec![3.0, 0.0];
        let order = list_schedule_with_releases(&js, &releases);
        assert_eq!(order, vec![1, 0]);
        // CPU: job1 0..4, job0 max(4,3)=4..5. Uplink: 4..5 (job1),
        // job0: max(5,5)+5 = 10.
        assert_eq!(makespan_with_releases(&js, &order, &releases), 10.0);
    }

    #[test]
    fn list_scheduling_close_to_optimal() {
        let mut state = 0xABCDu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100) as f64 / 5.0
        };
        let mut worst: f64 = 1.0;
        for _ in 0..40 {
            let js: Vec<FlowJob> = (0..6)
                .map(|i| FlowJob::two_stage(i, rng() + 0.1, rng() + 0.1))
                .collect();
            let releases: Vec<f64> = (0..6).map(|_| rng()).collect();
            let order = list_schedule_with_releases(&js, &releases);
            let heur = makespan_with_releases(&js, &order, &releases);
            let (_, opt) = best_order_with_releases(&js, &releases);
            worst = worst.max(heur / opt);
        }
        assert!(worst < 1.25, "list scheduling ratio {worst}");
    }

    #[test]
    fn periodic_frames_pipeline_naturally() {
        // 30 fps camera, each frame (10 ms compute, 12 ms upload):
        // releases every 33 ms mean no queueing at all.
        let js: Vec<FlowJob> = (0..5).map(|i| FlowJob::two_stage(i, 10.0, 12.0)).collect();
        let releases: Vec<f64> = (0..5).map(|i| i as f64 * 33.0).collect();
        let order = list_schedule_with_releases(&js, &releases);
        let span = makespan_with_releases(&js, &order, &releases);
        // Last frame at t = 132, finishes at 132 + 22.
        assert_eq!(span, 154.0);
    }

    #[test]
    fn saturated_source_matches_batch_behaviour() {
        // Releases far faster than service: converges to the batch case
        // plus the first release offset.
        let js = jobs(&[(4.0, 6.0), (7.0, 2.0)]);
        let releases = vec![0.0, 0.001];
        let order = list_schedule_with_releases(&js, &releases);
        let span = makespan_with_releases(&js, &order, &releases);
        let batch = makespan(&js, &johnson_order(&js));
        assert!((span - batch).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "one release per job")]
    fn mismatched_lengths_rejected() {
        let js = jobs(&[(1.0, 1.0)]);
        makespan_with_releases(&js, &[0], &[]);
    }
}
