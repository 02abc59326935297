//! Exhaustive permutation search — the paper's BF scheduling baseline.
//!
//! For `F2 || C_max` a permutation schedule is optimal, so enumerating
//! all `n!` orders gives the true optimum. Feasible only for small `n`;
//! used to validate Johnson's rule and (in the partition crate) the
//! joint partition+schedule optimum.

use crate::job::FlowJob;
use crate::makespan::makespan;

/// Result of a brute-force search.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceResult {
    /// An optimal processing order (indices into the job slice).
    pub order: Vec<usize>,
    /// Its makespan.
    pub makespan: f64,
    /// Number of permutations evaluated.
    pub evaluated: usize,
}

/// Hard cap on `n` — 10! = 3.6 M permutations is the practical limit.
pub(crate) const MAX_BRUTE_FORCE_JOBS: usize = 10;

/// Find the optimal order by trying every permutation.
///
/// Panics when `jobs.len() > MAX_BRUTE_FORCE_JOBS`.
pub fn best_permutation(jobs: &[FlowJob]) -> BruteForceResult {
    assert!(
        jobs.len() <= MAX_BRUTE_FORCE_JOBS,
        "brute force capped at {MAX_BRUTE_FORCE_JOBS} jobs, got {}",
        jobs.len()
    );
    let n = jobs.len();
    if n == 0 {
        return BruteForceResult {
            order: vec![],
            makespan: 0.0,
            evaluated: 0,
        };
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = perm.clone();
    let mut best_span = makespan(jobs, &perm);
    let mut evaluated = 1usize;
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let span = makespan(jobs, &perm);
            evaluated += 1;
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
    BruteForceResult {
        order: best,
        makespan: best_span,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::johnson::johnson_order;

    fn jobs(spec: &[(f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
            .collect()
    }

    #[test]
    fn evaluates_all_permutations() {
        let js = jobs(&[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0)]);
        let r = best_permutation(&js);
        assert_eq!(r.evaluated, 24);
    }

    #[test]
    fn johnson_matches_brute_force() {
        // Johnson's rule is provably optimal; brute force must agree.
        let cases: Vec<Vec<FlowJob>> = vec![
            jobs(&[(4.0, 6.0), (7.0, 2.0)]),
            jobs(&[(3.0, 6.0), (7.0, 2.0), (4.0, 4.0), (5.0, 3.0), (1.0, 5.0)]),
            jobs(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),
            jobs(&[(9.0, 1.0), (9.0, 1.0), (1.0, 9.0), (1.0, 9.0)]),
            jobs(&[(5.0, 0.0), (0.0, 5.0), (2.5, 2.5)]),
        ];
        for js in cases {
            let bf = best_permutation(&js);
            let j = crate::makespan::makespan(&js, &johnson_order(&js));
            assert!(
                (bf.makespan - j).abs() < 1e-9,
                "BF {} vs Johnson {} on {js:?}",
                bf.makespan,
                j
            );
        }
    }

    #[test]
    fn empty_input() {
        let r = best_permutation(&[]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.evaluated, 0);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn too_many_jobs_panics() {
        let js = jobs(&[(1.0, 1.0); 11]);
        best_permutation(&js);
    }
}
