//! Closed-form O(1) makespan kernels for homogeneous job blocks.
//!
//! The planner's candidates are never arbitrary job sets: every JPS
//! candidate is either `n` identical jobs (a uniform cut) or two
//! homogeneous blocks of adjacent cut types, and the brute-force
//! baseline enumerates multisets over at most `k + 1` types. Inside a
//! homogeneous block Johnson's rule is indifferent to order, and the
//! two-stage recurrence over `n` identical jobs `(f, g)` telescopes to
//! a closed form — so a candidate can be *scored* in O(1) (uniform),
//! O(1) (two-type mix) or O(k log k) (multiset) without building jobs,
//! sorting them, or running the O(n) recurrence.
//!
//! Derivation (all from the standard `F2` recurrence, see
//! [`crate::makespan::makespan`]): pushing a block of `n` identical
//! jobs `(f, g)` with `g > 0` onto a pipeline whose machines become
//! free at `(m1, m2)` gives
//!
//! ```text
//! m1' = m1 + n·f
//! m2' = max(m2 + n·g,  m1 + f + n·g,  m1 + n·f + g)
//! ```
//!
//! because the uplink completion after job `j` of the block is
//! `max(m2 + j·g, m1 + j·f + (n−j+1)·g)` and the inner expression is
//! linear in `j`, so its maximum sits at an endpoint. Jobs with
//! `g = 0` skip machine 2 entirely (matching the recurrence's
//! local-only rule). From the empty state this reduces to the familiar
//! `min(f, g) + n·max(f, g)` for a uniform block, and the two-type mix
//! is two block pushes in Johnson order — the comm-heavy block
//! (`f < g`) first, then the compute-heavy block.
//!
//! Every kernel here is cross-checked against the simulated recurrence
//! (and, in `mcdnn-sim`, against the discrete-event simulator) by unit
//! and property tests to 1e-9.

/// Machine-availability state of the two-stage pipeline: the instant
/// each machine becomes free. Push homogeneous blocks in schedule
/// order, then read [`PipelineState::makespan`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PipelineState {
    /// Mobile CPU (machine 1) free at, ms.
    pub(crate) m1: f64,
    /// Uplink (machine 2) free at, ms.
    pub(crate) m2: f64,
}

impl PipelineState {
    /// Fresh pipeline (both machines free at 0).
    pub(crate) fn new() -> Self {
        PipelineState::default()
    }

    /// Process `n` identical jobs `(f, g)` in O(1); see the module docs
    /// for the closed form. Jobs with `g == 0` never touch machine 2.
    pub(crate) fn push_block(&mut self, n: usize, f: f64, g: f64) {
        if n == 0 {
            return;
        }
        debug_assert!(f >= 0.0 && g >= 0.0, "stage times must be >= 0");
        let nf = n as f64;
        let m1_in = self.m1;
        self.m1 += nf * f;
        if g > 0.0 {
            self.m2 = (self.m2 + nf * g)
                .max(m1_in + f + nf * g)
                .max(m1_in + nf * f + g);
        }
    }

    /// Makespan of everything pushed so far (completion of the later
    /// machine; jobs that skipped machine 2 finish by `m1`).
    pub fn makespan(&self) -> f64 {
        self.m1.max(self.m2)
    }
}

/// O(1) makespan of `n` identical jobs `(f, g)`:
/// `min(f, g) + n·max(f, g)` (0 for `n = 0`), which for `g = 0`
/// degenerates to `n·f` exactly as the recurrence's local-only rule
/// demands.
///
/// ```
/// use mcdnn_flowshop::{uniform_makespan, makespan, johnson_order, FlowJob};
///
/// let jobs: Vec<FlowJob> = (0..10).map(|i| FlowJob::two_stage(i, 4.0, 6.0)).collect();
/// let exact = makespan(&jobs, &johnson_order(&jobs));
/// assert!((uniform_makespan(10, 4.0, 6.0) - exact).abs() < 1e-9);
/// ```
pub fn uniform_makespan(n: usize, f: f64, g: f64) -> f64 {
    let mut state = PipelineState::new();
    state.push_block(n, f, g);
    state.makespan()
}

/// Which of two homogeneous blocks Johnson's rule schedules first.
///
/// Matches [`johnson_order`] exactly for job sets where block-1 jobs
/// carry lower ids than block-2 jobs (the layout every planner
/// candidate uses): comm-heavy (`f < g`) before compute-heavy;
/// within two comm-heavy blocks ascending `f` (ties → block 1,
/// the lower ids); within two compute-heavy blocks descending `g`
/// (ties → block 1).
fn first_block_is_one(f1: f64, g1: f64, f2: f64, g2: f64) -> bool {
    let one_comm = f1 < g1;
    let two_comm = f2 < g2;
    match (one_comm, two_comm) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => f1 <= f2,
        (false, false) => g1 >= g2,
    }
}

/// O(1) makespan of the two-type mix the paper's Theorem 5.3 plans:
/// `a` jobs `(f1, g1)` and `b` jobs `(f2, g2)`, scheduled by Johnson's
/// rule (each homogeneous block stays contiguous; the comm-heavy block
/// goes first).
///
/// ```
/// use mcdnn_flowshop::two_type_mix_makespan;
///
/// // The paper's Fig. 2 optimum: one job at each adjacent cut -> 13 ms.
/// assert_eq!(two_type_mix_makespan(1, 4.0, 6.0, 1, 7.0, 2.0), 13.0);
/// ```
pub fn two_type_mix_makespan(a: usize, f1: f64, g1: f64, b: usize, f2: f64, g2: f64) -> f64 {
    let mut state = PipelineState::new();
    if a == 0 || b == 0 || first_block_is_one(f1, g1, f2, g2) {
        state.push_block(a, f1, g1);
        state.push_block(b, f2, g2);
    } else {
        state.push_block(b, f2, g2);
        state.push_block(a, f1, g1);
    }
    state.makespan()
}

/// Makespan of a multiset of homogeneous blocks `(count, f, g)` under
/// Johnson's rule, in O(t log t) for `t` block types — independent of
/// the total job count. Blocks with `count == 0` are ignored.
///
/// Used by the brute-force baseline (which enumerates cut multisets
/// over `k + 1` types) and the multi-path scheduler: the per-candidate
/// cost drops from O(n log n) to O(k log k).
pub fn johnson_blocks_makespan(blocks: &[(usize, f64, f64)]) -> f64 {
    // Johnson order over block types: comm-heavy ascending f, then
    // compute-heavy descending g. A stable sort keeps equal keys in
    // input order, mirroring johnson_order's id tie-break when blocks
    // are listed in id order.
    let mut s1: Vec<usize> = Vec::with_capacity(blocks.len());
    let mut s2: Vec<usize> = Vec::with_capacity(blocks.len());
    for (i, &(count, f, g)) in blocks.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if f < g {
            s1.push(i);
        } else {
            s2.push(i);
        }
    }
    s1.sort_by(|&a, &b| blocks[a].1.total_cmp(&blocks[b].1));
    s2.sort_by(|&a, &b| blocks[b].2.total_cmp(&blocks[a].2));
    let mut state = PipelineState::new();
    for &i in s1.iter().chain(&s2) {
        let (count, f, g) = blocks[i];
        state.push_block(count, f, g);
    }
    state.makespan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::FlowJob;
    use crate::johnson::johnson_order;
    use crate::makespan::makespan;

    /// Reference: materialize the blocks as jobs, run Johnson's rule and
    /// the exact recurrence — what the kernels avoid on the hot path.
    fn simulated_blocks_makespan(blocks: &[(usize, f64, f64)]) -> f64 {
        let mut jobs: Vec<FlowJob> = Vec::new();
        for &(count, f, g) in blocks {
            for _ in 0..count {
                jobs.push(FlowJob::two_stage(jobs.len(), f, g));
            }
        }
        makespan(&jobs, &johnson_order(&jobs))
    }

    fn assert_close(a: f64, b: f64, ctx: &str) {
        assert!((a - b).abs() < 1e-9, "{ctx}: kernel {a} vs reference {b}");
    }

    #[test]
    fn uniform_matches_recurrence_exhaustively() {
        let cases = [
            (4.0, 6.0),
            (7.0, 2.0),
            (5.0, 5.0),
            (0.0, 3.0),
            (3.0, 0.0),
            (0.0, 0.0),
            (0.125, 17.75),
        ];
        for &(f, g) in &cases {
            for n in 0..=50 {
                let kernel = uniform_makespan(n, f, g);
                let reference = simulated_blocks_makespan(&[(n, f, g)]);
                assert_close(kernel, reference, &format!("n={n} f={f} g={g}"));
            }
        }
    }

    #[test]
    fn uniform_closed_form_identity() {
        // min + n·max, the shape quoted in the paper's §4.2 analysis.
        for n in 1..=20 {
            for &(f, g) in &[(4.0, 6.0), (9.0, 2.0), (3.0, 3.0)] {
                assert_close(
                    uniform_makespan(n, f, g),
                    f.min(g) + n as f64 * f.max(g),
                    "identity",
                );
            }
        }
    }

    #[test]
    fn mix_matches_recurrence_exhaustively() {
        let pairs = [
            ((4.0, 6.0), (7.0, 2.0)),  // comm-heavy + compute-heavy (paper Fig. 2)
            ((7.0, 2.0), (4.0, 6.0)),  // reversed roles
            ((1.0, 9.0), (2.0, 8.0)),  // both comm-heavy
            ((9.0, 1.0), (8.0, 2.0)),  // both compute-heavy
            ((5.0, 5.0), (5.0, 5.0)),  // exact balance, identical
            ((3.0, 3.0), (4.0, 4.0)),  // both balanced (compute-heavy class)
            ((2.0, 0.0), (1.0, 5.0)),  // local-only block in the mix
            ((0.5, 9.5), (0.5, 9.5)),  // identical comm-heavy
        ];
        for &((f1, g1), (f2, g2)) in &pairs {
            for a in 0..=12 {
                for b in 0..=12 {
                    let kernel = two_type_mix_makespan(a, f1, g1, b, f2, g2);
                    let reference =
                        simulated_blocks_makespan(&[(a, f1, g1), (b, f2, g2)]);
                    assert_close(
                        kernel,
                        reference,
                        &format!("a={a} b={b} ({f1},{g1})+({f2},{g2})"),
                    );
                }
            }
        }
    }

    #[test]
    fn mix_closed_form_on_paper_fig2() {
        assert_eq!(two_type_mix_makespan(1, 4.0, 6.0, 1, 7.0, 2.0), 13.0);
        assert_eq!(two_type_mix_makespan(2, 4.0, 6.0, 0, 7.0, 2.0), 16.0);
        assert_eq!(two_type_mix_makespan(0, 4.0, 6.0, 2, 7.0, 2.0), 16.0);
    }

    #[test]
    fn blocks_match_recurrence_on_multisets() {
        let profiles: [&[(f64, f64)]; 3] = [
            &[(0.0, 9.0), (4.0, 6.0), (7.0, 2.0), (20.0, 0.0)],
            &[(0.0, 12.0), (2.0, 8.0), (9.0, 1.0), (11.0, 0.0)],
            &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)],
        ];
        for types in &profiles {
            // All multisets of size <= 4 over the types.
            let t = types.len();
            let mut counts = vec![0usize; t];
            fn rec(
                counts: &mut Vec<usize>,
                pos: usize,
                left: usize,
                types: &[(f64, f64)],
            ) {
                if pos == counts.len() {
                    let blocks: Vec<(usize, f64, f64)> = counts
                        .iter()
                        .zip(types)
                        .map(|(&c, &(f, g))| (c, f, g))
                        .collect();
                    let kernel = johnson_blocks_makespan(&blocks);
                    let reference = simulated_blocks_makespan(&blocks);
                    assert!(
                        (kernel - reference).abs() < 1e-9,
                        "{blocks:?}: {kernel} vs {reference}"
                    );
                    return;
                }
                for c in 0..=left {
                    counts[pos] = c;
                    rec(counts, pos + 1, left - c, types);
                    counts[pos] = 0;
                }
            }
            rec(&mut counts, 0, 4, types);
        }
    }

    #[test]
    fn block_pushes_compose() {
        // Pushing (a of X, b of Y) equals the mix kernel when the push
        // order is the Johnson order.
        let mut s = PipelineState::new();
        s.push_block(3, 4.0, 6.0);
        s.push_block(2, 7.0, 2.0);
        assert_close(
            s.makespan(),
            two_type_mix_makespan(3, 4.0, 6.0, 2, 7.0, 2.0),
            "compose",
        );
    }

    #[test]
    fn empty_blocks_are_identity() {
        let mut s = PipelineState::new();
        s.push_block(0, 99.0, 99.0);
        assert_eq!(s.makespan(), 0.0);
        assert_eq!(johnson_blocks_makespan(&[]), 0.0);
        assert_eq!(johnson_blocks_makespan(&[(0, 5.0, 5.0)]), 0.0);
    }

    #[test]
    fn local_only_blocks_never_touch_machine_two() {
        let mut s = PipelineState::new();
        s.push_block(4, 3.0, 0.0);
        assert_eq!(s.m2, 0.0);
        assert_eq!(s.makespan(), 12.0);
        // A later uploading block starts machine 2 from scratch.
        s.push_block(1, 1.0, 2.0);
        assert_eq!(s.makespan(), 15.0);
    }
}
