//! §5.1 theory: the continuous relaxation of the partition problem.
//!
//! With cuts relaxed to `x ∈ ℝ₊`, increasing convex `f` and decreasing
//! convex `g`, problem P2 is convex with strong duality (Lemma 5.1) and
//! the KKT conditions give Theorem 5.2: all jobs share one cut `x*`
//! with `f(x*) = g(x*)`. This module finds `x*` on the piecewise-linear
//! interpolation of a discrete profile, checks strong duality on the
//! relaxation, and checks the Theorem 5.3 conditions for the discrete
//! two-type result.

use mcdnn_profile::CostProfile;

/// Piecewise-linear interpolation of a stage vector at real `x ∈ [0, k]`.
pub fn interp(values: &[f64], x: f64) -> f64 {
    let k = values.len() - 1;
    let x = x.clamp(0.0, k as f64);
    let lo = x.floor() as usize;
    if lo == k {
        return values[k];
    }
    let t = x - lo as f64;
    values[lo] * (1.0 - t) + values[lo + 1] * t
}

/// The continuous balanced cut `x*` with `f(x*) = g(x*)` (Theorem 5.2),
/// found by bisection on `f − g` over the profile's piecewise-linear
/// interpolation. Requires monotone `f`, `g`; always exists because
/// `f(0) − g(0) ≤ 0 ≤ f(k) − g(k)`.
pub fn balanced_cut_continuous(profile: &CostProfile) -> f64 {
    assert!(profile.f_is_monotone() && profile.g_is_monotone());
    let k = profile.k() as f64;
    let h = |x: f64| interp(profile.f_all(), x) - interp(profile.g_all(), x);
    let (mut lo, mut hi) = (0.0f64, k);
    if h(lo) >= 0.0 {
        return lo; // g(0) = 0: offloading instantly is already balanced
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if h(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// KKT residual at a continuous cut: `|f(x) − g(x)|`, which Theorem 5.2
/// drives to zero at the optimum.
pub fn kkt_residual(profile: &CostProfile, x: f64) -> f64 {
    (interp(profile.f_all(), x) - interp(profile.g_all(), x)).abs()
}

/// The relaxed objective of P2 at a common continuous cut `x`:
/// `max(Σf/n, Σg/n) = max(f(x), g(x))` for homogeneous cuts.
pub fn relaxed_objective(profile: &CostProfile, x: f64) -> f64 {
    interp(profile.f_all(), x).max(interp(profile.g_all(), x))
}

/// Check the Theorem 5.3 conditions at `l*`:
/// `f(l*−1) + f(l*) = g(l*−1) + g(l*)` and `g(l*−1) = f(l*)`
/// (within `tol` relative error). Under them, mixing the two adjacent
/// cut types half-half reaches the optimal makespan.
pub fn theorem53_condition(profile: &CostProfile, l_star: usize) -> bool {
    theorem53_condition_tol(profile, l_star, 1e-9)
}

/// [`theorem53_condition`] with an explicit relative tolerance.
pub(crate) fn theorem53_condition_tol(profile: &CostProfile, l_star: usize, tol: f64) -> bool {
    let Some(prev) = l_star.checked_sub(1) else {
        return false;
    };
    if l_star > profile.k() {
        return false;
    }
    let lhs = profile.f(prev) + profile.f(l_star);
    let rhs = profile.g(prev) + profile.g(l_star);
    let scale = lhs.abs().max(rhs.abs()).max(1.0);
    let cond1 = (lhs - rhs).abs() <= tol * scale;
    let scale2 = profile.g(prev).abs().max(profile.f(l_star).abs()).max(1.0);
    let cond2 = (profile.g(prev) - profile.f(l_star)).abs() <= tol * scale2;
    cond1 && cond2
}

/// Numerical verification of Lemma 5.1's strong duality on the relaxed
/// problem `min_x max(f(x), g(x))`.
///
/// The Lagrangian dual of `min t s.t. f(x) ≤ t, g(x) ≤ t` is
/// `q(λ) = min_x [λ·f(x) + (1−λ)·g(x)]` over `λ ∈ [0, 1]`; weak duality
/// gives `max_λ q(λ) ≤ min_x max(f, g)`, and for convex `f`, `-g` the
/// paper's Lemma 5.1 (Slater) promises equality. This function returns
/// `(primal, dual)` evaluated on a grid so tests can assert the gap is
/// ≈ 0 for convex instances — and expose it as strictly positive when
/// convexity is violated.
pub fn duality_gap(profile: &CostProfile, grid: usize) -> (f64, f64) {
    assert!(grid >= 2);
    let k = profile.k() as f64;
    let xs: Vec<f64> = (0..=grid).map(|i| k * i as f64 / grid as f64).collect();
    let primal = xs
        .iter()
        .map(|&x| relaxed_objective(profile, x))
        .fold(f64::INFINITY, f64::min);
    let mut dual = f64::NEG_INFINITY;
    for li in 0..=grid {
        let lambda = li as f64 / grid as f64;
        let q = xs
            .iter()
            .map(|&x| {
                lambda * interp(profile.f_all(), x) + (1.0 - lambda) * interp(profile.g_all(), x)
            })
            .fold(f64::INFINITY, f64::min);
        dual = dual.max(q);
    }
    (primal, dual)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(f: Vec<f64>, g: Vec<f64>) -> CostProfile {
        CostProfile::from_vectors("t", f, g, None)
    }

    #[test]
    fn interp_endpoints_and_midpoints() {
        let v = [0.0, 10.0, 30.0];
        assert_eq!(interp(&v, 0.0), 0.0);
        assert_eq!(interp(&v, 2.0), 30.0);
        assert_eq!(interp(&v, 0.5), 5.0);
        assert_eq!(interp(&v, 1.5), 20.0);
        assert_eq!(interp(&v, -1.0), 0.0); // clamped
        assert_eq!(interp(&v, 9.0), 30.0); // clamped
    }

    #[test]
    fn balanced_cut_crosses_f_equals_g() {
        let p = profile(
            vec![0.0, 2.0, 4.0, 7.0, 9.0],
            vec![20.0, 8.0, 5.0, 2.0, 0.0],
        );
        let x = balanced_cut_continuous(&p);
        assert!(kkt_residual(&p, x) < 1e-9, "residual {}", kkt_residual(&p, x));
        // Crossing lies between cut 2 (4 < 5) and cut 3 (7 > 2).
        assert!((2.0..3.0).contains(&x), "x = {x}");
    }

    #[test]
    fn balanced_cut_zero_on_free_network() {
        let p = profile(vec![0.0, 5.0], vec![0.0, 0.0]);
        assert_eq!(balanced_cut_continuous(&p), 0.0);
    }

    #[test]
    fn balanced_cut_minimises_relaxed_objective() {
        let p = profile(
            vec![0.0, 2.0, 4.0, 7.0, 9.0],
            vec![20.0, 8.0, 5.0, 2.0, 0.0],
        );
        let x_star = balanced_cut_continuous(&p);
        let best = relaxed_objective(&p, x_star);
        // Theorem 5.2: any other common cut does no better.
        for i in 0..=80 {
            let x = i as f64 * 0.05;
            assert!(
                relaxed_objective(&p, x) >= best - 1e-9,
                "objective at {x} beats x* = {x_star}"
            );
        }
    }

    #[test]
    fn strong_duality_holds_for_convex_instances() {
        // Linear f, exponentially decaying (convex) g — the paper's
        // canonical shapes (§5.1, Fig. 7).
        let k = 8usize;
        let f: Vec<f64> = (0..=k).map(|i| 3.0 * i as f64).collect();
        let mut g: Vec<f64> = (0..=k).map(|i| 40.0 * 0.5f64.powi(i as i32)).collect();
        g[k] = 0.0;
        let p = profile(f, g);
        let (primal, dual) = duality_gap(&p, 256);
        assert!(
            (primal - dual).abs() <= primal * 0.02 + 1e-6,
            "gap too large: primal {primal} vs dual {dual}"
        );
    }

    #[test]
    fn duality_gap_appears_without_convexity() {
        // Concave g (gentle slope, then a cliff): the crossing sits at
        // x* = 3.6 with value 3.6 (primal), while the best Lagrangian
        // bound is max_λ min(12(1−λ), 4λ) = 3.0 at λ = 0.75 — an exact
        // hand-computable gap of 0.6 that vanishes under Lemma 5.1's
        // convexity assumption.
        let p = profile(
            vec![0.0, 1.0, 2.0, 3.0, 4.0],
            vec![12.0, 11.0, 10.0, 9.0, 0.0],
        );
        let (primal, dual) = duality_gap(&p, 512);
        assert!((primal - 3.6).abs() < 0.02, "primal {primal}");
        assert!((dual - 3.0).abs() < 0.02, "dual {dual}");
    }

    #[test]
    fn weak_duality_always() {
        // Dual never exceeds primal, convex or not.
        for gvals in [
            vec![30.0, 10.0, 3.0, 1.0, 0.0],
            vec![30.0, 28.0, 26.0, 24.0, 0.0],
            vec![30.0, 15.0, 14.0, 2.0, 0.0],
        ] {
            let p = profile(vec![0.0, 2.0, 4.0, 6.0, 8.0], gvals);
            let (primal, dual) = duality_gap(&p, 128);
            assert!(dual <= primal + 1e-9);
        }
    }

    #[test]
    fn convexity_slack_sign_tracks_curvature() {
        // Exponential g: convex -> slack >= 0 everywhere.
        let k = 6usize;
        let f: Vec<f64> = (0..=k).map(|i| i as f64).collect();
        let mut g: Vec<f64> = (0..=k).map(|i| 64.0 * 0.5f64.powi(i as i32)).collect();
        g[k] = 0.0;
        let convex = profile(f.clone(), g);
        // Jensen: (g(x') + g(x''))/2 - g((x' + x'')/2) >= 0 on convex g.
        let slack = |lo: f64, hi: f64| {
            0.5 * (interp(convex.g_all(), lo) + interp(convex.g_all(), hi))
                - interp(convex.g_all(), 0.5 * (lo + hi))
        };
        assert!(slack(0.0, 4.0) >= 0.0);
        assert!(slack(1.0, 3.0) >= 0.0);
        // The Fig. 8(a) statement: averaging two off-optimum cuts keeps
        // the communication average above g at the balanced point.
        let x_star = balanced_cut_continuous(&convex);
        let (lo, hi) = (x_star - 0.8, x_star + 0.8);
        let avg_g = 0.5
            * (interp(convex.g_all(), lo) + interp(convex.g_all(), hi));
        assert!(avg_g >= interp(convex.g_all(), x_star) - 1e-9);
    }

    #[test]
    fn theorem53_detection() {
        // f = (·,4,6), g = (·,6,4) at cuts 1,2 satisfies both conditions.
        let yes = profile(vec![0.0, 4.0, 6.0, 30.0], vec![8.0, 6.0, 4.0, 0.0]);
        assert!(theorem53_condition(&yes, 2));
        // Perturb: sums unequal.
        let no = profile(vec![0.0, 4.0, 7.0, 30.0], vec![8.0, 6.0, 4.0, 0.0]);
        assert!(!theorem53_condition(&no, 2));
        // l* = 0 has no previous layer.
        assert!(!theorem53_condition(&yes, 0));
    }
}
