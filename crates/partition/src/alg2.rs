//! Algorithm 2: binary-search cut finder for line-structure DNNs.
//!
//! Given the monotone stage functions — `f` non-decreasing, `g`
//! non-increasing over cuts `0..=k` — find the left-most cut `l*` with
//! `f(l*) ≥ g(l*)` in `O(log k)`, and the ratio in which the two cut
//! types `l*−1` and `l*` should be mixed (§5.2).

use mcdnn_profile::CostProfile;

/// Result of the Alg. 2 search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutSearch {
    /// The left-most cut with `f ≥ g` (the paper's `l*`).
    pub l_star: usize,
    /// `l* − 1` when it exists (`l*` may be 0 on very fast networks).
    pub l_prev: Option<usize>,
    /// The paper's mixing ratio
    /// `⌊(f(l*) − g(l*)) / (g(l*−1) − f(l*−1))⌋`: how many jobs to cut
    /// at `l*−1` per job cut at `l*`. `None` when only one cut type is
    /// meaningful (exact balance, `l* = 0`, or a zero denominator).
    pub ratio: Option<usize>,
}

/// Binary search for `l*` (paper Alg. 2, lines 2–8).
///
/// Requires monotone `f` and `g` (the clustered-profile property);
/// asserted in debug builds. `l*` always exists because
/// `f(k) ≥ 0 = g(k)`.
///
/// ```
/// use mcdnn_partition::binary_search_cut;
/// use mcdnn_profile::CostProfile;
///
/// let profile = CostProfile::from_vectors(
///     "demo",
///     vec![0.0, 4.0, 7.0, 20.0],  // f: mobile time per cut
///     vec![99.0, 6.0, 2.0, 0.0],  // g: upload time per cut
///     None,
/// );
/// let search = binary_search_cut(&profile);
/// assert_eq!(search.l_star, 2);       // first cut with f >= g
/// assert_eq!(search.ratio, Some(2));  // mix 2 jobs at l*-1 per job at l*
/// ```
pub fn binary_search_cut(profile: &CostProfile) -> CutSearch {
    debug_assert!(profile.f_is_monotone(), "f must be non-decreasing");
    debug_assert!(profile.g_is_monotone(), "g must be non-increasing");
    search_cut(profile.f_all(), profile.g_all())
}

/// [`binary_search_cut`] over borrowed stage slices `f`, `g` of equal
/// length `k + 1` — the form the frontier compiler probes with, so a
/// probe needs no [`CostProfile`]. The compiler checks monotonicity
/// once per compile ([`RateProfile::check_monotone`]).
///
/// [`RateProfile::check_monotone`]: crate::RateProfile::check_monotone
pub(crate) fn search_cut(f: &[f64], g: &[f64]) -> CutSearch {
    let (mut l, mut r) = (0usize, f.len() - 1);
    while l < r {
        let mid = (l + r) / 2;
        if f[mid] < g[mid] {
            l = mid + 1;
        } else {
            r = mid;
        }
    }
    let l_star = l;
    let l_prev = l_star.checked_sub(1);
    CutSearch {
        l_star,
        l_prev,
        ratio: ratio_at(f, g, l_star),
    }
}

/// The two-type mixing ratio of §5.2 / Alg. 2 line 9.
///
/// When `f(l*) > g(l*)` strictly and `l* ≥ 1`, jobs cut at `l*−1`
/// (communication-heavy) hide uploads behind the computation of jobs
/// cut at `l*` (computation-heavy); balancing the accumulated
/// difference wants `⌊(f(l*) − g(l*)) / (g(l*−1) − f(l*−1))⌋` jobs of
/// the first kind per job of the second.
pub fn mixing_ratio(profile: &CostProfile, l_star: usize) -> Option<usize> {
    ratio_at(profile.f_all(), profile.g_all(), l_star)
}

/// [`mixing_ratio`] over borrowed stage slices. Reads only the `l*`
/// and `l*−1` entries.
pub(crate) fn ratio_at(f: &[f64], g: &[f64], l_star: usize) -> Option<usize> {
    let prev = l_star.checked_sub(1)?;
    let surplus = f[l_star] - g[l_star];
    let deficit = g[prev] - f[prev];
    if surplus <= 0.0 || deficit <= 0.0 {
        return None; // exact balance at l*, or no usable previous cut
    }
    Some((surplus / deficit).floor() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(f: Vec<f64>, g: Vec<f64>) -> CostProfile {
        CostProfile::from_vectors("t", f, g, None)
    }

    #[test]
    fn matches_linear_scan_reference() {
        let p = profile(
            vec![0.0, 2.0, 4.0, 7.0, 9.0, 15.0],
            vec![30.0, 14.0, 8.0, 5.0, 2.0, 0.0],
        );
        let s = binary_search_cut(&p);
        assert_eq!(s.l_star, p.l_star_linear());
        assert_eq!(s.l_star, 3); // f(3)=7 >= g(3)=5
        assert_eq!(s.l_prev, Some(2));
    }

    #[test]
    fn l_star_zero_on_instant_network() {
        let p = profile(vec![0.0, 5.0, 9.0], vec![0.0, 0.0, 0.0]);
        let s = binary_search_cut(&p);
        assert_eq!(s.l_star, 0);
        assert_eq!(s.l_prev, None);
        assert_eq!(s.ratio, None);
    }

    #[test]
    fn l_star_k_on_dead_network() {
        // g enormous everywhere except the forced g(k)=0: local only.
        let p = profile(vec![0.0, 5.0, 9.0], vec![1e9, 1e9, 0.0]);
        let s = binary_search_cut(&p);
        assert_eq!(s.l_star, 2);
    }

    #[test]
    fn exact_balance_needs_one_type() {
        // f(2)=6=g(2): Theorem 5.2's discrete ideal — cut all jobs there.
        let p = profile(vec![0.0, 3.0, 6.0, 8.0], vec![20.0, 9.0, 6.0, 0.0]);
        let s = binary_search_cut(&p);
        assert_eq!(s.l_star, 2);
        assert_eq!(s.ratio, None); // surplus is 0
    }

    #[test]
    fn ratio_formula() {
        // l* = 2: f=7, g=2 -> surplus 5; prev: f=4, g=6 -> deficit 2.
        // ratio = floor(5/2) = 2.
        let p = profile(vec![0.0, 4.0, 7.0, 12.0], vec![9.0, 6.0, 2.0, 0.0]);
        let s = binary_search_cut(&p);
        assert_eq!(s.l_star, 2);
        assert_eq!(s.ratio, Some(2));
    }

    #[test]
    fn ratio_zero_when_surplus_small() {
        // surplus 1, deficit 5 -> floor(0.2) = 0: mixing in l*-1 cuts
        // would overshoot; ratio 0 means favour l* only.
        let p = profile(vec![0.0, 1.0, 7.0, 12.0], vec![9.0, 6.0, 6.0, 0.0]);
        let s = binary_search_cut(&p);
        assert_eq!(s.l_star, 2);
        assert_eq!(s.ratio, Some(0));
    }

    #[test]
    fn agrees_with_scan_on_many_profiles() {
        // Deterministic pseudo-random monotone profiles.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 100.0
        };
        for k in 1..40 {
            let mut f = vec![0.0];
            for _ in 0..k {
                let last = *f.last().unwrap();
                f.push(last + next());
            }
            let mut g = vec![0.0; k + 1];
            for i in (0..k).rev() {
                g[i] = g[i + 1] + next();
            }
            let p = profile(f, g);
            assert_eq!(binary_search_cut(&p).l_star, p.l_star_linear(), "k={k}");
        }
    }

    #[test]
    fn single_layer_profile() {
        let p = profile(vec![0.0, 10.0], vec![4.0, 0.0]);
        let s = binary_search_cut(&p);
        // f(0)=0 < g(0)=4; f(1)=10 >= 0.
        assert_eq!(s.l_star, 1);
        // surplus = f(1)-g(1) = 10, deficit = g(0)-f(0) = 4: ratio 2.
        assert_eq!(s.ratio, Some(2));
    }
}
