//! The graceful-degradation ladder for the online streaming loop.
//!
//! When the uplink degrades, the planner walks down a ladder instead of
//! failing:
//!
//! 1. **Replan at the new rate** — re-run
//!    [`best_cut_for_rate`](crate::stream::best_cut_for_rate) against
//!    the *effective* profile (`g / factor`): the link is slower, but a
//!    feasible cut may still exist.
//! 2. **Shift the cut toward mobile** — when no cut sustains the target
//!    rate (`best_cut_for_rate` returns `None`, its documented
//!    contract), pick the cut minimising the bottleneck
//!    `max(f, g_eff)`: the stream runs saturated but drains as fast as
//!    any partition can.
//! 3. **Mobile-only fallback** — when even the shifted cut's makespan
//!    would exceed running everything on-device (or the link is fully
//!    dead), cut at `k`: `g(k) = 0`, the pipeline no longer touches the
//!    network at all.
//!
//! The ladder carries a guarantee the chaos tests pin: because cut `k`
//! is always a candidate and rung 3 explicitly compares against it, the
//! per-burst makespan under the ladder **never exceeds the mobile-only
//! baseline** `n · f(k)`, for every rate factor in `[0, 1]`.
//!
//! [`run_degraded`] replays a piecewise-constant fault timeline (one
//! rate factor per burst) under a [`DegradePolicy`] and prices each
//! burst with the O(1) uniform-makespan kernel, so whole chaos grids
//! stay cheap.

use mcdnn_flowshop::uniform_makespan;
use mcdnn_obs::metrics;
use mcdnn_profile::{CostProfile, ProfileError};

use crate::fault::RetryPolicy;
use crate::stream::best_cut_in;

/// Which rung of the degradation ladder a decision landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderLevel {
    /// The nominal-rate cut still sustains the target rate.
    Normal,
    /// A different cut sustains the target rate at the degraded link.
    Replanned,
    /// No cut sustains the rate; the bottleneck-minimising cut runs
    /// saturated.
    Shifted,
    /// Everything on-device: the link is dead or not worth using.
    MobileOnly,
}

impl std::fmt::Display for LadderLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LadderLevel::Normal => "normal",
            LadderLevel::Replanned => "replanned",
            LadderLevel::Shifted => "shifted",
            LadderLevel::MobileOnly => "mobile-only",
        })
    }
}

/// One ladder decision: the rung taken and the cut chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderDecision {
    /// Rung of the ladder.
    pub level: LadderLevel,
    /// Chosen cut layer.
    pub cut: usize,
}

/// Walk the degradation ladder for one observed uplink `rate_factor`.
///
/// `rate_factor` is the remaining fraction of the nominal link rate
/// (1.0 = healthy, 0.0 = blackout). `n_jobs` sizes the makespan guard
/// of rung 3: a shifted cut is only kept when its uniform makespan for
/// the burst beats computing everything on-device.
pub fn ladder_decision(
    profile: &CostProfile,
    target_hz: f64,
    rho_limit: f64,
    rate_factor: f64,
    n_jobs: usize,
) -> LadderDecision {
    let ladder = Ladder::new(
        profile.f_all(),
        profile.g_all(),
        target_hz,
        rho_limit,
        n_jobs,
    );
    let decision = ladder.decide(rate_factor, &mut vec![0.0; profile.k() + 1]);
    count_ladder(decision.level);
    decision
}

/// Emit the `degrade.*` counter for a final ladder decision. The rung
/// → counter mapping is 1:1, so counting at the end is identical to the
/// per-branch counting the ladder used to do inline.
fn count_ladder(level: LadderLevel) {
    match level {
        LadderLevel::Normal => &metrics::DEGRADE_NORMAL,
        LadderLevel::Replanned => &metrics::DEGRADE_REPLANS,
        LadderLevel::Shifted => &metrics::DEGRADE_SHIFTS,
        LadderLevel::MobileOnly => &metrics::DEGRADE_MOBILE_ONLY,
    }
    .add(1);
}

/// One ladder over borrowed stage slices: everything a decision needs
/// that does not depend on the rate factor, set up once — including
/// the nominal-rate cut — so [`LadderFrontier::compile`] can probe
/// hundreds of factors without rebuilding a profile per probe.
struct Ladder<'a> {
    f: &'a [f64],
    g: &'a [f64],
    target_hz: f64,
    rho_limit: f64,
    n_jobs: usize,
    /// [`best_cut_in`] at the nominal link rate.
    nominal: Option<usize>,
}

impl<'a> Ladder<'a> {
    fn new(f: &'a [f64], g: &'a [f64], target_hz: f64, rho_limit: f64, n_jobs: usize) -> Self {
        assert!(target_hz > 0.0 && rho_limit > 0.0);
        assert!(n_jobs >= 1, "need at least one job per burst");
        Ladder {
            f,
            g,
            target_hz,
            rho_limit,
            n_jobs,
            nominal: best_cut_in(f, g, target_hz, rho_limit),
        }
    }

    /// The ladder walk at `rate_factor`, without observability
    /// counters. `g_eff` is scratch of length `k + 1`, refilled with
    /// the effective upload times `g / rate_factor`; a non-finite one
    /// panics with the message [`CostProfile::from_vectors`] gives.
    fn decide(&self, rate_factor: f64, g_eff: &mut [f64]) -> LadderDecision {
        assert!((0.0..=1.0).contains(&rate_factor), "factor in [0, 1]");
        let (f, k) = (self.f, self.f.len() - 1);
        if rate_factor <= 0.0 {
            // Dead link: nothing with g > 0 can ever finish. Straight to
            // the bottom rung without consulting the planner.
            return LadderDecision {
                level: LadderLevel::MobileOnly,
                cut: k,
            };
        }
        for (index, (ge, &gl)) in g_eff.iter_mut().zip(self.g).enumerate() {
            let value = gl / rate_factor;
            if !value.is_finite() {
                panic!(
                    "{}",
                    ProfileError::NonFinite {
                        which: "g",
                        index,
                        value
                    }
                );
            }
            *ge = value;
        }
        let g_eff = &*g_eff;
        let candidate = match best_cut_in(f, g_eff, self.target_hz, self.rho_limit) {
            // Rung 1: a feasible cut exists at the degraded rate.
            Some(cut) => {
                let level = if rate_factor >= 1.0 || self.nominal == Some(cut) {
                    LadderLevel::Normal
                } else {
                    LadderLevel::Replanned
                };
                LadderDecision { level, cut }
            }
            // Rung 2: nothing sustains the rate — minimise the
            // bottleneck, breaking ties toward mobile (larger cut, less
            // link use).
            None => {
                let shifted = (0..=k)
                    .min_by(|&a, &b| {
                        let ba = f[a].max(g_eff[a]);
                        let bb = f[b].max(g_eff[b]);
                        ba.total_cmp(&bb).then(b.cmp(&a))
                    })
                    .expect("profiles are non-empty");
                LadderDecision {
                    level: LadderLevel::Shifted,
                    cut: shifted,
                }
            }
        };
        // Rung 3 guard, applied to *every* candidate: cut k is always
        // available at n·f(k), so the ladder never commits to a burst
        // that loses to computing everything on-device. This is what
        // makes the mobile-only dominance guarantee unconditional.
        let n = self.n_jobs as f64;
        let span = uniform_makespan(self.n_jobs, f[candidate.cut], g_eff[candidate.cut]);
        if span <= n * f[k] {
            candidate
        } else {
            LadderDecision {
                level: LadderLevel::MobileOnly,
                cut: k,
            }
        }
    }
}

/// The degradation ladder compiled into an exact piecewise-constant
/// function of the link rate factor `x ∈ (0, 1]`.
///
/// Every comparison the ladder makes is monotone in `1/x`, so its
/// decision can only flip at finitely many candidate factors, all
/// enumerable in closed form from the profile:
///
/// * feasibility flips of cut `l` — `g(l)/x` crosses the rate budget
///   `ρ · 1000/hz` at `x = g(l)/budget`;
/// * rung-1 latency-order crossings — `f(a) + g(a)/x` meets
///   `f(b) + g(b)/x` at `x = (g(a) − g(b))/(f(b) − f(a))`;
/// * rung-2 bottleneck crossings and kinks — `g(a)/x` meets `f(b)`
///   (including `a == b`, the kink of `max(f, g/x)`) at `x = g(a)/f(b)`;
/// * rung-3 guard crossings — `uniform_makespan(n, f(c), g(c)/x)`
///   meets `n · f(k)` at `x = n·g(c)/(n·f(k) − f(c))` on the
///   upload-dominant side and `x = g(c)/(n·(f(k) − f(c)))` on the
///   compute-dominant side;
/// * `x = 1.0`, where the rung-1 level check `rate_factor ≥ 1.0` flips.
///
/// Each candidate is padded by ±2 ulps to absorb float-evaluation
/// wobble at the crossing itself, then the ladder is probed **exactly
/// at** every boundary and once inside every open interval. A
/// [`LadderFrontier::decide`] is then a binary search: bitwise-equal
/// boundary hits return the at-boundary decision, everything else the
/// interval decision — matching [`ladder_decision`] everywhere
/// (property-tested densely) without rebuilding an effective profile
/// per burst.
#[derive(Debug, Clone)]
pub struct LadderFrontier {
    f: Vec<f64>,
    g: Vec<f64>,
    n_jobs: usize,
    /// Decision at `x = 1.0` — the frozen-policy cut.
    healthy: LadderDecision,
    /// Ascending candidate boundaries; the last is exactly `1.0`.
    boundaries: Vec<f64>,
    /// `at_boundary[i]` — the ladder's decision exactly at
    /// `boundaries[i]`.
    at_boundary: Vec<LadderDecision>,
    /// `below[i]` — the decision on the open interval
    /// `(boundaries[i-1], boundaries[i])` (from 0 for `i = 0`).
    below: Vec<LadderDecision>,
}

impl LadderFrontier {
    /// Compile the ladder of `(profile, target_hz, rho_limit, n_jobs)`
    /// over all rate factors in `[0, 1]`.
    pub fn compile(
        profile: &CostProfile,
        target_hz: f64,
        rho_limit: f64,
        n_jobs: usize,
    ) -> LadderFrontier {
        let started = std::time::Instant::now();
        let (f, g) = (profile.f_all(), profile.g_all());
        let ladder = Ladder::new(f, g, target_hz, rho_limit, n_jobs);
        let k = profile.k();
        let budget = rho_limit * 1000.0 / target_hz;
        let n = n_jobs as f64;
        let f_k = f[k];

        let mut raw: Vec<f64> = vec![1.0];
        for &gl in g {
            if gl > 0.0 {
                raw.push(gl / budget);
            }
        }
        for a in 0..=k {
            for b in 0..=k {
                if a != b {
                    let df = f[b] - f[a];
                    let dg = g[a] - g[b];
                    if df > 0.0 && dg > 0.0 {
                        raw.push(dg / df);
                    }
                }
                if g[a] > 0.0 && f[b] > 0.0 {
                    raw.push(g[a] / f[b]);
                }
            }
        }
        for c in 0..=k {
            if g[c] > 0.0 {
                let d_upload = n * f_k - f[c];
                if d_upload > 0.0 {
                    raw.push(n * g[c] / d_upload);
                }
                let d_compute = n * (f_k - f[c]);
                if d_compute > 0.0 {
                    raw.push(g[c] / d_compute);
                }
            }
        }

        let mut boundaries = Vec::with_capacity(raw.len() * 5 + 1);
        for x in raw {
            if !x.is_finite() || x <= 0.0 {
                continue;
            }
            let bits = x.to_bits();
            boundaries.push(x);
            boundaries.push(f64::from_bits(bits + 1));
            boundaries.push(f64::from_bits(bits + 2));
            if bits >= 2 {
                boundaries.push(f64::from_bits(bits - 1));
                boundaries.push(f64::from_bits(bits - 2));
            }
        }
        boundaries.retain(|x| *x > 0.0 && *x <= 1.0);
        boundaries.push(1.0);
        // `total_cmp` equality is bit equality: unstable order is exact.
        boundaries.sort_unstable_by(f64::total_cmp);
        boundaries.dedup();

        let mut g_eff = vec![0.0; k + 1];
        let mut at_boundary = Vec::with_capacity(boundaries.len());
        let mut below = Vec::with_capacity(boundaries.len());
        let mut prev = 0.0f64;
        for &b in &boundaries {
            let mut mid = 0.5 * (prev + b);
            if mid <= prev || mid >= b {
                // No representable factor strictly inside: the interval
                // is empty, any placeholder decision is unreachable.
                mid = b;
            }
            at_boundary.push(ladder.decide(b, &mut g_eff));
            below.push(ladder.decide(mid, &mut g_eff));
            prev = b;
        }
        let healthy = *at_boundary.last().expect("1.0 is always a boundary");

        metrics::FRONTIER_LADDER_COMPILE.add(1);
        metrics::FRONTIER_LADDER_BOUNDARIES.add(boundaries.len() as u64);
        metrics::FRONTIER_LADDER_COMPILE_MS.observe(started.elapsed().as_secs_f64() * 1e3);
        LadderFrontier {
            f: f.to_vec(),
            g: g.to_vec(),
            n_jobs,
            healthy,
            boundaries,
            at_boundary,
            below,
        }
    }

    /// Number of layers `k`.
    pub fn k(&self) -> usize {
        self.f.len() - 1
    }

    /// The job count per burst this frontier was compiled for.
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// The decision at a healthy link (`x = 1.0`) — the frozen cut.
    pub fn healthy(&self) -> LadderDecision {
        self.healthy
    }

    /// Number of candidate boundaries (ulp-padded, including `1.0`).
    pub fn num_boundaries(&self) -> usize {
        self.boundaries.len()
    }

    /// O(log B) ladder decision for `rate_factor`, emitting the same
    /// `degrade.*` counter [`ladder_decision`] would.
    pub fn decide(&self, rate_factor: f64) -> LadderDecision {
        let decision = self.decide_uncounted(rate_factor);
        count_ladder(decision.level);
        decision
    }

    fn decide_uncounted(&self, rate_factor: f64) -> LadderDecision {
        assert!((0.0..=1.0).contains(&rate_factor), "factor in [0, 1]");
        if rate_factor <= 0.0 {
            return LadderDecision {
                level: LadderLevel::MobileOnly,
                cut: self.k(),
            };
        }
        metrics::FRONTIER_LADDER_LOOKUPS.add(1);
        let i = self.boundaries.partition_point(|b| *b < rate_factor);
        debug_assert!(i < self.boundaries.len(), "1.0 bounds every factor");
        if self.boundaries[i] == rate_factor {
            self.at_boundary[i]
        } else {
            self.below[i]
        }
    }
}

/// How the online loop reacts to link degradation in [`run_degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Keep the cut chosen under a healthy link, whatever happens.
    Frozen,
    /// Walk the ladder with the *current* burst's true rate factor —
    /// this is also the oracle: it reacts instantly, as if it knew the
    /// fault schedule in advance.
    Ladder,
    /// Walk the ladder with the *previous* burst's factor: detection
    /// lags reality by one burst, the realistic estimator.
    LaggedLadder,
    /// Always compute everything on-device.
    MobileOnly,
}

impl std::fmt::Display for DegradePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradePolicy::Frozen => "frozen",
            DegradePolicy::Ladder => "ladder",
            DegradePolicy::LaggedLadder => "lagged-ladder",
            DegradePolicy::MobileOnly => "mobile-only",
        })
    }
}

/// One burst of a degraded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstRecord {
    /// Burst index.
    pub burst: usize,
    /// True link rate factor during the burst.
    pub factor: f64,
    /// Ladder rung of the decision taken (the *believed* rung under
    /// [`DegradePolicy::LaggedLadder`]).
    pub level: LadderLevel,
    /// Cut the burst actually ran with.
    pub cut: usize,
    /// Realised burst makespan, ms.
    pub makespan_ms: f64,
}

/// Outcome of [`run_degraded`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRun {
    /// Per-burst decisions and realised makespans.
    pub bursts: Vec<BurstRecord>,
    /// Sum of burst makespans, ms.
    pub total_ms: f64,
}

/// Price one burst that *commits* to `cut` while the true factor is
/// `factor`. A cut with `g > 0` under a blackout burns the full retry
/// budget per the policy, then finishes every job on-device.
fn burst_cost_parts(
    f_cut: f64,
    f_k: f64,
    g_cut: f64,
    factor: f64,
    n: usize,
    retry: &RetryPolicy,
) -> f64 {
    if g_cut <= 0.0 {
        return n as f64 * f_cut;
    }
    if factor <= 0.0 {
        // Blackout with offloading committed: attempts all time out,
        // then the remaining layers of every job run on-device.
        metrics::FAULT_LOCAL_FALLBACKS.add(n as u64);
        return retry.exhaustion_penalty_ms() + n as f64 * f_cut + n as f64 * (f_k - f_cut);
    }
    uniform_makespan(n, f_cut, g_cut / factor)
}

/// Replay a fault timeline (`factors[i]` = true link rate factor of
/// burst `i`, each burst `jobs_per_burst` homogeneous jobs) under
/// `policy` and return per-burst records plus the summed makespan.
///
/// [`DegradePolicy::Ladder`] doubles as the oracle baseline: the chaos
/// grid reports every policy's total relative to it.
pub fn run_degraded(
    profile: &CostProfile,
    factors: &[f64],
    jobs_per_burst: usize,
    target_hz: f64,
    rho_limit: f64,
    retry: &RetryPolicy,
    policy: DegradePolicy,
) -> DegradedRun {
    let frontier = LadderFrontier::compile(profile, target_hz, rho_limit, jobs_per_burst);
    run_degraded_via(&frontier, factors, retry, policy)
}

/// [`run_degraded`] against a pre-compiled [`LadderFrontier`]. The
/// compile cost amortizes across replays: chaos grids compile the
/// ladder once per profile and share it across every scenario × policy
/// cell, and long fault timelines pay O(log B) per burst instead of a
/// full ladder walk with an effective-profile rebuild.
pub fn run_degraded_via(
    frontier: &LadderFrontier,
    factors: &[f64],
    retry: &RetryPolicy,
    policy: DegradePolicy,
) -> DegradedRun {
    let _span = mcdnn_obs::span("sim", "run_degraded");
    let k = frontier.k();
    let n = frontier.n_jobs();
    let frozen_cut = frontier.healthy().cut;
    let mut bursts = Vec::with_capacity(factors.len());
    let mut total = 0.0f64;
    let mut prev_level = LadderLevel::Normal;
    for (i, &factor) in factors.iter().enumerate() {
        let (level, cut) = match policy {
            DegradePolicy::Frozen => (frontier.decide(factor.clamp(0.0, 1.0)).level, frozen_cut),
            DegradePolicy::Ladder => {
                let d = frontier.decide(factor.clamp(0.0, 1.0));
                (d.level, d.cut)
            }
            DegradePolicy::LaggedLadder => {
                let believed = if i == 0 { 1.0 } else { factors[i - 1] };
                let d = frontier.decide(believed.clamp(0.0, 1.0));
                (d.level, d.cut)
            }
            DegradePolicy::MobileOnly => (LadderLevel::MobileOnly, k),
        };
        if prev_level != LadderLevel::Normal && level == LadderLevel::Normal {
            metrics::DEGRADE_RECOVERIES.add(1);
        }
        prev_level = level;
        let makespan_ms = burst_cost_parts(
            frontier.f[cut],
            frontier.f[k],
            frontier.g[cut],
            factor,
            n,
            retry,
        );
        total += makespan_ms;
        bursts.push(BurstRecord {
            burst: i,
            factor,
            level,
            cut,
            makespan_ms,
        });
    }
    DegradedRun {
        bursts,
        total_ms: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CostProfile {
        CostProfile::from_vectors(
            "ladder-test",
            vec![0.0, 10.0, 40.0, 120.0],
            vec![200.0, 60.0, 20.0, 0.0],
            None,
        )
    }

    #[test]
    fn healthy_link_stays_normal() {
        let p = profile();
        let d = ladder_decision(&p, 20.0, 0.9, 1.0, 10);
        assert_eq!(d.level, LadderLevel::Normal);
        assert_eq!(d.cut, 2, "matches best_cut_for_rate at nominal rate");
    }

    #[test]
    fn mild_collapse_replans_toward_mobile() {
        let p = profile();
        // At factor 0.5 cut 2's g_eff = 40 < 45 still feasible; its
        // latency (80) still beats anything else feasible.
        let d = ladder_decision(&p, 20.0, 0.9, 0.5, 10);
        assert!(matches!(
            d.level,
            LadderLevel::Normal | LadderLevel::Replanned
        ));
        assert_eq!(d.cut, 2);
        // Deep collapse: g_eff(2) = 200 infeasible, no cut sustains
        // 20 Hz; bottleneck argmin over max(f, g_eff):
        // cut 3 has max(120, 0) = 120, cut 2 max(40, 200) — shift picks 3.
        let deep = ladder_decision(&p, 20.0, 0.9, 0.1, 10);
        assert_eq!(deep.cut, 3);
    }

    #[test]
    fn dead_link_goes_mobile_only() {
        let p = profile();
        let d = ladder_decision(&p, 20.0, 0.9, 0.0, 10);
        assert_eq!(d.level, LadderLevel::MobileOnly);
        assert_eq!(d.cut, p.k());
    }

    #[test]
    fn infeasible_rate_exercises_none_contract_then_shifts() {
        let p = profile();
        // 1000 Hz: nothing sustains it even at factor 1.0 —
        // best_cut_for_rate is None and the ladder must still answer.
        let d = ladder_decision(&p, 1000.0, 0.9, 1.0, 4);
        assert!(matches!(
            d.level,
            LadderLevel::Shifted | LadderLevel::MobileOnly
        ));
        // Whatever rung: never worse than mobile-only for the burst.
        let span = uniform_makespan(4, p.f(d.cut), p.g(d.cut));
        assert!(span <= 4.0 * p.f(p.k()) + 1e-9);
    }

    #[test]
    fn ladder_burst_never_exceeds_mobile_only_for_any_factor() {
        let p = profile();
        let n = 8;
        let mobile = n as f64 * p.f(p.k());
        for i in 0..=100 {
            let factor = i as f64 / 100.0;
            let d = ladder_decision(&p, 20.0, 0.9, factor, n);
            let span = if factor > 0.0 {
                uniform_makespan(n, p.f(d.cut), p.g(d.cut) / factor)
            } else {
                n as f64 * p.f(d.cut) // cut k: g = 0
            };
            assert!(
                span <= mobile + 1e-9,
                "factor {factor}: ladder {span} > mobile-only {mobile}"
            );
        }
    }

    #[test]
    fn run_degraded_ladder_beats_frozen_under_blackout() {
        let p = profile();
        let factors = [1.0, 1.0, 0.0, 0.0, 0.3, 1.0];
        let retry = RetryPolicy::default();
        let ladder = run_degraded(&p, &factors, 6, 20.0, 0.9, &retry, DegradePolicy::Ladder);
        let frozen = run_degraded(&p, &factors, 6, 20.0, 0.9, &retry, DegradePolicy::Frozen);
        let mobile =
            run_degraded(&p, &factors, 6, 20.0, 0.9, &retry, DegradePolicy::MobileOnly);
        assert!(
            ladder.total_ms < frozen.total_ms,
            "ladder {} must beat frozen {} through the blackout",
            ladder.total_ms,
            frozen.total_ms
        );
        assert!(
            ladder.total_ms <= mobile.total_ms + 1e-9,
            "ladder {} must never lose to mobile-only {}",
            ladder.total_ms,
            mobile.total_ms
        );
        assert_eq!(ladder.bursts.len(), factors.len());
        // The blackout bursts ran mobile-only, the healthy ones didn't.
        assert_eq!(ladder.bursts[2].level, LadderLevel::MobileOnly);
        assert_eq!(ladder.bursts[0].level, LadderLevel::Normal);
    }

    #[test]
    fn lagged_ladder_pays_a_detection_penalty() {
        let p = profile();
        // A single surprise blackout burst: the lagged policy commits
        // to an offloading cut and burns the retry budget.
        let factors = [1.0, 0.0, 1.0];
        let retry = RetryPolicy::default();
        let oracle = run_degraded(&p, &factors, 6, 20.0, 0.9, &retry, DegradePolicy::Ladder);
        let lagged = run_degraded(
            &p,
            &factors,
            6,
            20.0,
            0.9,
            &retry,
            DegradePolicy::LaggedLadder,
        );
        assert!(
            lagged.total_ms > oracle.total_ms,
            "lag must cost something: lagged {} vs oracle {}",
            lagged.total_ms,
            oracle.total_ms
        );
    }

    #[test]
    fn frontier_decide_matches_ladder_decision_densely() {
        use mcdnn_rng::Rng;
        let p = profile();
        for (hz, rho, n) in [(20.0, 0.9, 10usize), (20.0, 0.9, 1), (7.0, 0.5, 4)] {
            let frontier = LadderFrontier::compile(&p, hz, rho, n);
            let mut xs: Vec<f64> = (0..=1000).map(|i| i as f64 / 1000.0).collect();
            let mut rng = Rng::seed_from_u64(3);
            xs.extend((0..2000).map(|_| rng.gen_range(0.0..1.0)));
            for x in xs {
                assert_eq!(
                    frontier.decide(x),
                    ladder_decision(&p, hz, rho, x, n),
                    "hz={hz} rho={rho} n={n} x={x}"
                );
            }
        }
    }

    #[test]
    fn shared_frontier_replay_matches_run_degraded() {
        let p = profile();
        let frontier = LadderFrontier::compile(&p, 20.0, 0.9, 6);
        let retry = RetryPolicy::default();
        let timelines = [
            vec![1.0, 1.0, 0.0, 0.0, 0.3, 1.0],
            vec![1.0, 0.5, 0.1, 0.9],
            vec![0.0; 5],
        ];
        for factors in &timelines {
            for policy in [
                DegradePolicy::Frozen,
                DegradePolicy::Ladder,
                DegradePolicy::LaggedLadder,
                DegradePolicy::MobileOnly,
            ] {
                let shared = run_degraded_via(&frontier, factors, &retry, policy);
                let fresh = run_degraded(&p, factors, 6, 20.0, 0.9, &retry, policy);
                assert_eq!(shared, fresh, "{policy} over {factors:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stage times must be finite and >= 0: g[0] = inf")]
    fn overflowing_effective_upload_panics_like_the_profile_check() {
        let p = CostProfile::from_vectors(
            "overflow",
            vec![0.0, 10.0, 40.0],
            vec![f64::MAX, 20.0, 0.0],
            None,
        );
        LadderFrontier::compile(&p, 20.0, 0.9, 4);
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let p = profile();
        let factors = [1.0, 0.4, 0.0, 0.7];
        let retry = RetryPolicy::default();
        for policy in [
            DegradePolicy::Frozen,
            DegradePolicy::Ladder,
            DegradePolicy::LaggedLadder,
            DegradePolicy::MobileOnly,
        ] {
            let a = run_degraded(&p, &factors, 5, 20.0, 0.9, &retry, policy);
            let b = run_degraded(&p, &factors, 5, 20.0, 0.9, &retry, policy);
            assert_eq!(a, b, "{policy} must be deterministic");
        }
    }
}
