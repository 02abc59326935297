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
//! [`LadderFrontier`] is the one implementation of the walk: it holds
//! a profile's stage times and knobs, and each decision walks the
//! rungs afresh, reading the effective upload times `g / factor` in
//! place — O(k), no allocation. [`ladder_decision`] is the same walk
//! for a single factor.
//!
//! [`run_degraded`] replays a piecewise-constant fault timeline (one
//! rate factor per burst) under a [`DegradePolicy`] and prices each
//! burst with the O(1) uniform-makespan kernel, so whole chaos grids
//! stay cheap.

use mcdnn_flowshop::uniform_makespan;
use mcdnn_obs::metrics;
use mcdnn_profile::{CostProfile, ProfileError};

use crate::fault::exhaustion_penalty_ms;
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
    LadderFrontier::compile(profile, target_hz, rho_limit, n_jobs).decide(rate_factor)
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

/// The degradation ladder of one `(profile, target_hz, rho_limit,
/// n_jobs)`, ready to decide any rate factor in `[0, 1]`.
///
/// It keeps only what every decision shares: the stage times, the
/// knobs, the nominal-rate cut and the healthy (`x = 1`) decision.
/// [`decide`](Self::decide) walks the ladder afresh for each factor
/// `x`, reading the effective upload time `g(l) / x` wherever the walk
/// needs it — O(k) work, no allocation, and exactly the decision
/// [`ladder_decision`] takes.
#[derive(Debug, Clone)]
pub struct LadderFrontier {
    f: Vec<f64>,
    g: Vec<f64>,
    target_hz: f64,
    rho_limit: f64,
    n_jobs: usize,
    /// The rung-1 cut at the nominal link rate.
    nominal: Option<usize>,
    /// Decision at `x = 1.0` — the frozen-policy cut.
    healthy: LadderDecision,
}

impl LadderFrontier {
    /// Set up the ladder of `(profile, target_hz, rho_limit, n_jobs)`:
    /// the nominal-rate cut and one walk at a healthy link.
    pub fn compile(
        profile: &CostProfile,
        target_hz: f64,
        rho_limit: f64,
        n_jobs: usize,
    ) -> LadderFrontier {
        assert!(target_hz > 0.0 && rho_limit > 0.0);
        assert!(n_jobs >= 1, "need at least one job per burst");
        let (f, g) = (profile.f_all(), profile.g_all());
        let mut ladder = LadderFrontier {
            f: f.to_vec(),
            g: g.to_vec(),
            target_hz,
            rho_limit,
            n_jobs,
            nominal: best_cut_in(f, g, 1.0, target_hz, rho_limit),
            // Replaced by the walk at `x = 1` just below.
            healthy: LadderDecision {
                level: LadderLevel::MobileOnly,
                cut: profile.k(),
            },
        };
        ladder.healthy = ladder.walk(1.0);
        ladder
    }

    /// Number of layers `k`.
    fn k(&self) -> usize {
        self.f.len() - 1
    }

    /// The ladder decision for `rate_factor`, emitting its `degrade.*`
    /// counter. Panics, as [`CostProfile::from_vectors`] would, when an
    /// effective upload time `g(l) / rate_factor` overflows.
    pub fn decide(&self, rate_factor: f64) -> LadderDecision {
        let decision = self.walk(rate_factor);
        count_ladder(decision.level);
        decision
    }

    /// The ladder walk at rate factor `x`, without the counter.
    fn walk(&self, x: f64) -> LadderDecision {
        assert!((0.0..=1.0).contains(&x), "factor in [0, 1]");
        let (f, g, k) = (&self.f[..], &self.g[..], self.k());
        if x <= 0.0 {
            // Dead link: nothing with g > 0 can ever finish. Straight to
            // the bottom rung without consulting the planner.
            return LadderDecision {
                level: LadderLevel::MobileOnly,
                cut: k,
            };
        }
        if let Some((index, value)) = g
            .iter()
            .map(|&gl| gl / x)
            .enumerate()
            .find(|(_, value)| !value.is_finite())
        {
            panic!(
                "{}",
                ProfileError::NonFinite {
                    which: "g",
                    index,
                    value
                }
            );
        }
        let candidate = match best_cut_in(f, g, x, self.target_hz, self.rho_limit) {
            // Rung 1: a feasible cut exists at the degraded rate.
            Some(cut) => {
                let level = if x >= 1.0 || self.nominal == Some(cut) {
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
                        let ba = f[a].max(g[a] / x);
                        let bb = f[b].max(g[b] / x);
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
        let c = candidate.cut;
        if uniform_makespan(self.n_jobs, f[c], g[c] / x) <= n * f[k] {
            candidate
        } else {
            LadderDecision {
                level: LadderLevel::MobileOnly,
                cut: k,
            }
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
/// budget ([`exhaustion_penalty_ms`]), then finishes every job
/// on-device.
fn burst_cost_parts(f_cut: f64, f_k: f64, g_cut: f64, factor: f64, n: usize) -> f64 {
    if g_cut <= 0.0 {
        return n as f64 * f_cut;
    }
    if factor <= 0.0 {
        // Blackout with offloading committed: attempts all time out,
        // then the remaining layers of every job run on-device.
        metrics::FAULT_LOCAL_FALLBACKS.add(n as u64);
        return exhaustion_penalty_ms() + n as f64 * f_cut + n as f64 * (f_k - f_cut);
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
    policy: DegradePolicy,
) -> DegradedRun {
    let _span = mcdnn_obs::span("sim", "run_degraded");
    let ladder = LadderFrontier::compile(profile, target_hz, rho_limit, jobs_per_burst);
    let k = ladder.k();
    let frozen_cut = ladder.healthy.cut;
    let mut bursts = Vec::with_capacity(factors.len());
    let mut total = 0.0f64;
    let mut prev_level = LadderLevel::Normal;
    for (i, &factor) in factors.iter().enumerate() {
        let (level, cut) = match policy {
            DegradePolicy::Frozen => (ladder.decide(factor.clamp(0.0, 1.0)).level, frozen_cut),
            DegradePolicy::Ladder => {
                let d = ladder.decide(factor.clamp(0.0, 1.0));
                (d.level, d.cut)
            }
            DegradePolicy::LaggedLadder => {
                let believed = if i == 0 { 1.0 } else { factors[i - 1] };
                let d = ladder.decide(believed.clamp(0.0, 1.0));
                (d.level, d.cut)
            }
            DegradePolicy::MobileOnly => (LadderLevel::MobileOnly, k),
        };
        if prev_level != LadderLevel::Normal && level == LadderLevel::Normal {
            metrics::DEGRADE_RECOVERIES.add(1);
        }
        prev_level = level;
        let makespan_ms = burst_cost_parts(
            profile.f(cut),
            profile.f(k),
            profile.g(cut),
            factor,
            jobs_per_burst,
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
        let ladder = run_degraded(&p, &factors, 6, 20.0, 0.9, DegradePolicy::Ladder);
        let frozen = run_degraded(&p, &factors, 6, 20.0, 0.9, DegradePolicy::Frozen);
        let mobile = run_degraded(&p, &factors, 6, 20.0, 0.9, DegradePolicy::MobileOnly);
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
        let oracle = run_degraded(&p, &factors, 6, 20.0, 0.9, DegradePolicy::Ladder);
        let lagged = run_degraded(&p, &factors, 6, 20.0, 0.9, DegradePolicy::LaggedLadder);
        assert!(
            lagged.total_ms > oracle.total_ms,
            "lag must cost something: lagged {} vs oracle {}",
            lagged.total_ms,
            oracle.total_ms
        );
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
        // `g(0) / 1` is finite, so the ladder sets up; at half rate it
        // overflows, and the walk reports the first such index.
        LadderFrontier::compile(&p, 20.0, 0.9, 4).decide(0.5);
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let p = profile();
        let factors = [1.0, 0.4, 0.0, 0.7];
        for policy in [
            DegradePolicy::Frozen,
            DegradePolicy::Ladder,
            DegradePolicy::LaggedLadder,
            DegradePolicy::MobileOnly,
        ] {
            let a = run_degraded(&p, &factors, 5, 20.0, 0.9, policy);
            let b = run_degraded(&p, &factors, 5, 20.0, 0.9, policy);
            assert_eq!(a, b, "{policy} must be deterministic");
        }
    }
}
