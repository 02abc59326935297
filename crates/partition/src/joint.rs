//! Joint cut/cloud-share allocation across contending tenants.
//!
//! The paper — and the [`frontier`](crate::frontier) compilation built
//! on it — prices a plan against an *uncontended* cloud: the suffix of
//! every job runs at full server speed no matter how many tenants
//! offload concurrently. Once `N` tenants share a finite pool of `C`
//! cloud servers that assumption breaks in a way the cut choice must
//! respond to: a tenant squeezed to a small share of the pool should
//! move its cut *later* (more device work, less cloud work), and the
//! pool share freed up should flow to tenants whose cuts genuinely
//! need it. "Joint Multi-User DNN Partitioning and Computational
//! Resource Allocation for Collaborative Edge Intelligence" (Tang et
//! al.) makes the case that the two decisions must be optimized
//! jointly; this module implements that joint optimization over the
//! piecewise structure the bandwidth frontier already computed.
//!
//! # Model
//!
//! Tenant `i` runs a burst of `n_i` jobs cut according to a
//! [`CutMix`] `m`. Its burst-level completion estimate is
//!
//! ```text
//! T_i(m, φ) = D_i(m) + U_i(m) + W_i(m) / φ_i
//! ```
//!
//! where `D` is total device work ([`RateProfile::mix_mobile_ms`](crate::RateProfile::mix_mobile_ms)),
//! `U` total uplink occupancy at the tenant's bandwidth
//! ([`RateProfile::mix_upload_ms`](crate::RateProfile::mix_upload_ms)), `W` total cloud work at unit
//! server speed ([`RateProfile::mix_cloud_ms`](crate::RateProfile::mix_cloud_ms)), and `φ_i ∈ (0, 1]` the
//! tenant's processor-sharing slice of the pool, with `Σ φ_i ≤ C`. A
//! share is capped at 1: one burst cannot run faster than one
//! dedicated server. The estimate deliberately ignores uplink queueing
//! across tenants — that is the virtual-time scheduler's job
//! (`mcdnn_sim::slo`); the allocator's output (cuts + shares) is what
//! the scheduler then prices exactly per request.
//!
//! # Algorithm
//!
//! [`joint_allocate`] is an iterative best-response loop, each half of
//! which is exactly optimal:
//!
//! 1. **Water-filling over shares** (cuts fixed): minimize
//!    `max_i T_i` subject to `Σ φ_i ≤ C`, `φ_i ≤ 1`. The optimum
//!    equalizes completion times at a water level `λ` with
//!    `φ_i = min(1, W_i / (λ − a_i))` (`a_i = D_i + U_i`), found by
//!    monotone bisection; when capacity covers every offloader's cap,
//!    all shares sit at 1 (full server speed), and any slack left by
//!    binding caps is handed back to uncapped tenants pro-rata — a
//!    Pareto top-up that never raises the minimax level.
//! 2. **Best response over cuts** (shares fixed): each tenant picks the
//!    `T_i`-minimal [`CutMix`] among its frontier's
//!    [`pieces`](RateFrontier::pieces) (every structure optimal
//!    somewhere in the compiled bandwidth range) plus the local-only
//!    cut — a tenant switches only on strict improvement, so the
//!    objective never increases.
//!
//! Both halves lower (never raise) the objective, so the loop's
//! `max_i T_i` is non-increasing and the very first water-fill already
//! dominates the contention-oblivious baseline
//! ([`oblivious_allocation`]: frontier cut at the full-cloud
//! assumption, equal shares). That dominance is a theorem of the
//! construction; `joint_dominates_oblivious_everywhere` pins it as a
//! seeded property test.
//!
//! Everything is pure `f64` arithmetic over the tenants' profiles —
//! deterministic across thread counts and platforms, like the rest of
//! the stack.

use mcdnn_obs::metrics;

use crate::frontier::{CutMix, RateFrontier};

/// A tenant's share of the cloud pool never exceeds one dedicated
/// server: jobs inside a burst pipeline through the uplink one at a
/// time, so extra servers cannot be put to work for a single tenant.
const SHARE_CAP: f64 = 1.0;
/// Water-level bisection iterations; 128 halvings close any bracket to
/// well below f64 resolution.
const WATER_ITERS: usize = 128;
/// Best-response sweeps before the loop is declared converged. Each
/// sweep is an exact per-tenant argmin, so in practice two or three
/// suffice; the cap guards against float-tie pathologies.
const MAX_ROUNDS: usize = 24;
/// A tenant switches cuts only on strict relative improvement, which
/// rules out best-response cycles through tied candidates.
const IMPROVE_TOL: f64 = 1e-12;

/// One tenant of a joint allocation problem: its compiled frontier,
/// burst size, and the uplink bandwidth its requests currently see.
#[derive(Debug, Clone, Copy)]
pub struct JointTenant<'a> {
    /// The tenant's compiled bandwidth frontier (owns the profile).
    pub frontier: &'a RateFrontier,
    /// Jobs per burst.
    pub n_jobs: usize,
    /// Uplink bandwidth the tenant's requests observe, Mbps.
    pub bandwidth_mbps: f64,
}

impl JointTenant<'_> {
    /// `(a, w)` of one candidate mix: contention-free work
    /// `a = D + U` and unit-speed cloud work `w`.
    fn cost(&self, mix: CutMix) -> (f64, f64) {
        let p = self.frontier.profile();
        let a = p.mix_mobile_ms(self.n_jobs, mix)
            + p.mix_upload_ms(self.n_jobs, mix, self.bandwidth_mbps);
        (a, p.mix_cloud_ms(self.n_jobs, mix))
    }

    /// Candidate cut structures: the frontier's pieces plus the
    /// local-only cut (always feasible, zero cloud work).
    fn candidates(&self) -> Vec<CutMix> {
        let mut out: Vec<CutMix> = self.frontier.pieces().to_vec();
        let local = CutMix::Uniform {
            cut: self.frontier.profile().k(),
        };
        if !out.contains(&local) {
            out.push(local);
        }
        out
    }
}

/// The output of [`joint_allocate`] (or the [`oblivious_allocation`]
/// baseline): per-tenant cut structures, cloud shares, and the
/// completion estimates they imply.
#[derive(Debug, Clone, PartialEq)]
pub struct JointAllocation {
    /// Chosen cut structure per tenant, input order.
    pub mixes: Vec<CutMix>,
    /// Cloud pool share per tenant, input order. Zero exactly when the
    /// tenant's chosen mix has no cloud work; `Σ shares ≤ capacity` and
    /// each share is at most 1.
    pub shares: Vec<f64>,
    /// Burst completion estimate `T_i` per tenant, ms.
    pub completion_ms: Vec<f64>,
    /// `max_i T_i`, the minimized objective, ms.
    pub objective_ms: f64,
    /// Best-response rounds the loop ran (1 = water-filling alone was
    /// already a fixpoint).
    pub rounds: usize,
}

/// Water-filling over shares for fixed cuts: the minimizer of
/// `max_i (a_i + w_i / φ_i)` subject to `Σ φ_i ≤ capacity` and
/// `φ_i ≤ 1`, followed by a Pareto top-up that spends leftover
/// capacity (shares only ever grow, so no completion rises and the
/// minimax level is untouched). Tenants with `w_i = 0` need (and get)
/// no share.
fn water_fill(costs: &[(f64, f64)], capacity: f64) -> Vec<f64> {
    let active: Vec<usize> = (0..costs.len()).filter(|&i| costs[i].1 > 0.0).collect();
    let mut shares = vec![0.0; costs.len()];
    if active.is_empty() {
        return shares;
    }
    // Abundant capacity: every offloader runs at full server speed —
    // pointwise-minimal completions, trivially minimax optimal.
    if active.len() as f64 * SHARE_CAP <= capacity {
        for &i in &active {
            shares[i] = SHARE_CAP;
        }
        return shares;
    }
    // Scarce: bisect the water level λ. Capped demand
    // Σ min(1, w_i / (λ − a_i)) is continuous and non-increasing in λ
    // above max a_i, and at `max_a + Σw / capacity` it is ≤ capacity.
    let max_a = active
        .iter()
        .map(|&i| costs[i].0)
        .fold(f64::NEG_INFINITY, f64::max);
    let total_w: f64 = active.iter().map(|&i| costs[i].1).sum();
    let fill = |level: f64, shares: &mut Vec<f64>| -> f64 {
        let mut total = 0.0;
        for &i in &active {
            let (a, w) = costs[i];
            let denom = level - a;
            // denom -> 0 only for the max_a tenant at the bracket's low
            // edge; w / 0 = inf clamps to the cap, which is the limit.
            let phi = if denom > 0.0 {
                (w / denom).min(SHARE_CAP)
            } else {
                SHARE_CAP
            };
            shares[i] = phi;
            total += phi;
        }
        total
    };
    let (mut lo, mut hi) = (max_a, max_a + total_w / capacity);
    for _ in 0..WATER_ITERS {
        let mid = 0.5 * (lo + hi);
        if fill(mid, &mut shares) > capacity {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Land on the feasible side of the bracket, then hand any slack
    // (left behind by binding caps) to uncapped tenants pro-rata to
    // their headroom.
    let total = fill(hi, &mut shares);
    debug_assert!(total <= capacity * (1.0 + 1e-9));
    let leftover = capacity - total;
    if leftover > 0.0 {
        let room: f64 = active.iter().map(|&i| SHARE_CAP - shares[i]).sum();
        if room > 0.0 {
            let frac = (leftover / room).min(1.0);
            for &i in &active {
                shares[i] += (SHARE_CAP - shares[i]) * frac;
            }
        }
    }
    shares
}

/// Completion estimates and objective for fixed cuts and shares.
fn completions(costs: &[(f64, f64)], shares: &[f64]) -> (Vec<f64>, f64) {
    let t: Vec<f64> = costs
        .iter()
        .zip(shares)
        .map(|(&(a, w), &phi)| if w > 0.0 { a + w / phi } else { a })
        .collect();
    let objective = t.iter().fold(0.0f64, |m, &v| m.max(v));
    (t, objective)
}

/// The contention-oblivious baseline: every tenant keeps the frontier
/// cut of its own bandwidth (the full-cloud assumption the paper
/// makes) and the pool is split equally among the tenants that offload
/// — exactly what a fleet of independent per-tenant planners would do.
///
/// Capacity is never exceeded and no offloading tenant is starved, but
/// nothing else is optimized; [`joint_allocate`] provably does at
/// least as well (see the module docs).
///
/// This is not the oblivious mode of the SLO loop (`mcdnn-sim`'s
/// `cloud_share_plan`, the column `joint_bench` compares against),
/// which gives every tenant `min(1, C / T)` of the pool, offloading or
/// not. The dominance tested here is over this split and over the
/// worst completion `max_i T_i`, not over deadline hit rate, so it says
/// nothing about an SLO run where joint allocation loses (one cloud
/// server in `BENCH_joint.json`).
pub fn oblivious_allocation(tenants: &[JointTenant<'_>], capacity: f64) -> JointAllocation {
    assert!(capacity > 0.0 && capacity.is_finite(), "need capacity > 0");
    let mixes: Vec<CutMix> = tenants
        .iter()
        .map(|t| t.frontier.decide(t.bandwidth_mbps))
        .collect();
    let costs: Vec<(f64, f64)> = tenants
        .iter()
        .zip(&mixes)
        .map(|(t, &m)| t.cost(m))
        .collect();
    let offloading = costs.iter().filter(|(_, w)| *w > 0.0).count();
    let equal = if offloading == 0 {
        0.0
    } else {
        (capacity / offloading as f64).min(SHARE_CAP)
    };
    let shares: Vec<f64> = costs
        .iter()
        .map(|&(_, w)| if w > 0.0 { equal } else { 0.0 })
        .collect();
    let (completion_ms, objective_ms) = completions(&costs, &shares);
    JointAllocation {
        mixes,
        shares,
        completion_ms,
        objective_ms,
        rounds: 0,
    }
}

/// Jointly pick every tenant's cut structure *and* cloud share to
/// minimize the fleet's worst burst completion under a shared pool of
/// `capacity` servers — iterative best-response between exact
/// water-filling (shares) and per-tenant frontier-piece argmin (cuts);
/// see the module docs for the model and the dominance argument.
///
/// Guarantees, tested as seeded properties:
///
/// * `objective_ms` ≤ [`oblivious_allocation`]'s objective on the same
///   input (dominance);
/// * `Σ shares ≤ capacity` and every share is in `[0, 1]`;
/// * a tenant's share is zero **iff** its chosen mix has no cloud work
///   — no offloading tenant is ever starved.
///
/// # Panics
///
/// On an empty tenant list or a non-positive/non-finite capacity.
pub fn joint_allocate(tenants: &[JointTenant<'_>], capacity: f64) -> JointAllocation {
    assert!(!tenants.is_empty(), "need at least one tenant");
    assert!(capacity > 0.0 && capacity.is_finite(), "need capacity > 0");
    let candidates: Vec<Vec<CutMix>> = tenants.iter().map(|t| t.candidates()).collect();
    // Seed from the contention-oblivious cuts, so round 1's water-fill
    // alone already dominates the oblivious equal split.
    let mut mixes: Vec<CutMix> = tenants
        .iter()
        .map(|t| t.frontier.decide(t.bandwidth_mbps))
        .collect();
    let mut costs: Vec<(f64, f64)> = tenants
        .iter()
        .zip(&mixes)
        .map(|(t, &m)| t.cost(m))
        .collect();
    let mut shares = water_fill(&costs, capacity);
    let mut rounds = 0;
    for _ in 0..MAX_ROUNDS {
        rounds += 1;
        let mut switched = false;
        for (i, t) in tenants.iter().enumerate() {
            let phi = shares[i];
            let price = |(a, w): (f64, f64)| {
                if w == 0.0 {
                    a
                } else if phi > 0.0 {
                    a + w / phi
                } else {
                    // No share this round: cloud work is unservable, so
                    // only zero-cloud candidates can win.
                    f64::INFINITY
                }
            };
            let mut best_cost = price(costs[i]);
            let mut best: Option<(CutMix, (f64, f64))> = None;
            for &m in &candidates[i] {
                let c = t.cost(m);
                let priced = price(c);
                if priced < best_cost * (1.0 - IMPROVE_TOL) {
                    best_cost = priced;
                    best = Some((m, c));
                }
            }
            if let Some((m, c)) = best {
                mixes[i] = m;
                costs[i] = c;
                switched = true;
            }
        }
        if !switched {
            break;
        }
        shares = water_fill(&costs, capacity);
    }
    metrics::JOINT_ALLOCATIONS.add(1);
    metrics::JOINT_ROUNDS.add(rounds as u64);
    let (completion_ms, objective_ms) = completions(&costs, &shares);
    JointAllocation {
        mixes,
        shares,
        completion_ms,
        objective_ms,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::RateProfile;
    use crate::plan::Strategy;
    use mcdnn_rng::Rng;

    /// A seeded monotone profile with genuinely heavy cloud work, so
    /// contention has something to bite on.
    fn cloudy_profile(seed: u64) -> RateProfile {
        let mut rng = Rng::seed_from_u64(seed);
        let k = rng.gen_range(3usize..8);
        let mut f = vec![0.0];
        let mut acc = 0.0;
        for _ in 0..k {
            acc += rng.gen_range(1.0..6.0);
            f.push(acc);
        }
        let mut bytes = Vec::with_capacity(k + 1);
        let mut rem: usize = rng.gen_range(50_000usize..200_000);
        for _ in 0..k {
            bytes.push(rem);
            rem = rem.saturating_sub(rng.gen_range(5_000usize..60_000));
        }
        bytes.push(0);
        // Cloud work shrinks as the cut moves later (suffix shrinks).
        let cloud: Vec<f64> = (0..=k)
            .map(|l| (k - l) as f64 * rng.gen_range(0.5..4.0))
            .collect();
        RateProfile::from_parts(format!("cloudy-{seed}"), f, bytes, 2.0, Some(cloud)).unwrap()
    }

    fn compile(profile: &RateProfile, n: usize) -> RateFrontier {
        RateFrontier::compile(profile, Strategy::JpsBestMix, n, 0.5, 80.0).unwrap()
    }

    #[test]
    fn water_fill_equalizes_and_respects_capacity() {
        let costs = vec![(10.0, 20.0), (30.0, 5.0), (50.0, 0.0)];
        let shares = water_fill(&costs, 0.8);
        assert_eq!(shares[2], 0.0, "zero cloud work takes no share");
        let total: f64 = shares.iter().sum();
        assert!(total <= 0.8 * (1.0 + 1e-9), "capacity respected: {total}");
        assert!(total >= 0.8 * (1.0 - 1e-6), "scarce capacity fully used");
        let t0 = costs[0].0 + costs[0].1 / shares[0];
        let t1 = costs[1].0 + costs[1].1 / shares[1];
        assert!(
            (t0 - t1).abs() <= 1e-6 * t0,
            "scarce water level equalizes completions: {t0} vs {t1}"
        );
    }

    #[test]
    fn water_fill_caps_shares_under_abundant_capacity() {
        let costs = vec![(10.0, 20.0), (30.0, 5.0)];
        let shares = water_fill(&costs, 100.0);
        // Capacity dwarfs the two offloaders' combined cap, so both
        // run at full server speed — stretching anyone to the minimax
        // level would waste idle servers.
        assert!((shares[0] - 1.0).abs() <= 1e-9, "abundant capacity caps tenant 0");
        assert!((shares[1] - 1.0).abs() <= 1e-9, "abundant capacity caps tenant 1");
    }

    #[test]
    fn joint_dominates_oblivious_everywhere() {
        // The proof-style sweep: across seeded fleets, bandwidths and
        // capacities, the joint allocator's objective never exceeds the
        // contention-oblivious baseline's, and beats it strictly
        // somewhere at every capacity. The baseline is
        // `oblivious_allocation`, not the SLO loop's oblivious shares
        // (see its docs).
        let profiles: Vec<RateProfile> = (0..6).map(|s| cloudy_profile(1000 + s)).collect();
        let mut rng = Rng::seed_from_u64(42);
        for &capacity in &[0.5, 1.0, 2.0, 4.0, 8.0] {
            let mut strict_wins = 0usize;
            for _trial in 0..12 {
                let n_tenants = rng.gen_range(2usize..7);
                let frontiers: Vec<(RateFrontier, f64)> = (0..n_tenants)
                    .map(|_| {
                        let p = &profiles[rng.gen_range(0usize..profiles.len())];
                        let n = rng.gen_range(1usize..6);
                        let b = 0.5 * (80.0f64 / 0.5).powf(rng.f64());
                        (compile(p, n), b)
                    })
                    .collect();
                let tenants: Vec<JointTenant> = frontiers
                    .iter()
                    .map(|(f, b)| JointTenant {
                        frontier: f,
                        n_jobs: f.n(),
                        bandwidth_mbps: *b,
                    })
                    .collect();
                let obl = oblivious_allocation(&tenants, capacity);
                let joint = joint_allocate(&tenants, capacity);
                assert!(
                    joint.objective_ms <= obl.objective_ms * (1.0 + 1e-9),
                    "joint {:.3} must not lose to oblivious {:.3} at C={capacity}",
                    joint.objective_ms,
                    obl.objective_ms
                );
                if joint.objective_ms < obl.objective_ms * (1.0 - 1e-6) {
                    strict_wins += 1;
                }
            }
            assert!(
                strict_wins > 0,
                "joint never strictly beat oblivious at C={capacity}"
            );
        }
    }

    #[test]
    fn shares_respect_capacity_and_never_starve() {
        // Property sweep: Σ shares ≤ C, every share in [0, 1], and a
        // share is zero exactly when the chosen mix has no cloud work.
        let profiles: Vec<RateProfile> = (0..5).map(|s| cloudy_profile(2000 + s)).collect();
        let mut rng = Rng::seed_from_u64(7);
        for _trial in 0..30 {
            let capacity = 0.25 * 2.0f64.powf(rng.f64() * 6.0);
            let n_tenants = rng.gen_range(1usize..8);
            let frontiers: Vec<(RateFrontier, f64)> = (0..n_tenants)
                .map(|_| {
                    let p = &profiles[rng.gen_range(0usize..profiles.len())];
                    let n = rng.gen_range(1usize..6);
                    let b = 0.5 * (80.0f64 / 0.5).powf(rng.f64());
                    (compile(p, n), b)
                })
                .collect();
            let tenants: Vec<JointTenant> = frontiers
                .iter()
                .map(|(f, b)| JointTenant {
                    frontier: f,
                    n_jobs: f.n(),
                    bandwidth_mbps: *b,
                })
                .collect();
            let alloc = joint_allocate(&tenants, capacity);
            let total: f64 = alloc.shares.iter().sum();
            assert!(
                total <= capacity * (1.0 + 1e-9),
                "allocated {total} over capacity {capacity}"
            );
            for (i, t) in tenants.iter().enumerate() {
                let phi = alloc.shares[i];
                assert!((0.0..=1.0 + 1e-12).contains(&phi), "share {phi} out of range");
                let w = t.frontier.profile().mix_cloud_ms(t.n_jobs, alloc.mixes[i]);
                if w > 0.0 {
                    assert!(phi > 0.0, "tenant {i} offloads but got no share");
                } else {
                    assert_eq!(phi, 0.0, "tenant {i} has no cloud work but holds a share");
                }
                assert!(alloc.completion_ms[i].is_finite());
            }
            assert!(alloc.objective_ms.is_finite());
            assert!(alloc.rounds >= 1 && alloc.rounds <= MAX_ROUNDS);
        }
    }

    #[test]
    fn squeezed_tenants_shift_their_cuts_mobile_ward() {
        // Under scarce capacity the best-response step must move at
        // least one tenant off its oblivious frontier cut toward a
        // mobile-heavier mix (less cloud work per burst).
        let profiles: Vec<RateProfile> = (0..4).map(|s| cloudy_profile(3000 + s)).collect();
        let frontiers: Vec<RateFrontier> = profiles.iter().map(|p| compile(p, 4)).collect();
        let tenants: Vec<JointTenant> = frontiers
            .iter()
            .map(|f| JointTenant {
                frontier: f,
                n_jobs: 4,
                bandwidth_mbps: 40.0,
            })
            .collect();
        let obl = oblivious_allocation(&tenants, 0.25);
        let joint = joint_allocate(&tenants, 0.25);
        let moved = joint.mixes.iter().zip(&obl.mixes).any(|(a, b)| a != b);
        assert!(moved, "scarce capacity must move some cut: {joint:?}");
        let w = |mixes: &[CutMix]| -> f64 {
            tenants
                .iter()
                .zip(mixes)
                .map(|(t, &m)| t.frontier.profile().mix_cloud_ms(t.n_jobs, m))
                .sum()
        };
        assert!(
            w(&joint.mixes) < w(&obl.mixes),
            "joint cuts must offload less cloud work under scarcity"
        );
    }

    #[test]
    fn single_tenant_with_abundant_capacity_keeps_the_frontier_cut() {
        let p = cloudy_profile(77);
        let f = compile(&p, 3);
        let t = JointTenant {
            frontier: &f,
            n_jobs: 3,
            bandwidth_mbps: 20.0,
        };
        let joint = joint_allocate(std::slice::from_ref(&t), 8.0);
        let (a, w) = t.cost(f.decide_at(20.0).mix);
        if w > 0.0 {
            // At share cap 1 the frontier cut's completion is a + w; the
            // best response can only keep or improve on it.
            assert!(joint.objective_ms <= a + w + 1e-9);
            assert!((joint.shares[0] - 1.0).abs() <= 1e-9);
        } else {
            assert_eq!(joint.objective_ms, a);
        }
    }
}
