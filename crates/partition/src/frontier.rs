//! Bandwidth-frontier compilation: the optimal JPS plan as a
//! piecewise-constant function of uplink bandwidth.
//!
//! The paper's monotonicity results make the planner's decision
//! *structurally stable* in bandwidth: `f` does not depend on the link
//! at all (Theorem 5.2's non-decreasing mobile stage) and
//! `g(l; b) = setup + bits(l)/b` is affine in `1/b` (Theorem 5.3's
//! non-increasing upload stage). Every candidate the JPS scan scores —
//! a uniform cut or a two-type mix — therefore has a score that is
//! piecewise affine in `1/b`, and the argmin of finitely many such
//! curves is **piecewise constant in `b`**. Instead of re-running the
//! full planning pass per burst, [`RateFrontier::compile`] computes the
//! breakpoint list once and [`RateFrontier::plan_at`] answers any
//! bandwidth with a piece search.
//!
//! ## One piece search, with a cursor
//!
//! Piece `i` is the half-open interval `[starts[i], starts[i+1])`, so
//! the piece holding `b` is the one `i` with `starts[i] <= b <
//! starts[i+1]`: a test that either holds or does not, whatever piece
//! it is tried on. A [`FrontierCursor`] remembers the piece its last
//! lookup landed on, and [`RateFrontier::decide_from`] tries that piece
//! and its neighbour toward `b` before it binary-searches. A serving
//! tenant's bandwidth walks by at most ±25% per burst, so its lookups
//! land on the same or the next piece almost always (94% of
//! serve-steady's): amortized O(1) on walking traffic, O(log P) after
//! a jump, and the same piece and mix as the search either way. The
//! cursor-less forms ([`RateFrontier::decide`],
//! [`RateFrontier::decide_at`], [`RateFrontier::piece_index_at`]) are
//! that lookup from no piece, which is the plain binary search: lookups
//! that do not walk (the SLO loop resolving each request's rung pieces)
//! gain nothing from a cursor, and chaining them through one serializes
//! searches the CPU would otherwise overlap. A [`LazyFrontier`] answers
//! through the same search, twice: over its regime starts, then over
//! the pieces of the regime found.
//!
//! A cursor also tallies its in-range lookups and folds them into
//! `frontier.lookups` when it is dropped, so a tenant that owns one
//! writes that counter once per stream instead of once per burst. A
//! cursor-less lookup counts as it returns.
//!
//! ## Compiling from the theorem's events
//!
//! With `u = 1/b` and `g(l) = σ(l) + c(l)·u`, the planner's decision
//! can change only at three families of events:
//!
//! * **`l*` flips**, where Alg. 2's test `f(m) < g(m; b)` turns false
//!   for some cut `m`. The same tests order a mix's Johnson blocks and
//!   place the kink of each uniform score `max(f + n·g, n·f + g)`;
//! * **ratio steps** (Jps only), where Theorem 5.3's ratio
//!   `⌊(f(l*) − g(l*)) / (g(l*−1) − f(l*−1))⌋` reaches some
//!   `j = 1..=2n` inside an `l*` regime. Above `2n` neither ratio
//!   candidate changes. Best-mix scores every mix anyway, so for it the
//!   ratio only breaks ties;
//! * **mix kinks**, where a mix's comm-bound term `f₁ + a·g₁ + b·g₂`
//!   meets its compute-bound term `a·f₁ + b·f₂ + g₂` (block 1 at
//!   `l*−1`, block 2 at `l*`).
//!
//! The first two families change the candidate set, so the decision
//! jumps there. Every operation in `g` is correctly rounded, so `g`
//! never increases as `b` grows, bit for bit, and each of those tests
//! flips at exactly one f64. [`RateFrontier::compile`] finds that f64
//! by bisecting the test in bit space from its closed form, and probes
//! both sides of it. Scores are continuous at kinks, so one probe at
//! the closed-form point is enough there.
//!
//! Between two events every candidate's score is affine in `u`, and so
//! is every pairwise score difference. A candidate that wins at both
//! ends of such an interval therefore wins throughout, up to ties, and
//! the winners along it follow a lower envelope of lines, each at most
//! once. The compile splits an interval only where the decisions at its
//! ends differ: first at the secant crossing of the two winners'
//! scores, then galloping and bisecting in bit space to the two
//! adjacent f64s where the probe's decision changes. One interior probe
//! per piece confirms the result.
//!
//! ## One regime at a time
//!
//! The `l*` flips are global: they cut `[lo, hi]` into regimes, and the
//! other two families live inside one regime each. So a regime's walk
//! (events, splits, confirm) is a pure function of its two ends.
//! [`LazyFrontier`] validates the profile, finds the flips and walks a
//! regime only when a query first lands in it; [`RateFrontier::compile`]
//! is that belief with every regime walked and equal neighbours across
//! regime boundaries merged. A belief answers every query exactly as the
//! compiled frontier does, so a tenant whose profile changes every few
//! bursts pays only for the regimes its bursts reach.
//!
//! ## Exactness contract
//!
//! At every f64 in the compiled range, [`RateFrontier::plan_at`]
//! equals what [`Strategy::plan`] returns at that bandwidth, or its
//! makespan ties the planner's to 1e-9 relative. It materializes its
//! stored decision through the same [`Plan::from_cuts`] path the
//! planner uses, so where the decisions agree the plans are
//! bit-identical: cuts, Johnson order and makespan. Discontinuities are
//! resolved to the float, so no band of wrong answers sits next to a
//! breakpoint.
//!
//! Ties are not events. Where candidates score exactly the same, as on
//! the running-max plateaus (`f(l) = f(l+1)`) that estimator commits
//! produce, float rounding flips the planner's own pick from one ulp to
//! the next. Any tied pick meets the contract, so the compile bisects
//! such a flip to one transition and moves on. The zoo tests check the
//! contract on dense grids and ulp by ulp next to every breakpoint.
//!
//! [`PlanCache`] shares compiled frontiers across call sites keyed by
//! *content* (stage vectors, job count, strategy, range), so two
//! profiles that happen to share a name never collide and a profile
//! re-evaluated from the same model × device hits the cache.

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use mcdnn_flowshop::kernels::{two_type_mix_makespan, uniform_makespan};
use mcdnn_graph::LineDnn;
use mcdnn_obs::metrics;
use mcdnn_profile::{CloudModel, CostProfile, DeviceModel, ProfileError};
use mcdnn_rng::{fnv_fold, FNV_OFFSET};

use crate::alg2::{ratio_at, CutSearch};
use crate::error::PlanError;
use crate::jps::{proportional_at_prev, ratio_mix_at_prev, winning_candidate, Candidate};
use crate::plan::{Plan, Strategy};

/// A [`CostProfile`] family parameterized by uplink bandwidth: the
/// bandwidth-independent parts (mobile times, upload volumes, channel
/// setup, cloud times) from which the concrete profile at any bandwidth
/// `b` is reproduced **bit-identically** to
/// [`CostProfile::evaluate`] under `NetworkModel::new(b, setup_ms)`.
///
/// A profile is its content: every frontier compiled from it is a pure
/// function of these vectors, so the name is a label only and a
/// re-estimate ([`RateProfile::reestimated`]) is just another profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RateProfile {
    name: String,
    f_ms: Vec<f64>,
    bytes: Vec<usize>,
    cloud_ms: Vec<f64>,
    setup_ms: f64,
}

impl RateProfile {
    /// Evaluate the bandwidth-parameterized profile of `line` on the
    /// given platform. Mirrors [`CostProfile::evaluate`] with the
    /// network reduced to its bandwidth-independent `setup_ms`.
    pub fn evaluate(
        line: &LineDnn,
        mobile: &DeviceModel,
        cloud: &CloudModel,
        setup_ms: f64,
    ) -> Self {
        let k = line.k();
        let mut f_ms = Vec::with_capacity(k + 1);
        let mut bytes = Vec::with_capacity(k + 1);
        let mut cloud_ms = Vec::with_capacity(k + 1);
        for cut in 0..=k {
            f_ms.push(mobile.time_ms(line.mobile_flops(cut), cut));
            bytes.push(line.offload_bytes(cut));
            cloud_ms.push(cloud.time_ms(line.cloud_flops(cut), k - cut));
        }
        RateProfile {
            name: line.name().to_string(),
            f_ms,
            bytes,
            cloud_ms,
            setup_ms,
        }
    }

    /// Build directly from stage vectors (synthetic workloads, tests).
    ///
    /// Validates the same shape invariants as [`CostProfile::try_new`]
    /// (by constructing the profile at 1 Mbps): `f[0] == 0`,
    /// `bytes[k] == 0` so `g(k) = 0`, matching lengths, finite entries.
    /// A negative or non-finite `setup_ms` is
    /// [`ProfileError::NonFinite`] with `which: "setup"`.
    pub fn from_parts(
        name: impl Into<String>,
        f_ms: Vec<f64>,
        bytes: Vec<usize>,
        setup_ms: f64,
        cloud_ms: Option<Vec<f64>>,
    ) -> Result<Self, ProfileError> {
        if !(setup_ms >= 0.0 && setup_ms.is_finite()) {
            return Err(ProfileError::NonFinite {
                which: "setup",
                index: 0,
                value: setup_ms,
            });
        }
        let cloud_ms = cloud_ms.unwrap_or_else(|| vec![0.0; f_ms.len()]);
        let rate = RateProfile {
            name: name.into(),
            f_ms,
            bytes,
            cloud_ms,
            setup_ms,
        };
        // g at any bandwidth has the same zero pattern; probe at 1 Mbps.
        rate.try_profile_at(1.0).map(|_| rate)
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers `k` (cuts range over `0..=k`).
    pub fn k(&self) -> usize {
        self.f_ms.len() - 1
    }

    /// Channel setup latency, ms.
    pub fn setup_ms(&self) -> f64 {
        self.setup_ms
    }

    /// Rebuild this profile under committed estimator scales: per-layer
    /// device multipliers (`device_scales[l]` scales `f(l)`; index 0 is
    /// ignored — `f(0) = 0` by construction), one cloud multiplier, a
    /// multiplier on upload volume (the re-learned `w1` slope of the
    /// paper's `t = w0 + w1·r` regression, base 1), and the re-learned
    /// channel setup `w0` in ms.
    ///
    /// Commits are **absolute**: always rebuild from the factory base
    /// profile with the estimator's *current* committed scales, never
    /// from a previous re-estimate — repeated commits cannot compound
    /// rounding drift. Two projections keep the result inside the JPS
    /// theory's clustered shape whatever the estimates say:
    ///
    /// * `f` is clamped to its running maximum (a per-layer scale
    ///   estimate cannot make the mobile prefix time decrease in `l`);
    /// * bytes scale uniformly and round, which preserves the
    ///   non-increasing upload-volume property and `bytes[k] = 0`.
    pub fn reestimated(
        &self,
        device_scales: &[f64],
        cloud_scale: f64,
        upload_scale: f64,
        setup_ms: f64,
    ) -> RateProfile {
        let scale_at = |l: usize| -> f64 {
            let s = device_scales.get(l).copied().unwrap_or(1.0);
            if s.is_finite() && s > 0.0 {
                s
            } else {
                1.0
            }
        };
        let mut f_ms = Vec::with_capacity(self.f_ms.len());
        let mut running_max = 0.0f64;
        for (l, &f) in self.f_ms.iter().enumerate() {
            running_max = running_max.max(f * scale_at(l));
            f_ms.push(running_max);
        }
        let upload_scale = if upload_scale.is_finite() && upload_scale > 0.0 {
            upload_scale
        } else {
            1.0
        };
        let bytes = self
            .bytes
            .iter()
            .map(|&b| (b as f64 * upload_scale).round() as usize)
            .collect();
        let cloud_scale = if cloud_scale.is_finite() && cloud_scale > 0.0 {
            cloud_scale
        } else {
            1.0
        };
        let cloud_ms = self.cloud_ms.iter().map(|&c| c * cloud_scale).collect();
        RateProfile {
            name: self.name.clone(),
            f_ms,
            bytes,
            cloud_ms,
            setup_ms: if setup_ms.is_finite() { setup_ms.max(0.0) } else { self.setup_ms },
        }
    }

    /// Upload volume in bytes at cut `l`.
    pub fn bytes(&self, cut: usize) -> usize {
        self.bytes[cut]
    }

    /// Mobile-stage time `f(l)` at cut `l`, ms (bandwidth-independent).
    #[inline]
    pub fn mobile_ms(&self, cut: usize) -> f64 {
        self.f_ms[cut]
    }

    /// Cloud-stage time at cut `l`, ms (bandwidth-independent).
    #[inline]
    pub fn cloud_stage_ms(&self, cut: usize) -> f64 {
        self.cloud_ms[cut]
    }

    /// Upload time of cut `l` at bandwidth `b` Mbps — the exact
    /// expression of `NetworkModel::upload_ms`, reproduced term by term
    /// so profiles rebuilt here are bit-identical to evaluated ones.
    #[inline]
    pub fn upload_ms_at(&self, cut: usize, bandwidth_mbps: f64) -> f64 {
        let bytes = self.bytes[cut];
        if bytes == 0 {
            return 0.0;
        }
        self.setup_ms + bytes as f64 * 8.0 / (bandwidth_mbps * 1e3)
    }

    /// The concrete [`CostProfile`] at bandwidth `b` Mbps.
    pub fn profile_at(&self, bandwidth_mbps: f64) -> CostProfile {
        self.try_profile_at(bandwidth_mbps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_profile_at(&self, bandwidth_mbps: f64) -> Result<CostProfile, ProfileError> {
        assert!(
            bandwidth_mbps > 0.0 && bandwidth_mbps.is_finite(),
            "bandwidth must be positive and finite"
        );
        let g_ms = (0..self.f_ms.len())
            .map(|l| self.upload_ms_at(l, bandwidth_mbps))
            .collect();
        CostProfile::try_new(
            self.name.clone(),
            self.f_ms.clone(),
            g_ms,
            Some(self.cloud_ms.clone()),
        )
    }

    /// Exact two-stage kernel makespan of a [`CutMix`] for `n` jobs at
    /// bandwidth `b` — O(1), no profile materialization. Equals the
    /// materialized plan's makespan when the cloud stage is negligible
    /// (the paper's regime; with a non-negligible cloud the planner's
    /// own candidate scores ignore it identically).
    pub fn mix_makespan(&self, n: usize, mix: CutMix, bandwidth_mbps: f64) -> f64 {
        match mix {
            CutMix::Uniform { cut } => {
                uniform_makespan(n, self.f_ms[cut], self.upload_ms_at(cut, bandwidth_mbps))
            }
            CutMix::Mix {
                prev,
                star,
                at_prev,
            } => two_type_mix_makespan(
                at_prev,
                self.f_ms[prev],
                self.upload_ms_at(prev, bandwidth_mbps),
                n - at_prev,
                self.f_ms[star],
                self.upload_ms_at(star, bandwidth_mbps),
            ),
        }
    }

    /// Total on-device compute of `n` jobs under `mix`, ms — the
    /// device-side service demand an admission controller budgets for
    /// a burst (bandwidth-independent).
    pub fn mix_mobile_ms(&self, n: usize, mix: CutMix) -> f64 {
        match mix {
            CutMix::Uniform { cut } => n as f64 * self.f_ms[cut],
            CutMix::Mix {
                prev,
                star,
                at_prev,
            } => {
                at_prev as f64 * self.f_ms[prev] + (n - at_prev) as f64 * self.f_ms[star]
            }
        }
    }

    /// Total uplink occupancy of `n` jobs under `mix` at bandwidth
    /// `b`, ms — how long the burst holds a shared uplink, the quantity
    /// a deadline scheduler serializes across tenants. Setup latency is
    /// included per job, exactly as [`RateProfile::upload_ms_at`]
    /// prices it.
    pub fn mix_upload_ms(&self, n: usize, mix: CutMix, bandwidth_mbps: f64) -> f64 {
        match mix {
            CutMix::Uniform { cut } => n as f64 * self.upload_ms_at(cut, bandwidth_mbps),
            CutMix::Mix {
                prev,
                star,
                at_prev,
            } => {
                at_prev as f64 * self.upload_ms_at(prev, bandwidth_mbps)
                    + (n - at_prev) as f64 * self.upload_ms_at(star, bandwidth_mbps)
            }
        }
    }

    /// Total cloud compute of `n` jobs under `mix`, ms **at unit server
    /// speed** — the work a shared cloud server pool must absorb for
    /// one burst (bandwidth-independent). A tenant holding a fractional
    /// share `φ` of the pool serves this work in `mix_cloud_ms / φ`
    /// virtual ms; see [`crate::joint`] for how shares are chosen.
    pub fn mix_cloud_ms(&self, n: usize, mix: CutMix) -> f64 {
        match mix {
            CutMix::Uniform { cut } => n as f64 * self.cloud_ms[cut],
            CutMix::Mix {
                prev,
                star,
                at_prev,
            } => {
                at_prev as f64 * self.cloud_ms[prev]
                    + (n - at_prev) as f64 * self.cloud_ms[star]
            }
        }
    }

    /// `Err` when the profile violates the clustered monotonicity the
    /// JPS theory assumes, for *some* bandwidth in `(0, ∞)`:
    ///
    /// * `f` must be non-decreasing (bandwidth-independent, same
    ///   tolerance as [`CostProfile::f_is_monotone`]);
    /// * `g` is non-increasing at **every** bandwidth iff the upload
    ///   volumes are non-increasing wherever the successor still
    ///   uploads (`bytes[l+1] > 0 ⇒ bytes[l] ≥ bytes[l+1]`; a zero
    ///   entry means `g = 0` regardless of bandwidth).
    pub fn check_monotone(&self) -> Result<(), PlanError> {
        if let Some(at) = self
            .f_ms
            .windows(2)
            .position(|w| w[1] < w[0] - 1e-12)
        {
            return Err(PlanError::NonMonotoneF { at: at + 1 });
        }
        if let Some(at) = self
            .bytes
            .windows(2)
            .position(|w| w[1] > 0 && w[0] < w[1])
        {
            return Err(PlanError::NonMonotoneG { at: at + 1 });
        }
        Ok(())
    }
}

/// The cut structure of a JPS decision, normalized so that equal plans
/// compare equal: a mix with all jobs on one side collapses to the
/// uniform cut it materializes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutMix {
    /// All `n` jobs cut at one layer.
    Uniform {
        /// The shared cut layer.
        cut: usize,
    },
    /// Two adjacent cut types (Theorem 5.3): `at_prev` jobs at `prev`,
    /// the rest at `star = prev + 1`.
    Mix {
        /// The communication-heavy cut `l* − 1`.
        prev: usize,
        /// The computation-heavy cut `l*`.
        star: usize,
        /// Jobs assigned to `prev` (strictly between 0 and `n`).
        at_prev: usize,
    },
}

impl CutMix {
    fn from_candidate(search_prev: Option<usize>, search_star: usize, cand: Candidate, n: usize) -> Self {
        match cand {
            Candidate::Uniform(l) => CutMix::Uniform { cut: l },
            Candidate::Mix { at_prev } => {
                let prev = search_prev.expect("Mix candidates require l_prev");
                if at_prev == 0 {
                    CutMix::Uniform { cut: search_star }
                } else if at_prev == n {
                    CutMix::Uniform { cut: prev }
                } else {
                    CutMix::Mix {
                        prev,
                        star: search_star,
                        at_prev,
                    }
                }
            }
        }
    }

    /// The per-job cut vector this decision materializes into — the
    /// exact layout of the planner's winning candidate (`prev` block
    /// first, then `star`).
    pub fn cuts(&self, n: usize) -> Vec<usize> {
        match *self {
            CutMix::Uniform { cut } => vec![cut; n],
            CutMix::Mix {
                prev,
                star,
                at_prev,
            } => {
                let mut cuts = vec![prev; at_prev];
                cuts.extend(std::iter::repeat_n(star, n - at_prev));
                cuts
            }
        }
    }
}

/// An O(1) frontier answer: the winning cut structure at the queried
/// bandwidth plus its exact two-stage kernel makespan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierDecision {
    /// The winning cut structure.
    pub mix: CutMix,
    /// Two-stage kernel makespan at the queried bandwidth, ms.
    pub makespan_ms: f64,
}

/// One caller's place in a frontier: the piece its last lookup landed
/// on, where the next lookup starts (see the module docs), and the
/// in-range lookups it has made since it was created.
///
/// A fresh cursor (`FrontierCursor::default()`) points at no piece, so
/// its first lookup is the plain search. A cursor belongs to one
/// frontier or belief at a time; one carried to another still answers
/// exactly, since every piece it tries is tested, but starts nowhere
/// useful. Dropping it adds its lookups to `frontier.lookups`.
#[derive(Debug)]
pub struct FrontierCursor {
    /// The belief regime of the last lookup: [`LazyFrontier`] only, and
    /// always one already walked.
    regime: usize,
    /// The piece of the last lookup: an index into a compiled
    /// frontier's pieces, or into the pieces of `regime`.
    piece: usize,
    /// In-range lookups not yet folded into the registry.
    lookups: u64,
}

impl Default for FrontierCursor {
    fn default() -> Self {
        FrontierCursor {
            regime: usize::MAX,
            piece: usize::MAX,
            lookups: 0,
        }
    }
}

impl Drop for FrontierCursor {
    fn drop(&mut self) {
        if self.lookups > 0 {
            metrics::FRONTIER_LOOKUPS.add(self.lookups);
        }
    }
}

/// The piece of `starts` holding `b`, where `starts` ascends, piece `i`
/// is `[starts[i], starts[i+1])`, the last piece has no upper end, and
/// `starts[0] <= b`: `hint`, then its neighbour toward `b`, then a
/// binary search. Every try is the piece's own interval test, so the
/// answer is `partition_point`'s whatever `hint` is; a `hint` past the
/// end goes straight to the search.
#[inline]
fn find_piece(starts: &[f64], hint: usize, b: f64) -> usize {
    if let Some(&start) = starts.get(hint) {
        if start <= b {
            let up = hint + 1;
            match starts.get(up) {
                Some(&end) if b >= end => {
                    if starts.get(up + 1).is_none_or(|&next| b < next) {
                        return up;
                    }
                }
                _ => return hint,
            }
        } else if hint > 0 && starts[hint - 1] <= b {
            return hint - 1;
        }
    }
    starts.partition_point(|s| *s <= b) - 1
}

/// The compiled bandwidth frontier of one `(profile, strategy, n)`
/// triple: sorted breakpoints and the optimal [`CutMix`] on each
/// interval. See the module docs for the exactness contract.
#[derive(Debug, Clone)]
pub struct RateFrontier {
    profile: RateProfile,
    strategy: Strategy,
    n: usize,
    lo_mbps: f64,
    hi_mbps: f64,
    /// `starts[i]` begins piece `i`; piece `i` covers
    /// `[starts[i], starts[i+1])` (the last runs to `hi_mbps`].
    starts: Vec<f64>,
    sigs: Vec<CutMix>,
}

impl RateFrontier {
    /// Compile the frontier of `strategy` (must be [`Strategy::Jps`] or
    /// [`Strategy::JpsBestMix`]) for `n ≥ 1` jobs over bandwidths
    /// `[lo_mbps, hi_mbps]`.
    ///
    /// Fails with [`PlanError::BadInput`] for any other strategy, for
    /// `n = 0`, or unless `0 < lo_mbps < hi_mbps < ∞`; with the same
    /// [`PlanError`] monotonicity diagnostics as [`Strategy::try_plan`]
    /// when the profile violates the clustered shape at some bandwidth
    /// in the range; and with [`PlanError::BadInput`] when the concrete
    /// profile at some bandwidth in the range would fail
    /// [`CostProfile::try_new`] (a negative setup latency, say).
    ///
    /// The compile runs the planner's own winner search only at the
    /// events of the module docs and where decisions differ: about 55
    /// probes for a zoo profile. Probes read borrowed stage slices: `f`
    /// straight from the profile, `g` from one buffer refilled per
    /// probe with the exact [`RateProfile::upload_ms_at`] expression,
    /// so every probe sees the stage bits [`RateProfile::profile_at`]
    /// would build, without building it. The allocation count is
    /// therefore independent of the probe count.
    ///
    /// This is [`LazyFrontier::new`] followed by
    /// [`LazyFrontier::into_frontier`]: every regime walked, in order.
    pub fn compile(
        profile: &RateProfile,
        strategy: Strategy,
        n: usize,
        lo_mbps: f64,
        hi_mbps: f64,
    ) -> Result<RateFrontier, PlanError> {
        let started = std::time::Instant::now();
        let frontier =
            LazyFrontier::new(profile.clone(), strategy, n, lo_mbps, hi_mbps)?.into_frontier();
        metrics::FRONTIER_COMPILE_MS.observe(started.elapsed().as_secs_f64() * 1e3);
        Ok(frontier)
    }

    /// The strategy this frontier was compiled for.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The job count this frontier was compiled for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Compiled bandwidth range `(lo, hi)` in Mbps.
    pub fn range_mbps(&self) -> (f64, f64) {
        (self.lo_mbps, self.hi_mbps)
    }

    /// The underlying bandwidth-parameterized profile.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Number of constant pieces.
    pub fn num_pieces(&self) -> usize {
        self.sigs.len()
    }

    /// Piece start bandwidths, ascending; `breakpoints()[0]` is the
    /// range start, so there are `num_pieces()` entries.
    pub fn breakpoints(&self) -> &[f64] {
        &self.starts
    }

    /// The optimal [`CutMix`] of each piece, aligned with
    /// [`RateFrontier::breakpoints`]. Collectively these are every cut
    /// structure that is optimal *somewhere* in the compiled range —
    /// the candidate set the joint allocator's best-response step
    /// searches (see [`crate::joint`]).
    pub fn pieces(&self) -> &[CutMix] {
        &self.sigs
    }

    /// True when `b` lies inside the compiled range.
    pub fn covers(&self, bandwidth_mbps: f64) -> bool {
        (self.lo_mbps..=self.hi_mbps).contains(&bandwidth_mbps)
    }

    /// Index into [`RateFrontier::pieces`] of the piece covering
    /// `bandwidth_mbps`, or `None` outside the compiled range. This is
    /// the indexing half of [`RateFrontier::decide`], searched from no
    /// piece and not counted: callers that key per-piece tables (the
    /// scheduler's rung-pricing memo) resolve the piece once and cache
    /// everything derived from its mix.
    pub fn piece_index_at(&self, bandwidth_mbps: f64) -> Option<usize> {
        self.piece_from(usize::MAX, bandwidth_mbps)
    }

    /// The piece holding `b` searched from piece `hint`, or `None`
    /// outside the compiled range.
    #[inline]
    fn piece_from(&self, hint: usize, bandwidth_mbps: f64) -> Option<usize> {
        self.covers(bandwidth_mbps)
            .then(|| find_piece(&self.starts, hint, bandwidth_mbps))
    }

    /// The winning cut structure at bandwidth `b`, looked up from the
    /// piece `cursor` last landed on, which then points at `b`'s piece:
    /// amortized O(1) while `b` walks, O(log P) after a jump, and the
    /// mix [`RateFrontier::decide`] returns either way (see the module
    /// docs). The lookup counts into `cursor`, which folds its count
    /// into `frontier.lookups` when dropped. Outside the compiled range
    /// it plans directly, counted as `frontier.oob` at once, and leaves
    /// `cursor` where it was.
    #[inline]
    pub fn decide_from(&self, cursor: &mut FrontierCursor, bandwidth_mbps: f64) -> CutMix {
        match self.piece_from(cursor.piece, bandwidth_mbps) {
            Some(piece) => {
                cursor.piece = piece;
                cursor.lookups += 1;
                self.sigs[piece]
            }
            None => {
                metrics::FRONTIER_OOB.add(1);
                plan_directly(&self.profile, self.strategy, self.n, bandwidth_mbps)
            }
        }
    }

    /// O(log P) lookup of the winning cut structure at bandwidth `b`:
    /// [`RateFrontier::decide_from`] from a fresh cursor, so a binary
    /// search over the piece starts, counted as one `frontier.lookups`
    /// as it returns. [`RateFrontier::decide_at`] without the kernel
    /// makespan, for callers that read only the mix. Outside the
    /// compiled range it falls back to a direct planning pass, counted
    /// as `frontier.oob`.
    pub fn decide(&self, bandwidth_mbps: f64) -> CutMix {
        self.decide_from(&mut FrontierCursor::default(), bandwidth_mbps)
    }

    /// O(log P) lookup: the winning cut structure and its exact kernel
    /// makespan at bandwidth `b` — [`RateFrontier::decide`] plus
    /// [`RateProfile::mix_makespan`]. Outside the compiled range this
    /// falls back to a direct planning pass (counted as `frontier.oob`).
    pub fn decide_at(&self, bandwidth_mbps: f64) -> FrontierDecision {
        let mix = self.decide(bandwidth_mbps);
        FrontierDecision {
            mix,
            makespan_ms: self.profile.mix_makespan(self.n, mix, bandwidth_mbps),
        }
    }

    /// The full materialized [`Plan`] at bandwidth `b` — identical to
    /// what `self.strategy().plan(&profile_at(b), n)` returns wherever
    /// the compiled decision matches the planner's winner (see the
    /// module docs), including the exact recurrence `makespan_ms`.
    pub fn plan_at(&self, bandwidth_mbps: f64) -> Plan {
        let mix = self.decide(bandwidth_mbps);
        let cp = self.profile.profile_at(bandwidth_mbps);
        Plan::from_cuts(self.strategy, &cp, mix.cuts(self.n))
    }

    /// Audit helper: sweep `samples` log-spaced bandwidths across the
    /// compiled range and verify [`RateFrontier::plan_at`] against a
    /// direct [`Strategy::plan`] call — bit-identical plans, or (on
    /// breakpoint ties) equal makespans to 1e-9 relative. Returns the
    /// number of mismatches (0 = exact).
    pub fn audit_against_planner(&self, samples: usize) -> usize {
        assert!(samples >= 2);
        let mut mismatches = 0;
        for i in 0..samples {
            let t = i as f64 / (samples - 1) as f64;
            let b = self.lo_mbps * (self.hi_mbps / self.lo_mbps).powf(t);
            let fast = self.plan_at(b);
            let slow = self.strategy.plan(&self.profile.profile_at(b), self.n);
            let tied = (fast.makespan_ms - slow.makespan_ms).abs()
                <= 1e-9 * slow.makespan_ms.abs().max(1.0);
            if fast != slow && !tied {
                mismatches += 1;
            }
        }
        mismatches
    }
}

/// A frontier that walks each `l*` regime on its first query: what a
/// tenant plans with between two estimator commits, when only a few
/// bursts will query it (see the module docs).
///
/// [`LazyFrontier::new`] runs every check [`RateFrontier::compile`]
/// runs, so a regime walk cannot fail later.
/// [`LazyFrontier::decide_from`] returns the mix the compiled
/// frontier's [`RateFrontier::decide`] returns, and allocates only when
/// it walks a regime.
/// [`LazyFrontier::into_frontier`] walks the rest and is that compiled
/// frontier, bit for bit.
#[derive(Debug)]
pub struct LazyFrontier {
    walker: Compiler,
    strategy: Strategy,
    lo_mbps: f64,
    hi_mbps: f64,
    /// Regime starts, ascending: `lo`, then each `l*` flip. Regime `i`
    /// runs to one ulp below `regimes[i+1]` (the last to `hi`).
    regimes: Vec<f64>,
    /// The pieces of regime `i` in the walker's lists; empty until the
    /// regime is walked, since a walk emits at least one piece.
    walked: Vec<Range<usize>>,
}

impl LazyFrontier {
    /// Validate `profile` as [`RateFrontier::compile`] does, with the
    /// same errors in the same order, and find its `l*` regimes. Walks
    /// none of them.
    pub fn new(
        profile: RateProfile,
        strategy: Strategy,
        n: usize,
        lo_mbps: f64,
        hi_mbps: f64,
    ) -> Result<LazyFrontier, PlanError> {
        let bad = |what| Err(PlanError::BadInput { what });
        if !matches!(strategy, Strategy::Jps | Strategy::JpsBestMix) {
            return bad("frontier compilation supports only the JPS strategies");
        }
        if n == 0 {
            return bad("need at least one job");
        }
        if !(lo_mbps > 0.0 && lo_mbps < hi_mbps && hi_mbps.is_finite()) {
            return bad("need 0 < lo_mbps < hi_mbps < inf");
        }
        profile.check_monotone()?;
        // Every probe lies in [lo, hi]. `f` and the cloud stage do not
        // depend on the bandwidth and each `g(l; b)` is monotone in `b`,
        // so the profile is valid at every probe iff it is valid at both
        // ends: the checks a per-probe `CostProfile::try_new` made run
        // here, twice per frontier.
        for b in [lo_mbps, hi_mbps] {
            profile.try_profile_at(b).map_err(bad_stages)?;
        }
        let walker = Compiler::new(profile, n, strategy == Strategy::JpsBestMix);
        let mut regimes: Vec<f64> = (0..walker.g.len())
            .filter_map(|m| walker.flip(m, lo_mbps, hi_mbps))
            .chain([lo_mbps])
            .collect();
        regimes.sort_unstable_by(f64::total_cmp);
        regimes.dedup();
        metrics::FRONTIER_COMPILE.add(1);
        Ok(LazyFrontier {
            walker,
            strategy,
            lo_mbps,
            hi_mbps,
            walked: vec![0..0; regimes.len()],
            regimes,
        })
    }

    /// The belief's profile.
    pub fn profile(&self) -> &RateProfile {
        &self.walker.profile
    }

    /// The winning cut structure at bandwidth `b`: the mix the compiled
    /// frontier's [`RateFrontier::decide`] returns, looked up as
    /// [`RateFrontier::decide_from`] looks it up, from where `cursor`
    /// last landed — first among the regimes, then among the pieces of
    /// the regime found. Walks `b`'s regime on its first query, so the
    /// cursor only ever points into a walked regime. Counts and, outside
    /// the range, plans directly as `decide_from` does.
    pub fn decide_from(&mut self, cursor: &mut FrontierCursor, bandwidth_mbps: f64) -> CutMix {
        if !(self.lo_mbps..=self.hi_mbps).contains(&bandwidth_mbps) {
            metrics::FRONTIER_OOB.add(1);
            let w = &self.walker;
            return plan_directly(&w.profile, self.strategy, w.n, bandwidth_mbps);
        }
        cursor.lookups += 1;
        let regime = find_piece(&self.regimes, cursor.regime, bandwidth_mbps);
        let Range { start, end } = self.walk(regime);
        let hint = if regime == cursor.regime {
            cursor.piece
        } else {
            usize::MAX
        };
        let piece = find_piece(&self.walker.starts[start..end], hint, bandwidth_mbps);
        (cursor.regime, cursor.piece) = (regime, piece);
        self.walker.sigs[start + piece]
    }

    /// Walk every regime not walked yet and merge equal pieces across
    /// regime boundaries: the compiled frontier.
    pub fn into_frontier(mut self) -> RateFrontier {
        for regime in 0..self.regimes.len() {
            self.walk(regime);
        }
        let w = &self.walker;
        // The pieces in regime order, less each that continues its
        // predecessor's mix; counted first, so a cached frontier holds
        // no spare capacity.
        let merged = || {
            let mut last = None;
            self.walked
                .iter()
                .flat_map(Range::clone)
                .filter(move |&i| last.replace(w.sigs[i]) != Some(w.sigs[i]))
        };
        let len = merged().count();
        let (mut starts, mut sigs) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for i in merged() {
            starts.push(w.starts[i]);
            sigs.push(w.sigs[i]);
        }
        RateFrontier {
            n: w.n,
            strategy: self.strategy,
            lo_mbps: self.lo_mbps,
            hi_mbps: self.hi_mbps,
            starts,
            sigs,
            profile: self.walker.profile,
        }
    }

    /// The pieces of `regime`, walking it first if no query has.
    fn walk(&mut self, regime: usize) -> Range<usize> {
        if self.walked[regime].is_empty() {
            let a = self.regimes[regime];
            let z = self
                .regimes
                .get(regime + 1)
                .map_or(self.hi_mbps, |&next| next_down(next));
            self.walked[regime] = self.walker.walk(a, z);
        }
        self.walked[regime].clone()
    }
}

/// The planner's decision at `b`, planned directly: how a frontier
/// answers outside its range.
fn plan_directly(profile: &RateProfile, strategy: Strategy, n: usize, b: f64) -> CutMix {
    let cp = profile.profile_at(b);
    let (search, cand) =
        winning_candidate(cp.f_all(), cp.g_all(), n, strategy == Strategy::JpsBestMix);
    CutMix::from_candidate(search.l_prev, search.l_star, cand, n)
}

/// The compile error for a profile whose concrete stages at some
/// bandwidth in the range fail [`CostProfile::try_new`].
fn bad_stages(err: ProfileError) -> PlanError {
    PlanError::BadInput {
        what: match err {
            ProfileError::NonFinite { .. } => {
                "stage times must be finite and >= 0 across the bandwidth range"
            }
            _ => "profile stages need f(0) = 0, g(k) = 0 and equal lengths",
        },
    }
}

/// The next f64 above a positive finite `b`.
fn next_up(b: f64) -> f64 {
    f64::from_bits(b.to_bits() + 1)
}

/// The next f64 below a positive finite `b`.
fn next_down(b: f64) -> f64 {
    f64::from_bits(b.to_bits() - 1)
}

/// The bit-space midpoint of `lo < hi` (both positive): the
/// geometric-ish middle, exact to the float.
fn bit_mid(lo: f64, hi: f64) -> f64 {
    let (l, h) = (lo.to_bits(), hi.to_bits());
    f64::from_bits(l + (h - l) / 2)
}

/// The first f64 in `(lo, hi]` where a predicate that is false at `lo`,
/// true at `hi` and monotone in between turns true. Widens a window of
/// 1, 2, 4, ... ulps around the closed-form `guess` until it brackets
/// the flip, then bisects in bit space, so a guess a few ulps off costs
/// a few evaluations.
fn first_true(lo: f64, hi: f64, guess: f64, mut pred: impl FnMut(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (lo.to_bits(), hi.to_bits());
    if guess > f64::from_bits(lo) && guess < f64::from_bits(hi) {
        let (at, mut step) = (guess.to_bits(), 1);
        loop {
            let (l, h) = (
                at.saturating_sub(step).max(lo),
                at.saturating_add(step).min(hi),
            );
            if (l == lo || !pred(f64::from_bits(l))) && (h == hi || pred(f64::from_bits(h))) {
                (lo, hi) = (l, h);
                break;
            }
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(f64::from_bits(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

/// The event compile of one frontier's regimes: the planner's own
/// winner search as the probe, and the pieces of every regime walked so
/// far, each regime's ascending and contiguous, regimes in walk order.
#[derive(Debug)]
struct Compiler {
    profile: RateProfile,
    n: usize,
    best_mix: bool,
    /// Upload stage at the probed bandwidth, refilled per probe.
    g: Vec<f64>,
    /// Sorted probe points of the segment being walked.
    points: Vec<f64>,
    /// The walked regime's pieces while `confirm` re-emits them.
    spare: Vec<(f64, CutMix)>,
    probes: u64,
    /// Index of the walked regime's first piece.
    from: usize,
    starts: Vec<f64>,
    sigs: Vec<CutMix>,
}

impl Compiler {
    fn new(profile: RateProfile, n: usize, best_mix: bool) -> Self {
        Compiler {
            g: vec![0.0; profile.f_ms.len()],
            profile,
            n,
            best_mix,
            points: Vec::new(),
            spare: Vec::new(),
            probes: 0,
            from: 0,
            starts: Vec::new(),
            sigs: Vec::new(),
        }
    }

    /// Walk the `l*` regime `[a, z]` and confirm its pieces, appending
    /// them to the lists; returns their index range.
    fn walk(&mut self, a: f64, z: f64) -> Range<usize> {
        let probes = self.probes;
        self.from = self.sigs.len();
        self.segment(a, z);
        self.confirm(z);
        metrics::FRONTIER_COMPILE_PROBES.add(self.probes - probes);
        self.from..self.sigs.len()
    }

    /// The planner's decision at `b`, with the Alg. 2 search it ran.
    fn probe(&mut self, b: f64) -> (CutSearch, CutMix) {
        self.probes += 1;
        for (l, gl) in self.g.iter_mut().enumerate() {
            *gl = self.profile.upload_ms_at(l, b);
        }
        let (search, cand) = winning_candidate(&self.profile.f_ms, &self.g, self.n, self.best_mix);
        let mix = CutMix::from_candidate(search.l_prev, search.l_star, cand, self.n);
        (search, mix)
    }

    fn decide(&mut self, b: f64) -> CutMix {
        self.probe(b).1
    }

    /// Start a piece at `b` unless `mix` continues the regime's last one.
    fn emit(&mut self, b: f64, mix: CutMix) {
        if self.sigs[self.from..].last() != Some(&mix) {
            self.starts.push(b);
            self.sigs.push(mix);
        }
    }

    /// `g(l; b) = σ(l) + c(l)·u` with `u = 1/b`: the pair `(σ, c)`.
    fn affine_g(&self, l: usize) -> (f64, f64) {
        match self.profile.bytes[l] {
            0 => (0.0, 0.0),
            bytes => (self.profile.setup_ms, bytes as f64 * 8.0 / 1e3),
        }
    }

    /// The exact f64 in `(lo, hi]` where Alg. 2's test `f(m) < g(m; b)`
    /// turns false, if it does in range.
    fn flip(&self, m: usize, lo: f64, hi: f64) -> Option<f64> {
        let (f, profile) = (self.profile.f_ms[m], &self.profile);
        let balanced = |b: f64| f >= profile.upload_ms_at(m, b);
        if balanced(lo) || !balanced(hi) {
            return None;
        }
        let (sigma, c) = self.affine_g(m);
        Some(first_true(lo, hi, c / (f - sigma), balanced))
    }

    /// Theorem 5.3's ratio at `b` with `l* = star`, capped at `2n`:
    /// above that neither ratio candidate changes.
    fn ratio(&mut self, star: usize, b: f64) -> usize {
        let prev = star - 1;
        self.g[prev] = self.profile.upload_ms_at(prev, b);
        self.g[star] = self.profile.upload_ms_at(star, b);
        ratio_at(&self.profile.f_ms, &self.g, star).map_or(0, |r| r.min(2 * self.n))
    }

    /// The kink of the two-type mix with `at_prev` jobs at `prev`, where
    /// its comm-bound term `f₁ + a·g₁ + b·g₂` meets its compute-bound term
    /// `a·f₁ + b·f₂ + g₂`; pushed when it lies strictly inside `(lo, hi)`.
    fn push_kink(&mut self, prev: usize, at_prev: usize, lo: f64, hi: f64) {
        let star = prev + 1;
        let (f1, f2) = (self.profile.f_ms[prev], self.profile.f_ms[star]);
        let ((s1, c1), (s2, c2)) = (self.affine_g(prev), self.affine_g(star));
        let (a, b) = (at_prev as f64, (self.n - at_prev) as f64);
        let u = (a * f1 + b * f2 + s2 - f1 - a * s1 - b * s2) / (a * c1 + (b - 1.0) * c2);
        let at = 1.0 / u;
        if at > lo && at < hi {
            self.points.push(at);
        }
    }

    /// Walk one `l*` regime `[a, z]`: probe both ends, every kink and
    /// both sides of every ratio step, and split each pair of adjacent
    /// points whose decisions differ.
    fn segment(&mut self, a: f64, z: f64) {
        let (search, at_a) = self.probe(a);
        self.emit(a, at_a);
        if a == z {
            return;
        }
        let at_z = self.decide(z);
        self.points.clear();
        if let Some(prev) = search.l_prev {
            if self.best_mix {
                for at_prev in 1..self.n {
                    self.push_kink(prev, at_prev, a, z);
                }
            } else {
                self.ratio_steps(prev, a, z);
            }
        }
        let mut points = std::mem::take(&mut self.points);
        points.sort_unstable_by(f64::total_cmp);
        points.dedup();
        let (mut p, mut at_p) = (a, at_a);
        for &x in points.iter().filter(|&&x| x > a && x < z).chain([&z]) {
            let at_x = if x == z { at_z } else { self.decide(x) };
            if at_x != at_p {
                self.split(p, at_p, x, at_x, true);
            }
            (p, at_p) = (x, at_x);
        }
        self.points = points;
    }

    /// Jps in the regime `[a, z]` with `l* = prev + 1`: push both sides
    /// of every exact ratio step and, between steps, the kinks of the
    /// ratio mix and its proportional variant at that step's ratio.
    fn ratio_steps(&mut self, prev: usize, a: f64, z: f64) {
        let (star, n) = (prev + 1, self.n);
        let ((s_prev, c_prev), (s_star, c_star)) = (self.affine_g(prev), self.affine_g(star));
        let (f_prev, f_star) = (self.profile.f_ms[prev], self.profile.f_ms[star]);
        let last = self.ratio(star, z);
        let (mut from, mut ratio) = (a, self.ratio(star, a));
        loop {
            let step = (ratio < last).then(|| {
                // Surplus = (ratio + 1) · deficit, solved for b.
                let j = (ratio + 1) as f64;
                let guess = (c_star + j * c_prev) / (f_star - s_star + j * (f_prev - s_prev));
                first_true(from, z, guess, |b| self.ratio(star, b) > ratio)
            });
            let until = step.map_or(z, next_down);
            let search = CutSearch {
                l_star: star,
                l_prev: Some(prev),
                ratio: Some(ratio),
            };
            for at_prev in [
                ratio_mix_at_prev(&search, n),
                proportional_at_prev(&search, n),
            ]
            .into_iter()
            .flatten()
            .filter(|&m| m > 0 && m < n)
            {
                self.push_kink(prev, at_prev, from, until);
            }
            let Some(step) = step else { return };
            self.points.extend([until, step]);
            from = step;
            ratio = self.ratio(star, step);
        }
    }

    /// Emit every decision change in `(p, q]`, given the decisions `da`
    /// at `p` and `dc` at `q` differ and no event lies between. The
    /// first probe goes where the two candidates' scores cross (exact
    /// in `u = 1/b`, where both are affine), the next ones gallop out
    /// from it, and the rest bisect in bit space.
    fn split(&mut self, p: f64, da: CutMix, q: f64, dc: CutMix, secant: bool) {
        let next = next_up(p);
        if next == q {
            return self.emit(q, dc);
        }
        let x = secant
            .then(|| self.crossing(p, da, q, dc))
            .flatten()
            .map_or_else(|| bit_mid(p, q), |x| x.clamp(next, next_down(q)));
        let dx = self.decide(x);
        if dx == da {
            let (last, y, dy) = self.gallop(x, da, q, dc);
            self.split(last, da, y, dy, false);
            if dy != dc {
                self.split(y, dy, q, dc, true);
            }
        } else if dx == dc {
            let (last, y, dy) = self.gallop(x, dc, p, da);
            if dy != da {
                self.split(p, da, y, dy, true);
            }
            self.split(y, dy, last, dc, false);
        } else {
            self.split(p, da, x, dx, true);
            self.split(x, dx, q, dc, true);
        }
    }

    /// Step 1, 2, 4, ... ulps from `x`, where `dx` holds, toward `end`,
    /// where `d_end` does, until the decision changes. Returns the last
    /// point still at `dx`, the first changed one and its decision.
    fn gallop(&mut self, mut x: f64, dx: CutMix, end: f64, d_end: CutMix) -> (f64, f64, CutMix) {
        let mut step = 1;
        loop {
            let bits = x.to_bits();
            let y = f64::from_bits(if end > x {
                bits + step
            } else {
                bits.saturating_sub(step)
            });
            if (end > x) != (end > y) || y == end {
                return (x, end, d_end);
            }
            let dy = self.decide(y);
            if dy != dx {
                return (x, y, dy);
            }
            (x, step) = (y, step * 2);
        }
    }

    /// Where the kernel scores of `da` (winning at `p`) and `dc`
    /// (winning at `q`) cross, by the secant in `u = 1/b`; `None` when
    /// the ends do not bracket a strict crossing.
    fn crossing(&self, p: f64, da: CutMix, q: f64, dc: CutMix) -> Option<f64> {
        let gap =
            |b| self.profile.mix_makespan(self.n, dc, b) - self.profile.mix_makespan(self.n, da, b);
        let (gp, gq) = (gap(p), gap(q));
        if !(gp > 0.0 && gq < 0.0) {
            return None;
        }
        let (up, uq) = (1.0 / p, 1.0 / q);
        Some(1.0 / (up + (uq - up) * (gp / (gp - gq)))).filter(|x| x.is_finite())
    }

    /// The per-piece check of the regime ending at `z`: probe each
    /// piece's interior once. A decision that differs there without
    /// tying the piece's makespan would mean an event the families
    /// missed; the piece is then split around the probe rather than
    /// trusted.
    fn confirm(&mut self, z: f64) {
        let mut pieces = std::mem::take(&mut self.spare);
        pieces.clear();
        pieces.extend(
            self.starts
                .drain(self.from..)
                .zip(self.sigs.drain(self.from..)),
        );
        for (i, &(s, mix)) in pieces.iter().enumerate() {
            self.emit(s, mix);
            let e = pieces.get(i + 1).map_or(z, |&(t, _)| next_down(t));
            if next_up(s) >= e {
                continue;
            }
            let m = bit_mid(s, e);
            let at_m = self.decide(m);
            let (want, got) = (
                self.profile.mix_makespan(self.n, mix, m),
                self.profile.mix_makespan(self.n, at_m, m),
            );
            if at_m == mix || (want - got).abs() <= 1e-9 * got.abs().max(1.0) {
                continue;
            }
            self.split(s, mix, m, at_m, true);
            let at_e = self.decide(e);
            if at_e != at_m {
                self.split(m, at_m, e, at_e, true);
            }
        }
        self.spare = pieces;
    }
}

/// FNV-1a hash of a cache query — profile stage bits, bytes and setup,
/// strategy, job count, range — computed once per lookup with zero
/// allocation. The profile *name* is deliberately excluded: the cache
/// is keyed by content (see the module docs).
fn content_hash(
    profile: &RateProfile,
    strategy: Strategy,
    n: usize,
    lo_mbps: f64,
    hi_mbps: f64,
) -> u64 {
    let mut h = fnv_fold(FNV_OFFSET, profile.f_ms.len() as u64);
    for v in &profile.f_ms {
        h = fnv_fold(h, v.to_bits());
    }
    for &b in &profile.bytes {
        h = fnv_fold(h, b as u64);
    }
    for v in &profile.cloud_ms {
        h = fnv_fold(h, v.to_bits());
    }
    h = fnv_fold(h, profile.setup_ms.to_bits());
    h = fnv_fold(h, strategy as u64);
    h = fnv_fold(h, n as u64);
    h = fnv_fold(h, lo_mbps.to_bits());
    fnv_fold(h, hi_mbps.to_bits())
}

/// Bitwise content equality of two profiles, name excluded — the
/// collision check behind the pre-hash. Borrows both sides; nothing is
/// materialized.
fn profile_content_eq(a: &RateProfile, b: &RateProfile) -> bool {
    a.f_ms.len() == b.f_ms.len()
        && a.setup_ms.to_bits() == b.setup_ms.to_bits()
        && a.bytes == b.bytes
        && a.f_ms.iter().zip(&b.f_ms).all(|(x, y)| x.to_bits() == y.to_bits())
        && a.cloud_ms.iter().zip(&b.cloud_ms).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// True when a cached frontier answers exactly this query. The
/// comparison runs against the profile the frontier itself stores, so
/// a hit needs no key materialization at all.
fn frontier_matches(
    fr: &RateFrontier,
    profile: &RateProfile,
    strategy: Strategy,
    n: usize,
    lo_mbps: f64,
    hi_mbps: f64,
) -> bool {
    fr.strategy == strategy
        && fr.n == n
        && fr.lo_mbps.to_bits() == lo_mbps.to_bits()
        && fr.hi_mbps.to_bits() == hi_mbps.to_bits()
        && profile_content_eq(&fr.profile, profile)
}

/// A shared, thread-safe cache of compiled [`RateFrontier`]s keyed by
/// profile content × strategy × job count × range: one list of
/// `(content hash, frontier)` entries behind one `RwLock`. Serving
/// reads it once per session or tenant start, never per burst, so a
/// hit needs no more than a read lock and a linear scan under the
/// pre-hash filter; it allocates nothing:
///
/// 1. every lookup pre-hashes its key once (FNV-1a over the content
///    bits) and compares full content only where the hash matches;
/// 2. a miss takes the cache's compile mutex, looks again, and only
///    then compiles — outside the read/write lock — and publishes
///    under the write lock. Threads that miss the same key at once
///    wait for the first one's compile and count a hit, so each key
///    compiles once however many workers race for it.
///
/// Entries are matched by full content comparison (never by hash
/// alone). A frontier is a pure function of its key, so profiles with
/// equal content share one entry whatever their names, a re-estimate
/// bit-equal to its base included. Serving fetches factory profiles
/// only; a tenant's re-estimates stay in its private beliefs.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: RwLock<Vec<(u64, Arc<RateFrontier>)>>,
    /// Held from a miss's second look through its publish. Hits never
    /// take it.
    compiling: Mutex<()>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Same as [`PlanCache::new`]: the cache has one lock whatever
    /// `_shards` says. It exists only because the frozen end-to-end
    /// benchmark (`e2e_bench`) calls it; delete it when that benchmark
    /// next changes.
    pub fn with_shards(_shards: usize) -> Self {
        PlanCache::new()
    }

    /// Fetch (or compile and insert) the frontier for
    /// `(profile, strategy, n, lo, hi)`. A hit takes the read lock and
    /// performs zero heap allocations; a miss compiles under the compile
    /// mutex, outside the read/write lock. Errors are not cached — the
    /// monotonicity check is cheap.
    pub fn frontier(
        &self,
        profile: &RateProfile,
        strategy: Strategy,
        n: usize,
        lo_mbps: f64,
        hi_mbps: f64,
    ) -> Result<Arc<RateFrontier>, PlanError> {
        let hash = content_hash(profile, strategy, n, lo_mbps, hi_mbps);
        let find = |entries: &[(u64, Arc<RateFrontier>)]| {
            entries
                .iter()
                .find(|(h, fr)| {
                    *h == hash && frontier_matches(fr, profile, strategy, n, lo_mbps, hi_mbps)
                })
                .map(|(_, fr)| Arc::clone(fr))
        };
        let lookup = || {
            let hit = find(&self.entries.read().expect("plan cache poisoned"));
            if hit.is_some() {
                metrics::FRONTIER_CACHE_HIT.add(1);
            }
            hit
        };
        if let Some(hit) = lookup() {
            return Ok(hit);
        }
        // The mutex guards no data, so a panicked compile leaves
        // nothing to recover.
        let _compiling = self
            .compiling
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = lookup() {
            return Ok(hit); // a racing miss compiled it meanwhile
        }
        metrics::FRONTIER_CACHE_MISS.add(1);
        let compiled = Arc::new(RateFrontier::compile(
            profile, strategy, n, lo_mbps, hi_mbps,
        )?);
        self.entries
            .write()
            .expect("plan cache poisoned")
            .push((hash, Arc::clone(&compiled)));
        Ok(compiled)
    }

    /// Number of cached frontiers.
    pub fn len(&self) -> usize {
        self.entries.read().expect("plan cache poisoned").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached frontier (tests; cost-model changes). Callers
    /// holding an `Arc` keep their frontier; the next fetch of any key
    /// misses and recompiles.
    pub fn clear(&self) {
        self.entries.write().expect("plan cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-layer profile with a rich regime structure: at high
    /// bandwidth everything offloads, at low bandwidth local-only wins.
    fn rate_profile() -> RateProfile {
        RateProfile::from_parts(
            "frontier-test",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            None,
        )
        .unwrap()
    }

    #[test]
    fn profile_at_matches_evaluated_cost_profile_bitwise() {
        use mcdnn_graph::LineLayer;
        use mcdnn_profile::NetworkModel;
        let line = LineDnn::from_parts(
            "bitwise",
            600_000,
            (1..=5)
                .map(|i| LineLayer {
                    name: format!("l{i}"),
                    flops: 150_000_000 * i as u64,
                    out_bytes: 600_000 >> i,
                    nodes: vec![],
                })
                .collect(),
        );
        let mobile = DeviceModel::new("m", 2e9, 0.2);
        let rate = RateProfile::evaluate(&line, &mobile, &CloudModel::Negligible, 10.0);
        for b in [0.3, 1.1, 5.85, 18.88, 250.0] {
            let direct = CostProfile::evaluate(
                &line,
                &mobile,
                &NetworkModel::new(b, 10.0),
                &CloudModel::Negligible,
            );
            let rebuilt = rate.profile_at(b);
            assert_eq!(rebuilt.f_all(), direct.f_all());
            assert_eq!(rebuilt.g_all(), direct.g_all());
            assert_eq!(rebuilt.cloud_all(), direct.cloud_all());
        }
    }

    #[test]
    fn frontier_matches_planner_across_dense_sweep() {
        let rate = rate_profile();
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            for n in [1usize, 2, 7, 10] {
                let frontier =
                    RateFrontier::compile(&rate, strategy, n, 0.05, 500.0).unwrap();
                assert_eq!(
                    frontier.audit_against_planner(800),
                    0,
                    "{strategy:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn first_true_finds_the_exact_flip_from_any_guess() {
        let flip = 3.7f64;
        for guess in [
            flip,
            next_up(flip),
            next_down(flip),
            1.0,
            99.0,
            0.5,
            1e9,
            f64::NAN,
        ] {
            assert_eq!(
                first_true(1.0, 100.0, guess, |b| b >= flip),
                flip,
                "guess {guess}"
            );
        }
        assert_eq!(first_true(1.0, 100.0, 50.0, |b| b >= 100.0), 100.0);
        assert_eq!(first_true(1.0, 100.0, 50.0, |b| b > 1.0), next_up(1.0));
    }

    #[test]
    fn breakpoints_sit_where_the_probe_changes() {
        // Each piece start is the first f64 of its decision: the probe
        // one ulp below reads the previous piece's.
        let rate = rate_profile();
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            for n in [2usize, 7] {
                let frontier = RateFrontier::compile(&rate, strategy, n, 0.05, 500.0).unwrap();
                let mut compiler = Compiler::new(rate.clone(), n, strategy == Strategy::JpsBestMix);
                for (i, &start) in frontier.breakpoints().iter().enumerate().skip(1) {
                    let pieces = frontier.pieces();
                    assert_eq!(
                        compiler.decide(start),
                        pieces[i],
                        "{strategy:?} n={n} at {start}"
                    );
                    assert_eq!(compiler.decide(next_down(start)), pieces[i - 1]);
                }
            }
        }
    }

    #[test]
    fn frontier_is_piecewise_with_sane_breakpoint_count() {
        let rate = rate_profile();
        let n = 10;
        let frontier =
            RateFrontier::compile(&rate, Strategy::JpsBestMix, n, 0.05, 500.0).unwrap();
        assert!(frontier.num_pieces() >= 2, "regimes must actually change");
        // Breakpoint sanity: at most one piece per uniform cut plus one
        // per (adjacent pair, allocation) mix candidate — the scan's
        // candidate families (`at_prev` drifts through 1..n within a
        // mix regime, so each allocation can own a piece).
        let bound = rate.k() + 1 + rate.k() * (n + 1);
        assert!(
            frontier.num_pieces() <= bound,
            "{} pieces exceeds candidate bound {bound}",
            frontier.num_pieces()
        );
        // Extremes: dead-slow link is local-only, blazing link offloads
        // (early cuts only — best-mix may still blend cuts 0 and 1).
        assert_eq!(
            frontier.decide_at(0.05).mix,
            CutMix::Uniform { cut: rate.k() }
        );
        assert!(frontier
            .decide_at(500.0)
            .mix
            .cuts(n)
            .iter()
            .all(|&c| c <= 1));
    }

    #[test]
    fn decide_at_kernel_makespan_matches_materialized_plan() {
        let rate = rate_profile();
        let frontier =
            RateFrontier::compile(&rate, Strategy::JpsBestMix, 8, 0.05, 500.0).unwrap();
        for i in 0..200 {
            let b = 0.05 * (500.0f64 / 0.05).powf(i as f64 / 199.0);
            let d = frontier.decide_at(b);
            let plan = frontier.plan_at(b);
            assert!(
                (d.makespan_ms - plan.makespan_ms).abs() <= 1e-9 * plan.makespan_ms.max(1.0),
                "b={b}: kernel {} vs plan {}",
                d.makespan_ms,
                plan.makespan_ms
            );
        }
    }

    #[test]
    fn out_of_range_falls_back_to_direct_planning() {
        let rate = rate_profile();
        let frontier = RateFrontier::compile(&rate, Strategy::Jps, 5, 1.0, 10.0).unwrap();
        for b in [0.2, 64.0] {
            assert!(!frontier.covers(b));
            let plan = frontier.plan_at(b);
            let direct = Strategy::Jps.plan(&rate.profile_at(b), 5);
            assert_eq!(plan, direct, "oob b={b} must fall back exactly");
        }
    }

    #[test]
    fn non_monotone_bytes_rejected_like_try_plan() {
        let rate = RateProfile::from_parts(
            "bumpy",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![50_000, 10_000, 20_000, 0],
            2.0,
            None,
        )
        .unwrap();
        match RateFrontier::compile(&rate, Strategy::Jps, 4, 0.1, 100.0) {
            Err(PlanError::NonMonotoneG { at }) => assert_eq!(at, 2),
            other => panic!("expected NonMonotoneG, got {other:?}"),
        }
        // try_plan agrees at a bandwidth where the bump is material.
        assert!(matches!(
            Strategy::Jps.try_plan(&rate.profile_at(0.1), 4),
            Err(PlanError::NonMonotoneG { .. })
        ));
    }

    #[test]
    fn out_of_shape_stages_are_a_typed_compile_error() {
        // A negative setup latency passes the monotonicity check (bytes
        // still shrink) but drives g(l; b) below zero at the fast end
        // of the range: the compile reports it instead of panicking
        // inside a probe.
        let line = LineDnn::from_parts(
            "negative-setup",
            600_000,
            (1..=4)
                .map(|i| mcdnn_graph::LineLayer {
                    name: format!("l{i}"),
                    flops: 100_000_000 * i as u64,
                    out_bytes: 600_000 >> i,
                    nodes: vec![],
                })
                .collect(),
        );
        let mobile = DeviceModel::new("m", 2e9, 0.2);
        let rate = RateProfile::evaluate(&line, &mobile, &CloudModel::Negligible, -50.0);
        assert!(rate.check_monotone().is_ok());
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            match RateFrontier::compile(&rate, strategy, 4, 1.0, 100.0) {
                Err(PlanError::BadInput { what }) => assert!(what.contains("finite"), "{what}"),
                other => panic!("{strategy:?}: expected BadInput, got {other:?}"),
            }
        }
        // The same profile compiles where every stage stays >= 0.
        assert!(RateFrontier::compile(&rate, Strategy::Jps, 4, 0.1, 1.0).is_ok());
    }

    #[test]
    fn from_parts_rejects_a_negative_or_nan_setup() {
        for setup in [-1.0, f64::NAN, f64::INFINITY] {
            match RateProfile::from_parts("s", vec![0.0, 4.0], vec![1_000, 0], setup, None) {
                Err(ProfileError::NonFinite { which: "setup", .. }) => {}
                other => panic!("setup {setup}: expected NonFinite setup, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_shares_compiled_frontiers_by_content() {
        let cache = PlanCache::new();
        let rate = rate_profile();
        let fetch = |p: &RateProfile| {
            cache
                .frontier(p, Strategy::JpsBestMix, 6, 0.1, 100.0)
                .unwrap()
        };
        let a = fetch(&rate);
        let b = fetch(&rate);
        assert!(Arc::ptr_eq(&a, &b), "second fetch must be a cache hit");
        assert_eq!(cache.len(), 1);
        // Another name, same content: the same entry.
        let renamed = RateProfile::from_parts(
            "renamed",
            vec![0.0, 4.0, 7.0, 20.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            None,
        )
        .unwrap();
        let by_name = fetch(&renamed);
        assert!(Arc::ptr_eq(&a, &by_name), "the name is not part of the key");
        // A neutral re-estimate rebuilds the base bit for bit, so it is
        // the base profile and hits its entry.
        let neutral = rate.reestimated(&[1.0; 4], 1.0, 1.0, rate.setup_ms());
        assert_eq!(neutral, rate);
        assert!(Arc::ptr_eq(&a, &fetch(&neutral)));
        assert_eq!(cache.len(), 1);
        // Same name, different content: distinct entry.
        let other = RateProfile::from_parts(
            "frontier-test",
            vec![0.0, 5.0, 9.0, 22.0],
            vec![120_000, 60_000, 20_000, 0],
            2.0,
            None,
        )
        .unwrap();
        let c = fetch(&other);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // Both entries keep hitting after the second insert.
        let first = fetch(&rate);
        assert!(Arc::ptr_eq(&a, &first), "the first entry survives");
        assert!(Arc::ptr_eq(&c, &fetch(&other)));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        mcdnn_obs::set_enabled(true);
        let cache = PlanCache::new();
        let rate = rate_profile();
        let miss0 = mcdnn_obs::thread_counter_value("frontier.cache.miss");
        let hit0 = mcdnn_obs::thread_counter_value("frontier.cache.hit");
        cache.frontier(&rate, Strategy::Jps, 3, 0.1, 50.0).unwrap();
        cache.frontier(&rate, Strategy::Jps, 3, 0.1, 50.0).unwrap();
        cache.frontier(&rate, Strategy::Jps, 4, 0.1, 50.0).unwrap();
        assert_eq!(mcdnn_obs::thread_counter_value("frontier.cache.miss") - miss0, 2);
        assert_eq!(mcdnn_obs::thread_counter_value("frontier.cache.hit") - hit0, 1);
    }

    #[test]
    fn clear_forces_one_recompile_to_the_same_breakpoints() {
        mcdnn_obs::set_enabled(true);
        let cache = PlanCache::new();
        let rate = rate_profile();
        let a = cache.frontier(&rate, Strategy::Jps, 5, 0.1, 50.0).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        let miss0 = mcdnn_obs::thread_counter_value("frontier.cache.miss");
        let hit0 = mcdnn_obs::thread_counter_value("frontier.cache.hit");
        let b = cache.frontier(&rate, Strategy::Jps, 5, 0.1, 50.0).unwrap();
        let c = cache.frontier(&rate, Strategy::Jps, 5, 0.1, 50.0).unwrap();
        assert_eq!(mcdnn_obs::thread_counter_value("frontier.cache.miss") - miss0, 1);
        assert_eq!(mcdnn_obs::thread_counter_value("frontier.cache.hit") - hit0, 1);
        assert!(!Arc::ptr_eq(&a, &b), "cleared entries must not resurface");
        assert!(Arc::ptr_eq(&b, &c), "the recompiled entry is shared");
        assert_eq!(a.breakpoints(), b.breakpoints(), "recompile is deterministic");
    }

    #[test]
    fn a_fresh_thread_hits_what_another_thread_compiled() {
        mcdnn_obs::set_enabled(true);
        let cache = PlanCache::new();
        let rate = rate_profile();
        let a = cache
            .frontier(&rate, Strategy::JpsBestMix, 4, 0.1, 80.0)
            .unwrap();
        let (hits, misses) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let c = cache
                        .frontier(&rate, Strategy::JpsBestMix, 4, 0.1, 80.0)
                        .unwrap();
                    assert!(Arc::ptr_eq(&a, &c));
                    (
                        mcdnn_obs::thread_counter_value("frontier.cache.hit"),
                        mcdnn_obs::thread_counter_value("frontier.cache.miss"),
                    )
                })
                .join()
                .expect("fresh thread")
        });
        assert_eq!(hits, 1);
        assert_eq!(misses, 0);
    }

    #[test]
    fn racing_misses_compile_a_key_once() {
        mcdnn_obs::set_enabled(true);
        const RACERS: usize = 4;
        let cache = PlanCache::new();
        let rate = rate_profile();
        let start = std::sync::Barrier::new(RACERS);
        let raced: Vec<(Arc<RateFrontier>, u64)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        let before = mcdnn_obs::thread_counter_value("frontier.compile");
                        start.wait();
                        let fr = cache
                            .frontier(&rate, Strategy::JpsBestMix, 4, 0.1, 80.0)
                            .unwrap();
                        let after = mcdnn_obs::thread_counter_value("frontier.compile");
                        (fr, after - before)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("racer"))
                .collect()
        });
        let compiles: u64 = raced.iter().map(|(_, compiles)| compiles).sum();
        assert_eq!(compiles, 1, "one compile for one key");
        assert!(raced.iter().all(|(fr, _)| Arc::ptr_eq(fr, &raced[0].0)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reestimated_rescales_and_projects_to_the_clustered_shape() {
        let rate = rate_profile(); // f = [0,4,7,20], bytes = [120k,60k,20k,0]
        // Per-layer scales that would break monotonicity raw: layer 1
        // slows 3x (f=12) while layer 2 speeds up (f=5.6 < 12).
        let scales = [1.0, 3.0, 0.8, 1.0];
        let re = rate.reestimated(&scales, 2.0, 1.25, 5.0);
        assert_eq!(re.mobile_ms(0), 0.0, "f(0) stays zero");
        assert_eq!(re.mobile_ms(1), 12.0);
        assert_eq!(re.mobile_ms(2), 12.0, "cummax projection keeps f monotone");
        assert_eq!(re.mobile_ms(3), 20.0);
        assert!(re.check_monotone().is_ok());
        assert_eq!(re.bytes(0), 150_000);
        assert_eq!(re.bytes(3), 0, "local-only cut still uploads nothing");
        assert_eq!(re.setup_ms(), 5.0);
        assert_eq!(re.cloud_stage_ms(0), 2.0 * rate.cloud_stage_ms(0));
        // Absolute rebuild: re-estimating the *base* twice with the
        // same scales is idempotent (no compounding).
        let re2 = rate.reestimated(&scales, 2.0, 1.25, 5.0);
        assert_eq!(re, re2);
        // Garbage scales fall back to identity rather than poisoning.
        let safe = rate.reestimated(&[f64::NAN; 4], -1.0, f64::INFINITY, f64::NAN);
        assert_eq!(safe.mobile_ms(3), rate.mobile_ms(3));
        assert_eq!(safe.bytes(0), rate.bytes(0));
        assert_eq!(safe.setup_ms(), rate.setup_ms());
    }

    #[test]
    fn mix_makespan_agrees_with_kernels_on_both_shapes() {
        let rate = rate_profile();
        let b = 3.0;
        let uni = rate.mix_makespan(7, CutMix::Uniform { cut: 2 }, b);
        assert_eq!(
            uni,
            uniform_makespan(7, rate.f_ms[2], rate.upload_ms_at(2, b))
        );
        let mix = rate.mix_makespan(
            7,
            CutMix::Mix {
                prev: 1,
                star: 2,
                at_prev: 3,
            },
            b,
        );
        assert_eq!(
            mix,
            two_type_mix_makespan(
                3,
                rate.f_ms[1],
                rate.upload_ms_at(1, b),
                4,
                rate.f_ms[2],
                rate.upload_ms_at(2, b)
            )
        );
    }

    /// Seeded monotone profiles of 3 to 12 layers: `f` rising from 0 and
    /// the bytes falling to 0 in random steps, so frontiers of a few to
    /// dozens of pieces over several `l*` regimes.
    fn random_profiles() -> Vec<RateProfile> {
        let mut rng = mcdnn_rng::Rng::seed_from_u64(0xC0_2503);
        (0..24)
            .map(|i| {
                let k = rng.gen_range(3usize..=12);
                let (mut f, mut bytes) = (vec![0.0], vec![0usize; k + 1]);
                for _ in 0..k {
                    f.push(f.last().unwrap() + 0.5 + 20.0 * rng.f64());
                }
                let mut left = 50_000 + rng.gen_range(0usize..400_000);
                for slot in bytes.iter_mut().take(k) {
                    *slot = left;
                    left -= rng.gen_range(0usize..=left);
                }
                RateProfile::from_parts(format!("cursor-{i}"), f, bytes, 2.0, None).unwrap()
            })
            .collect()
    }

    /// Every piece start with its ulp neighbours, both range ends, and a
    /// seeded walk of the serving law with degraded jumps.
    fn cursor_queries(starts: &[f64], lo: f64, hi: f64, seed: u64) -> Vec<f64> {
        let mut out = vec![lo, next_up(lo), hi, next_down(hi)];
        for &s in &starts[1..] {
            out.extend([next_down(s), s, next_up(s), s, next_down(s)]);
        }
        let mut rng = mcdnn_rng::Rng::seed_from_u64(seed);
        let mut b = lo * (hi / lo).powf(rng.f64());
        for _ in 0..500 {
            b = (b * (1.0 + 0.25 * (rng.f64() * 2.0 - 1.0))).clamp(lo, hi);
            out.push(b);
            if rng.f64() < 0.2 {
                out.push((b * rng.f64()).clamp(lo, hi));
            }
        }
        out
    }

    #[test]
    fn a_cursor_lands_on_the_searched_piece_from_any_start() {
        // `find_piece` from every hint, a compiled frontier's cursor and
        // a belief's (regime, piece) cursor all equal `partition_point`
        // at every query, bit for bit.
        let (lo, hi) = (0.5, 200.0);
        let mut profiles = random_profiles();
        profiles.push(rate_profile());
        let mut seed = 0;
        let mut several_regimes = 0;
        for rate in &profiles {
            for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
                for n in [2, 5, 8] {
                    seed += 1;
                    let eager = RateFrontier::compile(rate, strategy, n, lo, hi).unwrap();
                    let starts = eager.breakpoints();
                    let searched = |b: f64| starts.partition_point(|s| *s <= b) - 1;
                    let queries = cursor_queries(starts, lo, hi, seed);
                    let mut cursor = FrontierCursor::default();
                    for &b in &queries {
                        for hint in (0..=starts.len()).chain([usize::MAX]) {
                            assert_eq!(find_piece(starts, hint, b), searched(b), "hint {hint}");
                        }
                        assert_eq!(
                            eager.decide_from(&mut cursor, b),
                            eager.pieces()[searched(b)]
                        );
                        assert_eq!(cursor.piece, searched(b), "b={b:e}");
                    }
                    assert_eq!(cursor.lookups, queries.len() as u64);

                    let mut belief = LazyFrontier::new(rate.clone(), strategy, n, lo, hi).unwrap();
                    several_regimes += usize::from(belief.regimes.len() > 1);
                    let mut queries = cursor_queries(&belief.regimes, lo, hi, seed);
                    queries.extend(cursor_queries(starts, lo, hi, seed + 1000));
                    let mut cursor = FrontierCursor::default();
                    for &b in &queries {
                        let mix = belief.decide_from(&mut cursor, b);
                        assert_eq!(mix, eager.decide(b), "b={b:e}");
                        let regime = belief.regimes.partition_point(|s| *s <= b) - 1;
                        let walked = belief.walked[regime].clone();
                        let piece = belief.walker.starts[walked].partition_point(|s| *s <= b) - 1;
                        assert_eq!((cursor.regime, cursor.piece), (regime, piece), "b={b:e}");
                    }
                }
            }
        }
        assert!(several_regimes > 0, "some belief has more than one regime");

        // A frontier of one piece: every query is piece 0.
        let one = RateFrontier::compile(&rate_profile(), Strategy::Jps, 4, 50.0, 60.0).unwrap();
        assert_eq!(one.num_pieces(), 1);
        let mut cursor = FrontierCursor::default();
        for b in cursor_queries(one.breakpoints(), 50.0, 60.0, 7) {
            one.decide_from(&mut cursor, b);
            assert_eq!(cursor.piece, 0);
        }
    }
}
