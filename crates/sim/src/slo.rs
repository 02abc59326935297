//! SLO-aware admission control and deadline scheduling.
//!
//! [`serve`](crate::serve) answers "what does a fleet of independent
//! sessions cost"; this module adds the missing control plane: *which*
//! requests run *when* once the fleet contends for a shared uplink.
//! Every request carries an SLO class (deadline slack + priority drawn
//! from a seeded [`SloSpec`]), the front-end queue orders work
//! earliest-deadline-first with per-tenant weighted fair queueing, and
//! overload sheds or degrades instead of queueing unboundedly: a
//! request whose deadline is infeasible at the current bandwidth walks
//! this module's `LADDER` — the frontier's decision at 1.0, 0.5 and 0.1
//! of the bandwidth, then mobile-only — and takes the cheapest rung
//! whose projected completion fits the slack before it is rejected.
//! That walk is not [`crate::LadderFrontier`]'s walk toward a target
//! frame rate; the two share only the [`LadderLevel`] names.
//!
//! # Virtual-time model
//!
//! The simulator is a deterministic virtual-time scheduler over two
//! resources:
//!
//! * each tenant's **device** runs its own on-device prefix work (`D`,
//!   [`RateProfile::mix_mobile_ms`]) in parallel with everyone else;
//! * one **shared uplink** serializes per-burst upload occupancy (`U`,
//!   [`RateProfile::mix_upload_ms`]) across tenants;
//! * optionally, a pool of [`SloConfig::cloud_servers`] **shared cloud
//!   servers** absorbs the suffix compute (`W`,
//!   [`RateProfile::mix_cloud_ms`]) under deterministic
//!   processor-sharing: tenant `i` holds a static share `φ_i` of the
//!   pool for the whole run, so its cloud stage takes `W / φ_i`.
//!
//! A request dispatched at time `t` starts its upload at
//! `max(t, arrival + D)`, finishes uploading `U` later (the uplink is
//! busy until then), and completes after a further `W / φ` of cloud
//! compute. With `cloud_servers == 0` (the default) the cloud pool is
//! modelled as infinitely fast — the pre-contention behaviour, bit for
//! bit. A mobile-only rung has `U = W = 0` and touches neither shared
//! resource. Deeper ladder rungs replan at a pessimistic bandwidth,
//! trading device work (`D` grows) for uplink bytes (`U` shrinks) —
//! under contention that finishes the request *and* frees the server
//! sooner, which is exactly why degrading one request can rescue
//! several deadlines behind it. Rungs price device work from the
//! request's arrival: the rung is chosen at dispatch, so this is a
//! virtual-time idealization, not a causal executor.
//!
//! # Joint cut/share allocation
//!
//! How the shares `φ_i` are chosen is the contention-oblivious-vs-joint
//! experiment of this module:
//!
//! * **oblivious** ([`SloConfig::joint_alloc`] `= false`): every tenant
//!   keeps its frontier cut and the pool is split equally — what a
//!   fleet of per-tenant planners unaware of each other would do;
//! * **joint** (`joint_alloc = true`): shares come from
//!   [`joint_allocate`] (water-filling + best-response over each
//!   tenant's [`RateFrontier::pieces`]) at the tenant's representative
//!   bandwidth, and the Normal rung at dispatch re-runs the same
//!   best-response per request — the cheapest cut structure *under the
//!   tenant's actual share*, at the request's actual bandwidth
//!   (counted in [`SloReport::joint_overrides`] when it differs from
//!   the contention-oblivious frontier cut).
//!
//! Every rung of the ladder walk prices contention honestly (`W / φ`
//! is part of the projected completion), so the EdfDegrade invariant
//! — admitted ⇒ hit — survives the cloud stage.
//!
//! # Determinism contract
//!
//! Request generation is a pure function of the tenant spec and the
//! [`SloConfig`]; the scheduling loop itself runs serially in virtual
//! time. One [`SloStreams`] owns a run: it generates the streams,
//! pooled across a [`WorkerPool`] and collected in tenant-id order
//! ([`SloStreams::generate`]) or serially in place
//! ([`SloStreams::regenerate`]), merges them once, and schedules them
//! under as many policies as asked. [`serve_slo`] and
//! [`serve_slo_serial`] are its one-policy forms, so the pooled report
//! is **byte-equal** to the serial one at any pool width. Each report
//! carries an FNV-1a digest folding every request's arrival, class,
//! ladder rung, dispatch and completion bits — equal digests ⇒
//! bit-identical schedules.
//!
//! # Dispatch path
//!
//! A request is 48 bytes: arrival, bandwidth and deadline, `u32`
//! tenant and seq, a `u8` class, and the frontier piece of each of the
//! three priced rungs. The pieces are resolved by the pooled per-tenant
//! generation once the stream is complete, on the frontier the stream
//! ended on — the frontier dispatch prices with — so pricing reads them
//! instead of searching the frontier per pick.
//!
//! Each tenant's stream is generated in arrival order, so the loop's
//! arrival order is a k-way merge of the streams through a head heap
//! keyed `(arrival, tenant, seq)`, built before the loop starts as a
//! compact list of `(tenant, seq)` pairs; the loop reads each request
//! in place as `streams[tenant][seq]`. Every outcome lands in slot
//! `off[tenant] + seq`, where `off` holds the prefix sums of the stream
//! lengths, so the digest fold and the report walk streams and slots
//! side by side without sorting anything. This is why every tenant's id
//! must be its position in the fleet.
//!
//! The hot path dispatches from indexed queues
//! ([`DispatchMode::Indexed`], the default): per-tenant deadline heaps
//! feed a cross-tenant [`BinaryHeap`] of tenant-head candidates keyed
//! `(over-share bit, deadline, priority, tenant, seq)`, with stale
//! entries discarded lazily at pop. Only a dispatch that charged
//! service can move an over-share bit, so only the pick after one
//! re-checks the tenants that are over their share *and* have queued
//! work. Ladder pricing is memoized per run in a table keyed `(tenant,
//! rung, frontier piece)`, and a rung whose lower bound misses the
//! deadline is skipped — the joint Normal rung when every piece its
//! best-response scan would try misses. A pick already past its
//! deadline is shed without pricing: no rung can complete before the
//! pick time. The pre-overhaul linear scan is retained as
//! [`DispatchMode::Reference`] and the two produce **byte-equal**
//! digests; the equivalence tests pin this zoo-wide at every pool
//! width. A [`SloStreams`] reuses the streams and every merge, queue,
//! memo, outcome and digest buffer across burst windows, and
//! [`SloStreams::stats`] reports per-run [`DispatchStats`].
//!
//! Observability: the scheduler exports `sched.*` counters (requests,
//! admissions, both shed causes and the expired subset of infeasible
//! sheds, degradations, deadline hits/misses, plus `sched.dispatch_ns`,
//! `sched.heap.*` and `sched.price_memo.*` from the indexed dispatcher,
//! and the wall time of generation, the merge and the summary) and
//! `sched.queue_depth` / `sched.slack_ms` / `sched.latency_ms` /
//! `sched.cloud.stage_ms` histograms through `mcdnn-obs`. The loop
//! records the histograms into its own [`mcdnn_obs::Histogram`]s, only
//! when the registry is enabled at the start of the run, and folds
//! them into the catalogue once per run with its counters. Report
//! percentiles are computed exactly from the recorded latencies, never
//! from histogram buckets, so they stay bit-stable.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use mcdnn_obs::{metrics, Histogram};
use mcdnn_partition::{
    joint_allocate, CutMix, JointTenant, PlanCache, PlanError, RateFrontier, RateProfile,
};
use mcdnn_profile::AdaptConfig;
use mcdnn_rng::{fnv_fold, Rng, FNV_OFFSET};
use mcdnn_runtime::WorkerPool;

use crate::adapt::{check_drift_adapt, DriftSpec};
use crate::degrade::LadderLevel;
use crate::serve::{fleet_with, UserSpec};
use crate::tenant::{cut_pair, Tenant};

/// Why a request could not be admitted — configuration and planning
/// failures surfaced by the admission layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdmitError {
    /// The tenant's frontier could not be compiled.
    Plan(PlanError),
    /// The [`SloConfig`] is internally inconsistent, or the fleet's
    /// tenant ids are not their positions (see [`SloTenant`]).
    BadConfig {
        /// What is broken, human-readable.
        what: &'static str,
    },
    /// No tenants were supplied.
    EmptyFleet,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Plan(e) => write!(f, "admission planning failed: {e}"),
            AdmitError::BadConfig { what } => write!(f, "bad SLO config: {what}"),
            AdmitError::EmptyFleet => write!(f, "SLO fleet has no tenants"),
        }
    }
}

impl std::error::Error for AdmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmitError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for AdmitError {
    fn from(e: PlanError) -> Self {
        AdmitError::Plan(e)
    }
}

/// One service class: how much slack a request of this class gets and
/// how it ranks against other classes at equal deadlines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloClass {
    /// Display name ("interactive", "standard", "batch", ...).
    pub name: &'static str,
    /// Deadline = arrival + `slack_factor` × the request's nominal
    /// unloaded service time (device + uplink at its own bandwidth).
    pub slack_factor: f64,
    /// Tie-break rank at equal deadlines; lower wins.
    pub priority: u8,
}

/// The seeded class mix requests draw from: each class paired with its
/// sampling weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// `(class, sampling weight)` pairs; weights need not sum to 1.
    pub classes: Vec<(SloClass, f64)>,
}

impl Default for SloSpec {
    /// Three-class mix: half interactive (tight 1.5× slack), a third
    /// standard, the rest batch (loose 8× slack).
    fn default() -> Self {
        SloSpec {
            classes: vec![
                (
                    SloClass {
                        name: "interactive",
                        slack_factor: 1.5,
                        priority: 0,
                    },
                    0.5,
                ),
                (
                    SloClass {
                        name: "standard",
                        slack_factor: 3.0,
                        priority: 1,
                    },
                    0.3,
                ),
                (
                    SloClass {
                        name: "batch",
                        slack_factor: 8.0,
                        priority: 2,
                    },
                    0.2,
                ),
            ],
        }
    }
}

impl SloSpec {
    /// Sample a class index from the weighted mix.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total: f64 = self.classes.iter().map(|(_, w)| w).sum();
        let mut x = rng.f64() * total;
        for (i, (_, w)) in self.classes.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        self.classes.len() - 1
    }
}

/// Front-end queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloPolicy {
    /// Arrival order, always the Normal rung, unbounded queue, no
    /// shedding — the baseline every serving stack starts from.
    Fifo,
    /// Earliest-deadline-first with per-tenant weighted fair queueing,
    /// a bounded queue that sheds on overflow, and ladder degradation
    /// before any infeasibility shed.
    EdfDegrade,
}

impl std::fmt::Display for SloPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SloPolicy::Fifo => "fifo",
            SloPolicy::EdfDegrade => "edf-degrade",
        })
    }
}

/// Knobs shared by every tenant of an SLO scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Requests each tenant offers before its stream ends.
    pub requests_per_tenant: usize,
    /// Lower edge of the compiled bandwidth range, Mbps.
    pub lo_mbps: f64,
    /// Upper edge of the compiled bandwidth range, Mbps.
    pub hi_mbps: f64,
    /// Offered uplink occupancy as a multiple of server capacity;
    /// 2.0 = the fleet offers twice what the shared link can carry.
    pub overload: f64,
    /// Queue bound for [`SloPolicy::EdfDegrade`]; arrivals past it are
    /// shed on the spot. FIFO ignores it (that is the point).
    pub max_queue: usize,
    /// The seeded class mix.
    pub spec: SloSpec,
    /// Seed for fleet generation; per-tenant streams derive from it.
    pub seed: u64,
    /// Shared cloud compute servers the fleet contends for. `0` (the
    /// default) models an infinitely fast cloud — the pre-contention
    /// behaviour, byte-identical digests included.
    pub cloud_servers: usize,
    /// Choose cuts and cloud shares jointly via
    /// [`joint_allocate`] instead of the contention-oblivious
    /// "frontier cut + equal split". Requires `cloud_servers >= 1`.
    pub joint_alloc: bool,
    /// Random walk on each tenant's true platform parameters. The
    /// virtual-time scheduler executes *beliefs*, so drift influences
    /// SLO outcomes only through adaptation: it feeds the estimator,
    /// and without [`SloConfig::adapt`] it is a no-op.
    pub drift: DriftSpec,
    /// Online profile learning: `Some` observes realized per-request
    /// timings in each tenant's stream and commits gated estimates at
    /// deterministic `commit_every` sequence boundaries, rebuilding the
    /// tenant's private belief under a bumped generation. Stream
    /// generation stays pure per tenant, so pooled and serial runs
    /// remain byte-equal. Adaptive regeneration is excluded from the
    /// warm arena's no-allocation contract.
    pub adapt: Option<AdaptConfig>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            requests_per_tenant: 50,
            lo_mbps: 1.0,
            hi_mbps: 100.0,
            overload: 2.0,
            max_queue: 64,
            spec: SloSpec::default(),
            seed: 0x510_5EED,
            cloud_servers: 0,
            joint_alloc: false,
            drift: DriftSpec::none(),
            adapt: None,
        }
    }
}

impl SloConfig {
    /// Check internal consistency, and the drift and adaptation
    /// settings as [`ServeConfig::validate`](crate::ServeConfig::validate)
    /// does; every serve entry point calls this.
    pub fn validate(&self) -> Result<(), AdmitError> {
        if self.requests_per_tenant == 0 {
            return Err(AdmitError::BadConfig {
                what: "requests_per_tenant must be >= 1",
            });
        }
        if !(self.lo_mbps > 0.0 && self.hi_mbps > self.lo_mbps) {
            return Err(AdmitError::BadConfig {
                what: "need 0 < lo_mbps < hi_mbps",
            });
        }
        if !self.overload.is_finite() || self.overload <= 0.0 {
            return Err(AdmitError::BadConfig {
                what: "overload must be > 0",
            });
        }
        if self.max_queue == 0 {
            return Err(AdmitError::BadConfig {
                what: "max_queue must be >= 1",
            });
        }
        let total: f64 = self.spec.classes.iter().map(|(_, w)| w).sum();
        if self.spec.classes.is_empty() || !total.is_finite() || total <= 0.0 {
            return Err(AdmitError::BadConfig {
                what: "SloSpec needs classes with positive total weight",
            });
        }
        for (c, w) in &self.spec.classes {
            if !c.slack_factor.is_finite() || c.slack_factor <= 0.0 || *w < 0.0 {
                return Err(AdmitError::BadConfig {
                    what: "class slack_factor must be > 0 and weights >= 0",
                });
            }
        }
        if self.joint_alloc && self.cloud_servers == 0 {
            return Err(AdmitError::BadConfig {
                what: "joint_alloc requires cloud_servers >= 1",
            });
        }
        if u32::try_from(self.requests_per_tenant).is_err() || self.spec.classes.len() > 256 {
            return Err(AdmitError::BadConfig {
                what: "requests_per_tenant must fit u32 and SloSpec may hold at most 256 classes",
            });
        }
        check_drift_adapt(&self.drift, self.adapt.as_ref())
            .map_err(|what| AdmitError::BadConfig { what })
    }
}

/// One tenant of the SLO fleet: a serving spec plus its fair-queueing
/// weight. A fleet's tenant ids must be their positions: `fleet[i]`
/// has `spec.id == i`, as [`slo_fleet`] builds them. Every entry point
/// rejects other fleets with [`AdmitError::BadConfig`].
#[derive(Debug, Clone)]
pub struct SloTenant {
    /// Model / strategy / burst-size / trace-seed, as in plain serving.
    pub spec: UserSpec,
    /// Weighted-fair-queueing share; a weight-2 tenant is entitled to
    /// twice the service of a weight-1 tenant before being deferred.
    pub weight: f64,
}

/// Generate a tenant fleet with [`crate::serve::fleet`]'s generator
/// (monotone profiles cycled; strategy, job count and trace seed drawn
/// from `config.seed`), adding a WFQ weight from {1, 2, 4} drawn after
/// each tenant's job count.
pub fn slo_fleet(profiles: &[RateProfile], tenants: usize, config: &SloConfig) -> Vec<SloTenant> {
    fleet_with(profiles, tenants, config.seed, |rng| {
        [1.0, 2.0, 4.0][rng.gen_range(0usize..3)]
    })
    .into_iter()
    .map(|(spec, weight)| SloTenant { spec, weight })
    .collect()
}

/// One offered request, fully determined by its tenant's seed, in the
/// 48 bytes the loop reads in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SloRequest {
    /// Arrival time, virtual ms.
    arrival_ms: f64,
    /// Link bandwidth the request observes, Mbps.
    bandwidth_mbps: f64,
    /// Absolute deadline, virtual ms.
    deadline_ms: f64,
    /// Owning tenant id.
    tenant: u32,
    /// Position in the tenant's stream.
    seq: u32,
    /// Frontier piece of each priced rung (the first three of
    /// [`LADDER`]) at this request's bandwidth, on the frontier its
    /// stream ended on; set once the stream is complete.
    pieces: [u32; 3],
    /// Index into [`SloSpec::classes`].
    class: u8,
}

impl SloRequest {
    #[inline]
    fn tenant(&self) -> usize {
        self.tenant as usize
    }

    #[inline]
    fn seq(&self) -> usize {
        self.seq as usize
    }

    #[inline]
    fn class(&self) -> usize {
        usize::from(self.class)
    }
}

/// What the scheduler did with one request: only what the request
/// itself does not already hold. It lives in the request's outcome
/// slot (see [`SchedState::slots`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    /// Rung the request executed at (Normal when admitted undegraded;
    /// meaningless when shed).
    level: LadderLevel,
    /// Completion time; `f64::INFINITY` when shed.
    completion_ms: f64,
    shed: bool,
    hit: bool,
}

/// Outcome recorded for a request shed before (queue full) or at
/// (no feasible rung) dispatch.
const SHED: Outcome = Outcome {
    level: LadderLevel::Normal,
    completion_ms: f64::INFINITY,
    shed: true,
    hit: false,
};

/// The ladder walked at dispatch, least degraded first. Deeper rungs
/// replan at a pessimistic bandwidth (mobile-heavier mix: more device
/// work, fewer uplink bytes); the last rung runs fully on-device.
const LADDER: [(LadderLevel, f64); 4] = [
    (LadderLevel::Normal, 1.0),
    (LadderLevel::Replanned, 0.5),
    (LadderLevel::Shifted, 0.1),
    (LadderLevel::MobileOnly, 0.0),
];

/// Price one rung for a request at actual bandwidth `b`: total device
/// ms, total uplink-occupancy ms, and total unit-speed cloud ms.
fn rung_cost(
    frontier: &RateFrontier,
    n_jobs: usize,
    level_frac: f64,
    b: f64,
    lo: f64,
    hi: f64,
) -> (f64, f64, f64) {
    let profile = frontier.profile();
    if level_frac == 0.0 {
        let k = profile.k();
        let d = profile.mix_mobile_ms(n_jobs, CutMix::Uniform { cut: k });
        return (d, 0.0, 0.0);
    }
    let mix = frontier.decide((b * level_frac).clamp(lo, hi));
    let d = profile.mix_mobile_ms(n_jobs, mix);
    let u = profile.mix_upload_ms(n_jobs, mix, b);
    let w = profile.mix_cloud_ms(n_jobs, mix);
    (d, u, w)
}

/// Generate one tenant's request stream into `out`, replacing what it
/// held. Pure in `(tenant, config)`: the stream never depends on
/// scheduling, which is what makes pooled generation byte-equal to
/// serial. Writing into a caller-owned buffer lets a warm
/// [`SloStreams::regenerate`] run without allocating (unless
/// [`SloConfig::adapt`] is set; adaptive regeneration builds an
/// estimator and beliefs, and walks their regimes).
///
/// Each request is one step of the tenant's [`Tenant`] core, so with
/// adaptation on the same drift → observe → commit → replan loop as
/// [`UserSession`](crate::serve::UserSession) runs inside this pure
/// per-tenant function: realized stage timings feed the estimator, and
/// a commit at a `commit_every` sequence boundary rebuilds the
/// tenant's private belief under a bumped generation, so the nominal
/// service times, and with them the deadlines, of later requests
/// reflect the adapted beliefs. The scheduler itself is untouched —
/// pooled/serial byte-equality is preserved by construction. Once the
/// stream is complete, the belief it ended on is walked in full, since
/// dispatch prices every piece of it; each request's rung pieces are
/// resolved on that frontier, which is returned. A gap, last arrival
/// or deadline that is not finite (an overload so small that the gap
/// overflows, say) is an [`AdmitError::BadConfig`].
fn tenant_requests_into(
    cache: &PlanCache,
    tenant: &SloTenant,
    fleet_size: usize,
    config: &SloConfig,
    out: &mut Vec<SloRequest>,
) -> Result<Arc<RateFrontier>, AdmitError> {
    let spec = &tenant.spec;
    let mut core = Tenant::start(
        cache,
        spec,
        config.lo_mbps,
        config.hi_mbps,
        &config.drift,
        config.adapt,
    )?;
    let mid = (config.lo_mbps * config.hi_mbps).sqrt();
    // Calibrate arrivals so the fleet's total offered uplink occupancy
    // is `overload` × server capacity: each tenant offers occupancy at
    // rate overload / fleet_size. Always from the factory profile, so
    // arrival processes are identical across adaptive and frozen runs.
    let mid_mix = core.decide(mid);
    let u_mid = spec
        .profile
        .mix_upload_ms(spec.n_jobs, mid_mix, mid)
        .max(0.5);
    let mean_gap = fleet_size as f64 * u_mid / config.overload;
    let bad_times = AdmitError::BadConfig {
        what: "request arrivals and deadlines must be finite (overload too small?)",
    };
    if !mean_gap.is_finite() {
        return Err(bad_times);
    }
    let mut arrival = 0.0;
    let mut deadlines_finite = true;
    out.clear();
    for seq in 0..config.requests_per_tenant {
        // Main-RNG order per request: arrival, bandwidth step, class.
        arrival += mean_gap * (0.5 + core.rng().f64());
        let bandwidth = core.step();
        let class = config.spec.sample(core.rng());
        let mix = core.decide(bandwidth);
        let believed = core.profile();
        // Nominal service is contention-free: cloud work counts at unit
        // server speed (φ = 1) when a pool exists at all, so deadlines
        // stay achievable unloaded and identical across share policies.
        let cloud_nominal = if config.cloud_servers > 0 {
            believed.mix_cloud_ms(spec.n_jobs, mix)
        } else {
            0.0
        };
        let nominal = believed.mix_mobile_ms(spec.n_jobs, mix)
            + believed.mix_upload_ms(spec.n_jobs, mix, bandwidth)
            + cloud_nominal;
        let slack = config.spec.classes[class].0.slack_factor;
        let deadline_ms = arrival + slack * nominal;
        deadlines_finite &= deadline_ms.is_finite();
        out.push(SloRequest {
            arrival_ms: arrival,
            bandwidth_mbps: bandwidth,
            deadline_ms,
            tenant: spec.id as u32,
            seq: seq as u32,
            pieces: [0; 3],
            class: class as u8,
        });
        if core.is_adapting() {
            // Realize only the stages that carry evidence (one jitter
            // draw each, in stage order), plus the cloud stage when a
            // pool runs it, then observe and maybe commit.
            let base = &spec.profile;
            let (cut1, cut2) = cut_pair(mix);
            let cut_types = 1 + usize::from(matches!(mix, CutMix::Mix { .. }));
            let mut stages = [0.0; 4];
            for (i, cut) in [cut1, cut2].into_iter().take(cut_types).enumerate() {
                if base.mobile_ms(cut) > 0.0 {
                    stages[2 * i] = core.realize_device(cut);
                }
                if base.bytes(cut) > 0 {
                    stages[2 * i + 1] = core.realize_upload(cut, bandwidth);
                }
            }
            let cloud = (config.cloud_servers > 0 && base.cloud_stage_ms(cut2) > 0.0)
                .then(|| core.realize_cloud());
            core.observe(mix, bandwidth, stages, cloud);
            core.commit()?;
        }
    }
    // Arrivals never decrease, so the last one is finite iff all are.
    if !(arrival.is_finite() && deadlines_finite) {
        return Err(bad_times);
    }
    let frontier = core.into_frontier();
    let (lo, hi) = (config.lo_mbps, config.hi_mbps);
    for r in out.iter_mut() {
        for (piece, (_, frac)) in r.pieces.iter_mut().zip(LADDER) {
            *piece = frontier
                .piece_index_at((r.bandwidth_mbps * frac).clamp(lo, hi))
                .expect("clamped bandwidth lies in the compiled range") as u32;
        }
    }
    Ok(frontier)
}

/// EDF + WFQ pop, linear-scan reference: pick the queued index to
/// dispatch next. On-share tenants go first in (deadline, priority)
/// order; tenants past their weighted share are deferred behind
/// everyone still under theirs. [`DispatchMode::Indexed`] computes the
/// same argmin from indexed queues; this O(n) scan is the semantic
/// ground truth the heap path is proven byte-equal against.
fn dispatch_reference(queue: &[SloRequest], classes: &[(SloClass, f64)], wfq: &Wfq) -> usize {
    let mut best = 0usize;
    let mut best_key = (u8::MAX, f64::INFINITY, u8::MAX, usize::MAX, usize::MAX);
    for (i, r) in queue.iter().enumerate() {
        let key = (
            u8::from(wfq.over(r.tenant())),
            r.deadline_ms,
            classes[r.class()].0.priority,
            r.tenant(),
            r.seq(),
        );
        if key < best_key {
            best = i;
            best_key = key;
        }
    }
    best
}

/// A run's weighted-fair-queueing accounting: the inputs of the
/// over-share predicate, shared by both dispatchers so they evaluate
/// the same float expression.
#[derive(Debug, Default)]
struct Wfq {
    /// Device + uplink ms served per tenant.
    service: Vec<f64>,
    weights: Vec<f64>,
    total_weight: f64,
    total_service: f64,
}

impl Wfq {
    fn reset(&mut self, tenants: &[SloTenant]) {
        self.weights.clear();
        self.weights.extend(tenants.iter().map(|t| t.weight));
        self.total_weight = self.weights.iter().sum();
        self.service.clear();
        self.service.resize(tenants.len(), 0.0);
        self.total_service = 0.0;
    }

    /// Whether tenant `t` has had more than its weighted share of
    /// service.
    #[inline]
    fn over(&self, t: usize) -> bool {
        self.service[t] * self.total_weight > self.total_service * self.weights[t]
    }

    /// Charge `ms` of service to tenant `t`.
    fn charge(&mut self, t: usize, ms: f64) {
        self.service[t] += ms;
        self.total_service += ms;
    }
}

/// Which dispatcher the scheduling loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Indexed queues: per-tenant deadline heaps + a cross-tenant
    /// candidate heap with lazy deletion, plus the per-run rung-pricing
    /// memo. The default everywhere.
    #[default]
    Indexed,
    /// The pre-overhaul O(queue) linear scan and per-request ladder
    /// repricing — kept as the bit-exactness reference and as the
    /// baseline the dispatch benchmarks measure against.
    Reference,
}

/// Hot-path accounting for one scheduling run, reported through
/// [`SloStreams::stats`]. Deliberately *not* part of [`SloReport`]: the
/// report is byte-compared across pool widths and dispatch modes, and
/// wall-clock nanoseconds would break that contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchStats {
    /// Wall-clock nanoseconds spent in the dispatch loop proper
    /// (admission, pick, pricing, settling). Mode-independent work —
    /// request generation, the k-way merge of the streams into arrival
    /// order, cloud share planning, the digest fold and report
    /// summarization — is excluded, so reference/indexed ratios
    /// compare exactly the code the overhaul replaced.
    pub schedule_ns: u64,
    /// Requests offered to the loop.
    pub requests: u64,
    /// Requests dispatched (admitted at some rung).
    pub dispatched: u64,
    /// Entries pushed across both heap levels (indexed mode only).
    pub heap_pushes: u64,
    /// Entries popped from the cross-tenant heap (indexed mode only).
    pub heap_pops: u64,
    /// Popped entries discarded as stale by lazy deletion — the head
    /// they indexed was already dispatched, shed, or changed its
    /// over-share bit (indexed mode only).
    pub heap_stale: u64,
    /// Rung pricings answered by the per-run memo (indexed mode only).
    pub memo_hits: u64,
    /// Rung pricings computed and installed (indexed mode only).
    pub memo_misses: u64,
    /// Rungs skipped because the memoized lower bound already misses
    /// the deadline (indexed mode only).
    pub memo_prunes: u64,
    /// Infeasible sheds picked after their deadline had passed, shed
    /// without pricing a rung (indexed mode only).
    pub expired_sheds: u64,
}

/// Map a finite, non-NaN deadline to a `u64` whose unsigned order
/// matches the `f64` order (the standard sign-flip total-order map).
/// Generated deadlines are always strictly positive; the map also
/// orders negatives correctly so the property tests can roam.
#[inline]
fn deadline_key(d: f64) -> u64 {
    let b = d.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Memoized price of one (tenant, rung, piece) key, or of one row of
/// a tenant's joint best-response scan: everything about the cut
/// structure that does not depend on the request's actual bandwidth.
/// The uplink term is recomputed per request from the cached mix with
/// the exact original expression, so completions stay bit-identical to
/// the reference path.
#[derive(Debug, Clone, Copy)]
struct RungSlot {
    /// Cut structure of the rung's frontier piece.
    mix: CutMix,
    /// Device prefix work, ms.
    d: f64,
    /// Stretched cloud-stage time `W / φ` (0 without a pool), ms.
    ct: f64,
    /// Uplink occupancy at `hi_mbps` — a bitwise-sound lower bound on
    /// the rung's uplink term at any in-range bandwidth (upload time is
    /// monotone nonincreasing in bandwidth, IEEE rounding included).
    u_lo: f64,
}

/// The reference closure `cloud_time` as a function, shared by both
/// dispatch paths so cached and fresh cloud terms are the same bits.
#[inline]
fn cloud_time_of(w: f64, phi: f64, cloud_servers: usize) -> f64 {
    if cloud_servers == 0 || w <= 0.0 {
        0.0
    } else if phi > 0.0 {
        w / phi
    } else {
        f64::INFINITY
    }
}

/// Per-tenant deadline heaps plus the cross-tenant candidate heap —
/// the indexed replacement for the linear scan, byte-equal by
/// construction:
///
/// * `tq[t]` is a min-heap on `(deadline, priority, seq)`, so its head
///   is exactly tenant `t`'s argmin under the reference key (the
///   `(tenant, seq)` tie-break only ever compares across tenants).
/// * `ready` holds one candidate per (tenant, head, over-bit)
///   generation, keyed `(over, deadline, priority, tenant, seq)` — the
///   reference key verbatim, with the WFQ over-share bit evaluated by
///   the same [`Wfq::over`] expression.
/// * Lazy deletion: a popped candidate is valid only if it still names
///   its tenant's current head *and* the tenant's current over-bit;
///   anything else is discarded (`heap_stale`). Invariant: every
///   tenant with queued work always has one valid candidate in
///   `ready`, because every event that changes a head or an over-bit
///   (admission, dispatch, shed, WFQ sweep) pushes a fresh entry.
/// * Only a tenant with queued work has a meaningful over-bit, and
///   `over_list` holds exactly the tenants whose bit is set. A tenant
///   whose queue empties leaves the list; when its queue refills,
///   [`Self::push`] re-derives its bit from the exact predicate.
/// * While a tenant's queue stays non-empty its bit only flips
///   under→over when it dispatches (its service grows faster than the
///   total), and over→under as total service grows; [`Self::sweep`]
///   applies the latter with the exact predicate before a pick. Only a
///   charge moves the totals, so a sweep is needed only before the
///   first pick after one: every bit on the list was set or checked at
///   the current totals.
#[derive(Debug, Default)]
struct IndexedQueue {
    tq: Vec<BinaryHeap<Reverse<TenantKey>>>,
    ready: BinaryHeap<Reverse<ReadyKey>>,
    over: Vec<bool>,
    over_list: Vec<usize>,
}

/// Per-tenant heap key: `(deadline, priority, seq)`.
type TenantKey = (u64, u8, u32);

/// Cross-tenant candidate key: `(over-bit, deadline, priority, tenant,
/// seq)` — the reference pick key.
type ReadyKey = (u8, u64, u8, u32, u32);

impl IndexedQueue {
    fn reset(&mut self, tenant_count: usize) {
        if self.tq.len() < tenant_count {
            self.tq.resize_with(tenant_count, BinaryHeap::new);
        }
        for q in &mut self.tq[..tenant_count] {
            q.clear();
        }
        self.ready.clear();
        self.over.clear();
        self.over.resize(tenant_count, false);
        self.over_list.clear();
    }

    /// Admit request `seq` of tenant `t`. A tenant whose queue was
    /// empty gets its over-bit re-derived first, at the service totals
    /// the next pick sees.
    fn push(
        &mut self,
        t: usize,
        seq: usize,
        deadline_ms: f64,
        priority: u8,
        wfq: &Wfq,
        stats: &mut DispatchStats,
    ) {
        let key = (deadline_key(deadline_ms), priority, seq as u32);
        let new_head = match self.tq[t].peek() {
            None => {
                self.set_over(t, wfq.over(t));
                true
            }
            Some(&Reverse(head)) => key < head,
        };
        self.tq[t].push(Reverse(key));
        stats.heap_pushes += 1;
        if new_head {
            self.push_head(t, stats);
        }
    }

    /// Re-candidate tenant `t`'s current head (after its previous head
    /// was dispatched or shed, or its over-bit changed).
    fn push_head(&mut self, t: usize, stats: &mut DispatchStats) {
        if let Some(&Reverse((dl, prio, seq))) = self.tq[t].peek() {
            self.ready
                .push(Reverse((u8::from(self.over[t]), dl, prio, t as u32, seq)));
            stats.heap_pushes += 1;
        }
    }

    /// Set tenant `t`'s over-bit, keeping `over_list` in step.
    fn set_over(&mut self, t: usize, over: bool) {
        if over != self.over[t] {
            self.over[t] = over;
            if over {
                self.over_list.push(t);
            } else if let Some(p) = self.over_list.iter().position(|&x| x == t) {
                self.over_list.swap_remove(p);
            }
        }
    }

    /// Apply passive over→under flips: total service only grows, so
    /// tenants marked over can fall back under their share without any
    /// action of their own. Checks the exact predicate for every
    /// queued over-share tenant.
    fn sweep(&mut self, wfq: &Wfq, stats: &mut DispatchStats) {
        let mut i = 0;
        while i < self.over_list.len() {
            let t = self.over_list[i];
            if wfq.over(t) {
                i += 1;
            } else {
                self.over[t] = false;
                self.over_list.swap_remove(i);
                self.push_head(t, stats);
            }
        }
    }

    /// Re-candidate tenant `t` after [`Self::pop_best`] took its head.
    /// A dispatch grew its service, so its over-bit is re-derived
    /// first; a tenant left with an empty queue leaves the over list.
    fn repost(&mut self, t: usize, dispatched: bool, wfq: &Wfq, stats: &mut DispatchStats) {
        if self.tq[t].is_empty() {
            self.set_over(t, false);
            return;
        }
        if dispatched {
            self.set_over(t, wfq.over(t));
        }
        self.push_head(t, stats);
    }

    /// Pop the dispatch argmin as `(tenant, seq)`: discard stale
    /// candidates until one still names its tenant's current head with
    /// the current over-bit, then pop that head. Equals the reference
    /// linear-scan argmin because valid candidates are exactly the
    /// per-tenant argmins under the reference key.
    fn pop_best(&mut self, stats: &mut DispatchStats) -> (usize, usize) {
        loop {
            let Reverse((ob, dl, prio, t, seq)) = self
                .ready
                .pop()
                .expect("indexed queue invariant: queued work implies a valid candidate");
            stats.heap_pops += 1;
            let t = t as usize;
            if u8::from(self.over[t]) == ob && self.tq[t].peek() == Some(&Reverse((dl, prio, seq)))
            {
                self.tq[t].pop();
                return (t, seq as usize);
            }
            stats.heap_stale += 1;
        }
    }
}

/// Reusable buffers for the scheduling loop. Everything the loop
/// touches per request lives here, so back-to-back burst windows on a
/// warm [`SloStreams`] neither allocate nor free (pinned by the
/// counting-allocator test).
#[derive(Debug, Default)]
struct SchedState {
    /// Every request as `(tenant, seq)`, in the loop's arrival order:
    /// ascending `(arrival, tenant, seq)`. Filled once per generation.
    order: Vec<(u32, u32)>,
    /// The k-way merge's heads, one `(arrival key, tenant, seq)` per
    /// stream not yet drained.
    heads: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// `off[t]` is tenant `t`'s first outcome slot: the prefix sums of
    /// the stream lengths, `tenants + 1` entries.
    off: Vec<usize>,
    /// Request `seq` of tenant `t` settles into `slots[off[t] + seq]`.
    /// The merge sizes it; every run writes each slot exactly once.
    slots: Vec<Outcome>,
    /// Reference-mode pending queue (linear scan).
    rq: Vec<SloRequest>,
    /// Indexed-mode EDF/WFQ queues.
    iq: IndexedQueue,
    wfq: Wfq,
    n_jobs: Vec<usize>,
    shares: Vec<f64>,
    /// Per-run rung-pricing memo, `rung_off[t]`-based rows of
    /// `LADDER × (pieces + 1 local)` slots.
    rung_slots: Vec<Option<RungSlot>>,
    rung_off: Vec<usize>,
    /// Per-tenant piece prices for the joint best-response scan.
    jp: Vec<Option<RungSlot>>,
    jp_off: Vec<usize>,
    /// Per-tenant outcome digests (digest-only runs).
    tdig: Vec<u64>,
    stats: DispatchStats,
}

/// Pick every tenant's static cloud share for the run, indexed by
/// tenant id (= position). With no pool
/// ([`SloConfig::cloud_servers`] `== 0`) all shares are zero and never
/// consulted. Oblivious mode splits the pool
/// equally (capped at one server-equivalent each); joint mode calls
/// [`joint_allocate`] at each tenant's representative bandwidth (the
/// geometric mean of its generated stream — a pure function of the
/// streams, so pooled and serial runs agree bit for bit).
fn cloud_share_plan(
    shares: &mut Vec<f64>,
    streams: &[Vec<SloRequest>],
    frontiers: &[Arc<RateFrontier>],
    tenants: &[SloTenant],
    config: &SloConfig,
) {
    shares.clear();
    if config.cloud_servers == 0 {
        shares.resize(tenants.len(), 0.0);
        return;
    }
    if config.joint_alloc {
        let joint_tenants: Vec<JointTenant<'_>> = streams
            .iter()
            .zip(frontiers)
            .zip(tenants)
            .map(|((stream, frontier), t)| {
                let sum_ln: f64 = stream.iter().map(|r| r.bandwidth_mbps.ln()).sum();
                let rep = (sum_ln / stream.len() as f64)
                    .exp()
                    .clamp(config.lo_mbps, config.hi_mbps);
                JointTenant {
                    frontier,
                    n_jobs: t.spec.n_jobs,
                    bandwidth_mbps: rep,
                }
            })
            .collect();
        let alloc = joint_allocate(&joint_tenants, config.cloud_servers as f64);
        shares.extend_from_slice(&alloc.shares);
    } else {
        let phi = (config.cloud_servers as f64 / tenants.len() as f64).min(1.0);
        shares.resize(tenants.len(), phi);
    }
    for s in shares.iter() {
        metrics::SCHED_CLOUD_SHARE.observe(*s);
    }
}

/// Mutable loop state shared by both dispatch modes, so the
/// settle-an-outcome step is literally the same code (same float
/// expressions, same tallies) whichever queue produced the pick. The
/// tallies and histograms go on to [`SloStreams::run`]'s once-per-run
/// flush, and the tallies to [`summarize`].
#[derive(Debug, Default)]
struct LoopCtx {
    server_free: f64,
    shed_queue_full: u64,
    shed_infeasible: u64,
    degraded: u64,
    hits: u64,
    cloud_requests: u64,
    cloud_busy_ms: f64,
    joint_overrides: u64,
    /// Whether the registry records, read once per run: the histograms
    /// below fill only when it does.
    record: bool,
    queue_depth: Histogram,
    slack_ms: Histogram,
    latency_ms: Histogram,
    cloud_stage_ms: Histogram,
}

impl LoopCtx {
    fn new() -> Self {
        LoopCtx {
            record: mcdnn_obs::enabled(),
            ..LoopCtx::default()
        }
    }
}

/// Commit one dispatch decision: advance the uplink, account service
/// and cloud occupancy, record the outcome in the request's slot.
/// Returns whether the request actually ran (false = infeasible shed).
fn settle(
    r: &SloRequest,
    chosen: Option<(LadderLevel, f64, f64, f64, f64, bool)>,
    cx: &mut LoopCtx,
    wfq: &mut Wfq,
    slot: &mut Outcome,
) -> bool {
    match chosen {
        Some((level, d, u, upload_end, completion, overridden)) => {
            if u > 0.0 {
                cx.server_free = upload_end;
            }
            if completion > upload_end {
                cx.cloud_busy_ms += completion - upload_end;
                cx.cloud_requests += 1;
                if cx.record {
                    cx.cloud_stage_ms.observe(completion - upload_end);
                }
            }
            if overridden {
                cx.joint_overrides += 1;
            }
            wfq.charge(r.tenant(), d + u);
            if level != LadderLevel::Normal {
                cx.degraded += 1;
            }
            let hit = completion <= r.deadline_ms;
            cx.hits += u64::from(hit);
            if cx.record {
                cx.latency_ms.observe(completion - r.arrival_ms);
            }
            *slot = Outcome {
                level,
                completion_ms: completion,
                shed: false,
                hit,
            };
            true
        }
        None => {
            cx.shed_infeasible += 1;
            *slot = SHED;
            false
        }
    }
}

/// Merge the per-tenant streams, each in arrival order, into the
/// loop's arrival order: `order` lists every request as `(tenant, seq)`
/// by ascending `(arrival, tenant, seq)`, the total order a sort of the
/// concatenated streams would produce. A T-entry head heap keyed the
/// same way makes it O(N log T). Also lays out the outcome slots:
/// `off` gets the prefix sums of the stream lengths and `slots` one
/// entry per request. [`check_run`] keeps the tenant count and the
/// stream lengths within the `u32` keys.
fn merge_streams(st: &mut SchedState, streams: &[Vec<SloRequest>]) {
    st.off.clear();
    st.off.push(0);
    st.heads.clear();
    for (t, s) in streams.iter().enumerate() {
        debug_assert!(
            s.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
            "tenant {t}'s stream is not in arrival order"
        );
        st.off.push(st.off[t] + s.len());
        if let Some(r) = s.first() {
            st.heads
                .push(Reverse((deadline_key(r.arrival_ms), t as u32, 0)));
        }
    }
    let total = st.off[streams.len()];
    st.order.clear();
    st.order.reserve(total);
    while let Some(mut head) = st.heads.peek_mut() {
        let Reverse((_, t, seq)) = *head;
        st.order.push((t, seq));
        match streams[t as usize].get(seq as usize + 1) {
            Some(r) => *head = Reverse((deadline_key(r.arrival_ms), t, seq + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    st.slots.clear();
    st.slots.resize(total, SHED);
}

/// The request at `order` entry `(tenant, seq)`.
#[inline]
fn at(streams: &[Vec<SloRequest>], (t, seq): (u32, u32)) -> &SloRequest {
    &streams[t as usize][seq as usize]
}

/// The pre-overhaul loop: linear-scan pick over a `Vec` queue and
/// direct per-request ladder repricing.
fn run_reference(
    st: &mut SchedState,
    streams: &[Vec<SloRequest>],
    frontiers: &[Arc<RateFrontier>],
    config: &SloConfig,
    policy: SloPolicy,
) -> LoopCtx {
    let mut cx = LoopCtx::new();
    let mut next = 0usize;
    let n = st.order.len();
    st.rq.clear();

    while next < n || !st.rq.is_empty() {
        while next < n && at(streams, st.order[next]).arrival_ms <= cx.server_free {
            let r = *at(streams, st.order[next]);
            if policy == SloPolicy::EdfDegrade && st.rq.len() >= config.max_queue {
                cx.shed_queue_full += 1;
                st.slots[st.off[r.tenant()] + r.seq()] = SHED;
            } else {
                st.rq.push(r);
            }
            next += 1;
        }
        if st.rq.is_empty() {
            if next >= n {
                break;
            }
            cx.server_free = at(streams, st.order[next]).arrival_ms;
            continue;
        }

        metrics::SCHED_QUEUE_DEPTH.observe(st.rq.len() as f64);
        let t = cx.server_free;
        let idx = match policy {
            SloPolicy::Fifo => 0, // `order` is arrival order and admits in order
            SloPolicy::EdfDegrade => dispatch_reference(&st.rq, &config.spec.classes, &st.wfq),
        };
        let r = st.rq.remove(idx);
        metrics::SCHED_SLACK_MS.observe((r.deadline_ms - t).max(0.0));

        // Walk the ladder: cheapest rung whose projected completion —
        // cloud contention included — fits the deadline. FIFO always
        // runs the Normal rung, deadline or not.
        let frontier = &frontiers[r.tenant()];
        let phi = st.shares[r.tenant()];
        // Stretched cloud-stage time under this tenant's static share;
        // a share of zero makes cloud-bearing rungs unservable, which
        // steers dispatch toward zero-cloud structures.
        let cloud_time = |w: f64| cloud_time_of(w, phi, config.cloud_servers);
        // (level, device, uplink, upload-end, completion, overridden)
        let mut chosen: Option<(LadderLevel, f64, f64, f64, f64, bool)> = None;
        for (level, frac) in LADDER {
            let (mut d, mut u, mut w) = rung_cost(
                frontier,
                st.n_jobs[r.tenant()],
                frac,
                r.bandwidth_mbps,
                config.lo_mbps,
                config.hi_mbps,
            );
            let mut overridden = false;
            if level == LadderLevel::Normal && config.joint_alloc && config.cloud_servers > 0 {
                // Joint dispatch: re-run the allocator's best-response
                // step per request — cheapest cut structure among the
                // frontier's pieces (plus local-only) priced at the
                // actual bandwidth under the tenant's actual share.
                let profile = frontier.profile();
                let nj = st.n_jobs[r.tenant()];
                let local = CutMix::Uniform { cut: profile.k() };
                let mut best = t.max(r.arrival_ms + d) + u + cloud_time(w);
                for &mix in frontier.pieces().iter().chain(std::iter::once(&local)) {
                    let dd = profile.mix_mobile_ms(nj, mix);
                    let uu = profile.mix_upload_ms(nj, mix, r.bandwidth_mbps);
                    let ww = profile.mix_cloud_ms(nj, mix);
                    let cc = t.max(r.arrival_ms + dd) + uu + cloud_time(ww);
                    if cc < best {
                        best = cc;
                        (d, u, w) = (dd, uu, ww);
                        overridden = true;
                    }
                }
            }
            let upload_end = t.max(r.arrival_ms + d) + u;
            let completion = upload_end + cloud_time(w);
            if policy == SloPolicy::Fifo || completion <= r.deadline_ms {
                chosen = Some((level, d, u, upload_end, completion, overridden));
                break;
            }
        }

        let slot = &mut st.slots[st.off[r.tenant()] + r.seq()];
        if settle(&r, chosen, &mut cx, &mut st.wfq, slot) {
            st.stats.dispatched += 1;
        }
    }

    cx
}

/// The overhauled loop: indexed EDF/WFQ pick (or the arrival order
/// itself for FIFO) plus memoized ladder pricing. Bit-identical
/// outcomes to [`run_reference`] — every float that reaches an outcome
/// is computed with the same expression tree on the same values. It
/// does only work that can change a pick: a pick already past its
/// deadline is shed unpriced, and the WFQ sweep runs only after a
/// dispatch has charged service.
fn run_indexed(
    st: &mut SchedState,
    streams: &[Vec<SloRequest>],
    frontiers: &[Arc<RateFrontier>],
    config: &SloConfig,
    policy: SloPolicy,
) -> LoopCtx {
    let tcount = st.wfq.weights.len();
    let mut cx = LoopCtx::new();
    // Whether a dispatch has charged service since the last sweep.
    let mut charged = false;
    // FIFO admits every arrival and pops the oldest, so its queue is
    // always `order[next - queued..next]`.
    let mut queued = 0usize;
    let mut next = 0usize;
    let n = st.order.len();
    st.iq.reset(tcount);

    // Size the per-run pricing memo: LADDER × (pieces + 1 local) slots
    // per tenant, plus the joint piece rows.
    st.rung_off.clear();
    st.jp_off.clear();
    let (mut roff, mut joff) = (0usize, 0usize);
    for f in frontiers {
        st.rung_off.push(roff);
        st.jp_off.push(joff);
        roff += LADDER.len() * (f.pieces().len() + 1);
        joff += f.pieces().len() + 1;
    }
    st.rung_off.push(roff);
    st.jp_off.push(joff);
    st.rung_slots.clear();
    st.rung_slots.resize(roff, None);
    st.jp.clear();
    st.jp.resize(joff, None);

    while next < n || queued > 0 {
        while next < n && at(streams, st.order[next]).arrival_ms <= cx.server_free {
            if policy == SloPolicy::EdfDegrade {
                let (tid, seq) = st.order[next];
                let (tid, seq) = (tid as usize, seq as usize);
                if queued >= config.max_queue {
                    cx.shed_queue_full += 1;
                    st.slots[st.off[tid] + seq] = SHED;
                } else {
                    let r = &streams[tid][seq];
                    let priority = config.spec.classes[r.class()].0.priority;
                    st.iq
                        .push(tid, seq, r.deadline_ms, priority, &st.wfq, &mut st.stats);
                    queued += 1;
                }
            } else {
                queued += 1;
            }
            next += 1;
        }
        if queued == 0 {
            if next >= n {
                break;
            }
            cx.server_free = at(streams, st.order[next]).arrival_ms;
            continue;
        }

        if cx.record {
            cx.queue_depth.observe(queued as f64);
        }
        let t = cx.server_free;
        let (tid, seq) = match policy {
            SloPolicy::Fifo => {
                let (tid, seq) = st.order[next - queued];
                (tid as usize, seq as usize)
            }
            SloPolicy::EdfDegrade => {
                // The over-share predicate reads only service totals,
                // which only a charge moves; `push` and `repost` derive
                // the bits they set at the current totals.
                if charged {
                    st.iq.sweep(&st.wfq, &mut st.stats);
                    charged = false;
                }
                st.iq.pop_best(&mut st.stats)
            }
        };
        queued -= 1;
        let r = &streams[tid][seq];
        if cx.record {
            cx.slack_ms.observe((r.deadline_ms - t).max(0.0));
        }

        // Every rung completes at `t.max(arrival + d) + u + ct` with
        // `u, ct >= 0`, and IEEE addition of a non-negative term never
        // decreases a value: a pick already past its deadline misses
        // on every rung, so the ladder walk is skipped.
        let chosen = if policy == SloPolicy::EdfDegrade && t > r.deadline_ms {
            st.stats.expired_sheds += 1;
            None
        } else {
            price_ladder(st, frontiers, config, policy, r, t)
        };
        let slot = &mut st.slots[st.off[tid] + seq];
        let dispatched = settle(r, chosen, &mut cx, &mut st.wfq, slot);
        if dispatched {
            st.stats.dispatched += 1;
            charged = true;
        }
        if policy == SloPolicy::EdfDegrade {
            // The popped head is gone: re-candidate the tenant's next
            // request, under the over-bit its dispatch may have flipped.
            st.iq.repost(tid, dispatched, &st.wfq, &mut st.stats);
        }
    }

    cx
}

/// Price one cut structure's slack-invariant terms for the memo.
fn price_mix(
    profile: &RateProfile,
    nj: usize,
    mix: CutMix,
    phi: f64,
    config: &SloConfig,
) -> RungSlot {
    RungSlot {
        mix,
        d: profile.mix_mobile_ms(nj, mix),
        ct: cloud_time_of(profile.mix_cloud_ms(nj, mix), phi, config.cloud_servers),
        u_lo: profile.mix_upload_ms(nj, mix, config.hi_mbps),
    }
}

/// Price one rung's slack-invariant terms for the memo. The mobile-only
/// rung has no uplink or cloud stage at all, as [`rung_cost`] prices it.
fn price_rung(
    frontier: &RateFrontier,
    nj: usize,
    frac: f64,
    piece: usize,
    phi: f64,
    config: &SloConfig,
) -> RungSlot {
    let profile = frontier.profile();
    if frac == 0.0 {
        let mix = CutMix::Uniform { cut: profile.k() };
        RungSlot {
            mix,
            d: profile.mix_mobile_ms(nj, mix),
            ct: 0.0,
            u_lo: 0.0,
        }
    } else {
        price_mix(profile, nj, frontier.pieces()[piece], phi, config)
    }
}

/// Memoized ladder walk — the indexed-mode replacement for the inline
/// rung loop in [`run_reference`]. Per request it reads each rung's
/// frontier piece off the request (resolved at generation), reuses the
/// memoized bandwidth-independent prices, recomputes only the uplink
/// term (with the exact reference expression), and prunes rungs whose
/// bitwise-sound lower bound already misses the deadline.
fn price_ladder(
    st: &mut SchedState,
    frontiers: &[Arc<RateFrontier>],
    config: &SloConfig,
    policy: SloPolicy,
    r: &SloRequest,
    t: f64,
) -> Option<(LadderLevel, f64, f64, f64, f64, bool)> {
    let tid = r.tenant();
    let frontier = &frontiers[tid];
    let profile = frontier.profile();
    let nj = st.n_jobs[tid];
    let phi = st.shares[tid];
    let pieces_len = frontier.pieces().len();
    let cols = pieces_len + 1;
    // Bitwise-sound lower bound on a cut structure's completion: the
    // completion expression below with `u` replaced by the smaller
    // memoized `u_lo`. IEEE addition rounds monotonically, so
    // lb <= completion.
    let lb = |s: &RungSlot| t.max(r.arrival_ms + s.d) + s.u_lo + s.ct;
    let (jlo, jhi) = (st.jp_off[tid], st.jp_off[tid + 1]);
    for (rung_idx, (level, frac)) in LADDER.iter().enumerate() {
        let piece = if *frac == 0.0 {
            pieces_len
        } else {
            r.pieces[rung_idx] as usize
        };
        let si = st.rung_off[tid] + rung_idx * cols + piece;
        let slot = match st.rung_slots[si] {
            Some(s) => {
                st.stats.memo_hits += 1;
                s
            }
            None => {
                st.stats.memo_misses += 1;
                let s = price_rung(frontier, nj, *frac, piece, phi, config);
                st.rung_slots[si] = Some(s);
                s
            }
        };
        let joint_normal =
            *level == LadderLevel::Normal && config.joint_alloc && config.cloud_servers > 0;
        if joint_normal {
            if st.jp[jlo].is_none() {
                st.stats.memo_misses += 1;
                for (k, row) in st.jp[jlo..jhi].iter_mut().enumerate() {
                    let mix = frontier
                        .pieces()
                        .get(k)
                        .copied()
                        .unwrap_or(CutMix::Uniform { cut: profile.k() });
                    *row = Some(price_mix(profile, nj, mix, phi, config));
                }
            } else {
                st.stats.memo_hits += 1;
            }
        }
        if policy == SloPolicy::EdfDegrade {
            // A pruned rung is exactly a rung the reference walk would
            // also reject. The joint Normal rung completes at the
            // minimum over the scan's rows, the frontier's own piece
            // among them, so it is pruned when every row's bound misses.
            let pruned = if joint_normal {
                st.jp[jlo..jhi]
                    .iter()
                    .all(|e| lb(e.as_ref().expect("joint rows filled above")) > r.deadline_ms)
            } else {
                lb(&slot) > r.deadline_ms
            };
            if pruned {
                st.stats.memo_prunes += 1;
                continue;
            }
        }
        let mut d = slot.d;
        let mut u = if *frac == 0.0 {
            0.0
        } else {
            profile.mix_upload_ms(nj, slot.mix, r.bandwidth_mbps)
        };
        let mut ct = slot.ct;
        let mut overridden = false;
        if joint_normal {
            // The reference best-response scan over pieces + local,
            // with the bandwidth-independent terms read from the memo.
            let mut best = t.max(r.arrival_ms + d) + u + ct;
            for e in &st.jp[jlo..jhi] {
                let e = e.as_ref().expect("joint rows filled above");
                let uu = profile.mix_upload_ms(nj, e.mix, r.bandwidth_mbps);
                let cc = t.max(r.arrival_ms + e.d) + uu + e.ct;
                if cc < best {
                    best = cc;
                    d = e.d;
                    u = uu;
                    ct = e.ct;
                    overridden = true;
                }
            }
        }
        let upload_end = t.max(r.arrival_ms + d) + u;
        let completion = upload_end + ct;
        if policy == SloPolicy::Fifo || completion <= r.deadline_ms {
            return Some((*level, d, u, upload_end, completion, overridden));
        }
    }
    None
}

/// Fold each tenant's outcomes — arrival, class, rung, completion and
/// hit bits in seq order — into one FNV-1a digest per tenant id
/// (`st.tdig`), handing every request and its outcome to `visit` in the
/// same pass. The slots are laid out tenant by tenant in stream order,
/// so streams and slots are walked side by side. Returns the fleet
/// digest: the tenant digests folded in id order. Allocation-free once
/// `tdig` is warm.
fn fold_digests(
    st: &mut SchedState,
    streams: &[Vec<SloRequest>],
    mut visit: impl FnMut(usize, &SloRequest, &Outcome),
) -> u64 {
    st.tdig.clear();
    let mut slots = st.slots.iter();
    for (t, stream) in streams.iter().enumerate() {
        let mut d = FNV_OFFSET;
        for (r, o) in stream.iter().zip(slots.by_ref()) {
            d = fnv_fold(d, r.seq as u64);
            d = fnv_fold(d, r.arrival_ms.to_bits());
            d = fnv_fold(d, r.class as u64);
            d = fnv_fold(d, o.level as u64);
            d = fnv_fold(d, o.completion_ms.to_bits());
            d = fnv_fold(d, u64::from(o.hit));
            visit(t, r, o);
        }
        st.tdig.push(d);
    }
    st.tdig.iter().enumerate().fold(FNV_OFFSET, |d, (id, td)| {
        fnv_fold(fnv_fold(d, id as u64), *td)
    })
}

/// Exact nearest-rank percentiles, each the value
/// [`mcdnn_obs::percentile_sorted`] reads off the sorted latencies, found
/// by selection instead of a full sort. `qs` must ascend: each
/// selection only searches above the previous rank. Reorders
/// `latencies`.
fn percentiles<const N: usize>(latencies: &mut [f64], qs: [f64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let mut lo = 0;
    for (v, q) in out.iter_mut().zip(qs) {
        let rank = mcdnn_obs::nearest_rank(latencies.len() as u64, q) as usize;
        if rank == 0 {
            continue;
        }
        // Equal under `total_cmp` means equal bits, so the value at a
        // rank is unique even where the order among equals is not.
        let (_, nth, _) = latencies[lo..].select_nth_unstable_by(rank - 1 - lo, f64::total_cmp);
        *v = *nth;
        lo = rank - 1;
    }
    out
}

fn summarize(
    st: &mut SchedState,
    streams: &[Vec<SloRequest>],
    tenants: &[SloTenant],
    config: &SloConfig,
    policy: SloPolicy,
    tallies: LoopCtx,
) -> SloReport {
    let start = Instant::now();
    let mut per_tenant: Vec<TenantSloSummary> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantSloSummary {
            id: t.spec.id,
            model: t.spec.profile.name().to_string(),
            weight: t.weight,
            cloud_share: st.shares[i],
            requests: 0,
            admitted: 0,
            shed: 0,
            degraded: 0,
            hits: 0,
            hit_rate: 0.0,
            mean_latency_ms: 0.0,
            digest: FNV_OFFSET,
        })
        .collect();

    let mut classes: Vec<ClassSummary> = config
        .spec
        .classes
        .iter()
        .map(|(c, _)| ClassSummary {
            name: c.name,
            requests: 0,
            hits: 0,
            hit_rate: 0.0,
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::with_capacity(st.slots.len());
    let (mut admitted, mut hits) = (0u64, 0u64);
    let digest = fold_digests(st, streams, |tid, r, o| {
        let t = &mut per_tenant[tid];
        t.requests += 1;
        classes[r.class()].requests += 1;
        if o.shed {
            t.shed += 1;
            return;
        }
        admitted += 1;
        t.admitted += 1;
        if o.level != LadderLevel::Normal {
            t.degraded += 1;
        }
        let latency = o.completion_ms - r.arrival_ms;
        t.mean_latency_ms += latency;
        latencies.push(latency);
        if o.hit {
            hits += 1;
            t.hits += 1;
            classes[r.class()].hits += 1;
        }
    });
    for (t, digest) in per_tenant.iter_mut().zip(&st.tdig) {
        t.digest = *digest;
        if t.admitted > 0 {
            t.mean_latency_ms /= t.admitted as f64;
        }
        if t.requests > 0 {
            t.hit_rate = t.hits as f64 / t.requests as f64;
        }
    }
    for c in &mut classes {
        if c.requests > 0 {
            c.hit_rate = c.hits as f64 / c.requests as f64;
        }
    }
    let [p50, p95, p99] = percentiles(&mut latencies, [0.50, 0.95, 0.99]);

    let total = st.slots.len() as u64;
    metrics::SCHED_SUMMARY_NS.add(start.elapsed().as_nanos() as u64);
    SloReport {
        policy,
        cloud_servers: config.cloud_servers,
        joint_alloc: config.joint_alloc,
        total_requests: total,
        admitted,
        shed_queue_full: tallies.shed_queue_full,
        shed_infeasible: tallies.shed_infeasible,
        degraded: tallies.degraded,
        cloud_busy_ms: tallies.cloud_busy_ms,
        joint_overrides: tallies.joint_overrides,
        deadline_hits: hits,
        hit_rate: if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
        p50_latency_ms: p50,
        p95_latency_ms: p95,
        p99_latency_ms: p99,
        tenants: per_tenant,
        classes,
        digest,
    }
}

/// One tenant's completed scheduling history.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSloSummary {
    /// Fleet-wide tenant id.
    pub id: usize,
    /// Model name (display only).
    pub model: String,
    /// WFQ weight.
    pub weight: f64,
    /// Static cloud-pool share `φ` the tenant held for the run; `0`
    /// when no pool is configured or the joint allocator kept the
    /// tenant fully on-device.
    pub cloud_share: f64,
    /// Requests offered.
    pub requests: u64,
    /// Requests that ran (any rung).
    pub admitted: u64,
    /// Requests shed (queue overflow or infeasible deadline).
    pub shed: u64,
    /// Admitted requests that ran below the Normal rung.
    pub degraded: u64,
    /// Requests that met their deadline.
    pub hits: u64,
    /// `hits / requests` (sheds count as misses).
    pub hit_rate: f64,
    /// Mean completion − arrival over admitted requests, ms.
    pub mean_latency_ms: f64,
    /// FNV-1a digest of the tenant's request outcomes in seq order.
    pub digest: u64,
}

/// Per-class deadline accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSummary {
    /// Class name from the [`SloSpec`].
    pub name: &'static str,
    /// Requests of this class offered.
    pub requests: u64,
    /// Requests of this class that met their deadline.
    pub hits: u64,
    /// `hits / requests`.
    pub hit_rate: f64,
}

/// A completed SLO scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Queue discipline that produced this report.
    pub policy: SloPolicy,
    /// Cloud pool size the run contended for (0 = uncontended model).
    pub cloud_servers: usize,
    /// Whether shares and Normal-rung cuts came from [`joint_allocate`].
    pub joint_alloc: bool,
    /// Requests offered across the fleet.
    pub total_requests: u64,
    /// Requests that ran (any rung).
    pub admitted: u64,
    /// Arrivals shed because the bounded queue was full.
    pub shed_queue_full: u64,
    /// Dispatches shed because no ladder rung fit the slack.
    pub shed_infeasible: u64,
    /// Admitted requests that ran below the Normal rung.
    pub degraded: u64,
    /// Total stretched cloud-stage time served, ms (`Σ W / φ` over
    /// admitted cloud-bearing requests).
    pub cloud_busy_ms: f64,
    /// Normal-rung dispatches where joint pricing moved the cut off
    /// the contention-oblivious frontier choice.
    pub joint_overrides: u64,
    /// Requests that met their deadline.
    pub deadline_hits: u64,
    /// `deadline_hits / total_requests` (sheds count as misses).
    pub hit_rate: f64,
    /// Median completion − arrival over admitted requests, ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile latency, ms (nearest-rank, exact).
    pub p95_latency_ms: f64,
    /// 99th-percentile latency, ms (nearest-rank, exact).
    pub p99_latency_ms: f64,
    /// Per-tenant summaries in id order.
    pub tenants: Vec<TenantSloSummary>,
    /// Per-class deadline accounting, in [`SloSpec`] order.
    pub classes: Vec<ClassSummary>,
    /// FNV-1a fold of the tenant digests in id order.
    pub digest: u64,
}

/// Validate the run's inputs; every entry point starts here.
fn check_run(tenants: &[SloTenant], config: &SloConfig) -> Result<(), AdmitError> {
    config.validate()?;
    if tenants.is_empty() {
        return Err(AdmitError::EmptyFleet);
    }
    if tenants.iter().enumerate().any(|(i, t)| t.spec.id != i) {
        return Err(AdmitError::BadConfig {
            what: "tenant ids must be their fleet positions 0..n",
        });
    }
    if u32::try_from(tenants.len()).is_err() {
        return Err(AdmitError::BadConfig {
            what: "tenant count must fit u32",
        });
    }
    Ok(())
}

/// Schedule the fleet with per-tenant request generation fanned out
/// across a persistent [`WorkerPool`], dispatching through the
/// [`DispatchMode::Indexed`] queues. Generation results come back in
/// tenant-id order and the scheduling loop is serial virtual time, so
/// the report is **byte-identical** to [`serve_slo_serial`] at any
/// worker count (the equivalence tests pin this).
pub fn serve_slo(
    pool: &WorkerPool,
    cache: &Arc<PlanCache>,
    tenants: &[SloTenant],
    config: &SloConfig,
    policy: SloPolicy,
) -> Result<SloReport, AdmitError> {
    SloStreams::generate(pool, cache, tenants, config)?.schedule(
        tenants,
        config,
        policy,
        DispatchMode::Indexed,
    )
}

/// Schedule the fleet serially on the calling thread — the reference
/// the pooled path is compared against.
pub fn serve_slo_serial(
    cache: &PlanCache,
    tenants: &[SloTenant],
    config: &SloConfig,
    policy: SloPolicy,
) -> Result<SloReport, AdmitError> {
    let mut run = SloStreams::default();
    run.regenerate(cache, tenants, config)?;
    run.schedule(tenants, config, policy, DispatchMode::Indexed)
}

/// One SLO run: every tenant's request stream and the frontier it
/// ended on, merged once into the loop's arrival order, plus every
/// buffer the scheduling loop reuses. Generate it across a
/// [`WorkerPool`] ([`SloStreams::generate`]) or serially into the kept
/// buffers ([`SloStreams::regenerate`]), then schedule it under as
/// many policies and [`DispatchMode`]s as needed. Generation never
/// depends on scheduling, so each [`SloStreams::schedule`] is
/// **byte-equal** to a [`serve_slo`] call with the same fleet, config
/// and policy, while an adaptive fleet compiles each replan once
/// instead of once per policy compared.
///
/// The run owns neither the fleet nor the config: scheduling borrows
/// the ones the streams were generated from, of which only
/// [`SloConfig::joint_alloc`] and [`SloConfig::max_queue`] may change
/// between calls. Warm [`SloStreams::regenerate`] +
/// [`SloStreams::digest`] calls on a fleet of stable shape reuse every
/// buffer and allocate nothing (pinned by the counting-allocator
/// test), except for adaptive regeneration and the `joint_alloc` share
/// planner, which build fresh state per run by design.
#[derive(Debug, Default)]
pub struct SloStreams {
    streams: Vec<Vec<SloRequest>>,
    frontiers: Vec<Arc<RateFrontier>>,
    sched: SchedState,
}

impl SloStreams {
    /// Generate every tenant's stream across `pool`, byte-equal to
    /// [`SloStreams::regenerate`] at any width. Each stream is
    /// allocated at its final length, and the tasks' copy of the fleet
    /// is dropped with them, before any scheduling.
    pub fn generate(
        pool: &WorkerPool,
        cache: &Arc<PlanCache>,
        tenants: &[SloTenant],
        config: &SloConfig,
    ) -> Result<SloStreams, AdmitError> {
        check_run(tenants, config)?;
        let start = Instant::now();
        let shared: Arc<Vec<SloTenant>> = Arc::new(tenants.to_vec());
        let cache_ref = Arc::clone(cache);
        let config_ref = Arc::new(config.clone());
        let fleet_size = shared.len();
        let results = pool.run_indexed(fleet_size, move |i| {
            let mut out = Vec::with_capacity(config_ref.requests_per_tenant);
            tenant_requests_into(&cache_ref, &shared[i], fleet_size, &config_ref, &mut out)
                .map(|frontier| (out, frontier))
        });
        let mut run = SloStreams {
            streams: Vec::with_capacity(results.len()),
            frontiers: Vec::with_capacity(results.len()),
            sched: SchedState::default(),
        };
        for r in results {
            let (s, f) = r?;
            run.streams.push(s);
            run.frontiers.push(f);
        }
        run.merge(start);
        Ok(run)
    }

    /// Regenerate every tenant's stream serially on the calling thread,
    /// reusing the per-tenant buffers. If a tenant's stream fails to
    /// generate, [`SloStreams::schedule`] rejects every fleet until the
    /// next successful generation.
    pub fn regenerate(
        &mut self,
        cache: &PlanCache,
        tenants: &[SloTenant],
        config: &SloConfig,
    ) -> Result<(), AdmitError> {
        check_run(tenants, config)?;
        let start = Instant::now();
        self.streams.resize_with(tenants.len(), Vec::new);
        self.frontiers.clear();
        for (t, out) in tenants.iter().zip(&mut self.streams) {
            self.frontiers
                .push(tenant_requests_into(cache, t, tenants.len(), config, out)?);
        }
        self.merge(start);
        Ok(())
    }

    /// Close a generation begun at `start`: the one merge into the
    /// loop's arrival order, which also sizes the outcome slots.
    fn merge(&mut self, start: Instant) {
        metrics::SCHED_GENERATE_NS.add(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        merge_streams(&mut self.sched, &self.streams);
        metrics::SCHED_MERGE_NS.add(start.elapsed().as_nanos() as u64);
    }

    /// Schedule the streams under `policy` through the `mode`
    /// dispatcher and build the report. `tenants` and `config` are the
    /// ones the streams were generated from (see [`SloStreams`]); a
    /// fleet of another size is an [`AdmitError::BadConfig`].
    pub fn schedule(
        &mut self,
        tenants: &[SloTenant],
        config: &SloConfig,
        policy: SloPolicy,
        mode: DispatchMode,
    ) -> Result<SloReport, AdmitError> {
        let tallies = self.run(tenants, config, policy, mode)?;
        Ok(summarize(
            &mut self.sched,
            &self.streams,
            tenants,
            config,
            policy,
            tallies,
        ))
    }

    /// [`SloStreams::schedule`] folding the outcome digest **without
    /// building a report**: the hot path the counting-allocator test
    /// pins to zero heap traffic. The digest is the same FNV-1a fold
    /// [`SloReport::digest`] carries, so a digest mismatch between
    /// modes is exactly a report mismatch.
    pub fn digest(
        &mut self,
        tenants: &[SloTenant],
        config: &SloConfig,
        policy: SloPolicy,
        mode: DispatchMode,
    ) -> Result<u64, AdmitError> {
        self.run(tenants, config, policy, mode)?;
        Ok(fold_digests(&mut self.sched, &self.streams, |_, _, _| {}))
    }

    /// Dispatch-path statistics of the most recent schedule or digest.
    pub fn stats(&self) -> DispatchStats {
        self.sched.stats
    }

    /// Run the virtual-time scheduling loop over the merged streams.
    /// Serial by construction — this *is* the deterministic core. Both
    /// dispatch modes produce bit-identical outcomes (the equivalence
    /// tests pin it); only the queue structures — and therefore the
    /// wall-clock cost — differ.
    fn run(
        &mut self,
        tenants: &[SloTenant],
        config: &SloConfig,
        policy: SloPolicy,
        mode: DispatchMode,
    ) -> Result<LoopCtx, AdmitError> {
        check_run(tenants, config)?;
        if self.streams.len() != tenants.len() || self.frontiers.len() != tenants.len() {
            return Err(AdmitError::BadConfig {
                what: "the fleet must be the one the streams were generated for",
            });
        }
        let (st, streams, frontiers) = (&mut self.sched, &self.streams, &self.frontiers);
        st.stats = DispatchStats::default();
        st.wfq.reset(tenants);
        st.n_jobs.clear();
        st.n_jobs.extend(tenants.iter().map(|t| t.spec.n_jobs));
        cloud_share_plan(&mut st.shares, streams, frontiers, tenants, config);

        // Time the dispatch loop alone: share planning above is
        // mode-independent setup and would dilute the
        // indexed-vs-reference ratio identically on both sides.
        let start = Instant::now();
        let tallies = match mode {
            DispatchMode::Reference => run_reference(st, streams, frontiers, config, policy),
            DispatchMode::Indexed => run_indexed(st, streams, frontiers, config, policy),
        };
        st.stats.requests = st.order.len() as u64;
        st.stats.schedule_ns = start.elapsed().as_nanos() as u64;
        // The loop tallies its outcomes anyway: flush them once per run.
        let admitted = st.stats.dispatched;
        metrics::SCHED_REQUESTS.add(st.stats.requests);
        metrics::SCHED_ADMITTED.add(admitted);
        metrics::SCHED_DEADLINE_HITS.add(tallies.hits);
        metrics::SCHED_DEADLINE_MISSES.add(admitted - tallies.hits + tallies.shed_infeasible);
        metrics::SCHED_DEGRADED.add(tallies.degraded);
        metrics::SCHED_SHED_INFEASIBLE.add(tallies.shed_infeasible);
        metrics::SCHED_SHED_EXPIRED.add(st.stats.expired_sheds);
        metrics::SCHED_SHED_QUEUE_FULL.add(tallies.shed_queue_full);
        metrics::SCHED_CLOUD_REQUESTS.add(tallies.cloud_requests);
        metrics::SCHED_CLOUD_JOINT_OVERRIDES.add(tallies.joint_overrides);
        metrics::SCHED_DISPATCH_NS.add(st.stats.schedule_ns);
        metrics::SCHED_HEAP_PUSHES.add(st.stats.heap_pushes);
        metrics::SCHED_HEAP_POPS.add(st.stats.heap_pops);
        metrics::SCHED_HEAP_STALE.add(st.stats.heap_stale);
        metrics::SCHED_PRICE_MEMO_HITS.add(st.stats.memo_hits);
        metrics::SCHED_PRICE_MEMO_MISSES.add(st.stats.memo_misses);
        metrics::SCHED_PRICE_MEMO_PRUNES.add(st.stats.memo_prunes);
        metrics::SCHED_QUEUE_DEPTH.absorb(&tallies.queue_depth);
        metrics::SCHED_SLACK_MS.absorb(&tallies.slack_ms);
        metrics::SCHED_LATENCY_MS.absorb(&tallies.latency_ms);
        metrics::SCHED_CLOUD_STAGE_MS.absorb(&tallies.cloud_stage_ms);
        Ok(tallies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_partition::Strategy;

    fn test_profiles() -> Vec<RateProfile> {
        vec![
            RateProfile::from_parts(
                "alpha",
                vec![0.0, 4.0, 7.0, 20.0],
                vec![120_000, 60_000, 20_000, 0],
                2.0,
                None,
            )
            .unwrap(),
            RateProfile::from_parts(
                "beta",
                vec![0.0, 2.0, 9.0, 11.0, 15.0],
                vec![200_000, 90_000, 40_000, 10_000, 0],
                1.0,
                None,
            )
            .unwrap(),
        ]
    }

    fn test_config() -> SloConfig {
        SloConfig {
            requests_per_tenant: 60,
            overload: 2.0,
            ..SloConfig::default()
        }
    }

    /// Profiles whose suffixes carry real cloud compute, so a finite
    /// pool has something to contend over.
    fn cloudy_profiles() -> Vec<RateProfile> {
        vec![
            RateProfile::from_parts(
                "gamma",
                vec![0.0, 4.0, 7.0, 20.0],
                vec![120_000, 60_000, 20_000, 0],
                2.0,
                Some(vec![9.0, 6.0, 3.0, 0.0]),
            )
            .unwrap(),
            RateProfile::from_parts(
                "delta",
                vec![0.0, 2.0, 9.0, 11.0, 15.0],
                vec![200_000, 90_000, 40_000, 10_000, 0],
                1.0,
                Some(vec![12.0, 10.0, 5.0, 2.0, 0.0]),
            )
            .unwrap(),
        ]
    }

    #[test]
    fn request_streams_are_deterministic() {
        let config = test_config();
        let fleet = slo_fleet(&test_profiles(), 6, &config);
        let cache = PlanCache::new();
        let a = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        let b = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.digest, FNV_OFFSET);
    }

    #[test]
    fn pooled_report_is_byte_equal_to_serial_at_any_width() {
        let config = test_config();
        let fleet = slo_fleet(&test_profiles(), 10, &config);
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let serial_cache = PlanCache::new();
            let serial = serve_slo_serial(&serial_cache, &fleet, &config, policy).unwrap();
            for workers in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(workers);
                let cache = Arc::new(PlanCache::new());
                let pooled = serve_slo(&pool, &cache, &fleet, &config, policy).unwrap();
                assert_eq!(serial, pooled, "policy={policy} workers={workers}");
            }
        }
    }

    fn adapt_config() -> SloConfig {
        SloConfig {
            requests_per_tenant: 80,
            cloud_servers: 2,
            drift: DriftSpec {
                device_walk: 0.08,
                cloud_walk: 0.05,
                link_walk: 0.04,
                jitter: 0.02,
                ..DriftSpec::none()
            },
            adapt: Some(AdaptConfig::default()),
            ..SloConfig::default()
        }
    }

    #[test]
    fn adaptive_pooled_report_is_byte_equal_to_serial_at_any_width() {
        let config = adapt_config();
        let fleet = slo_fleet(&cloudy_profiles(), 8, &config);
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let serial_cache = PlanCache::new();
            let serial = serve_slo_serial(&serial_cache, &fleet, &config, policy).unwrap();
            // Pinned: the adaptive, jittered schedule of this fleet. Any
            // change to draw order or estimator feeds moves it.
            let pinned = match policy {
                SloPolicy::Fifo => 0x3f30_7c56_f98e_e2c2,
                SloPolicy::EdfDegrade => 0x65ef_ca49_9f30_04bd,
            };
            assert_eq!(serial.digest, pinned, "policy={policy}");
            for workers in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(workers);
                let cache = Arc::new(PlanCache::new());
                let pooled = serve_slo(&pool, &cache, &fleet, &config, policy).unwrap();
                assert_eq!(serial, pooled, "policy={policy} workers={workers}");
            }
        }
    }

    #[test]
    fn streams_generated_once_schedule_like_serve_slo() {
        let config = adapt_config();
        let fleet = slo_fleet(&cloudy_profiles(), 8, &config);
        let pool = WorkerPool::new(2);
        let cache = Arc::new(PlanCache::new());
        let mut streams = SloStreams::generate(&pool, &cache, &fleet, &config).unwrap();
        let (fifo, edf) = (SloPolicy::Fifo, SloPolicy::EdfDegrade);
        let indexed = DispatchMode::Indexed;
        for (policy, joint_alloc) in [(fifo, false), (edf, false), (edf, true)] {
            let run_config = SloConfig {
                joint_alloc,
                ..config.clone()
            };
            let direct = serve_slo_serial(&PlanCache::new(), &fleet, &run_config, policy).unwrap();
            let scheduled = streams.schedule(&fleet, &run_config, policy, indexed);
            assert_eq!(scheduled, Ok(direct), "policy={policy} joint={joint_alloc}");
        }
        // Only the fleet the streams were generated for schedules.
        let bad = |r: Result<SloReport, _>| matches!(r, Err(AdmitError::BadConfig { .. }));
        assert!(bad(streams.schedule(&fleet[..7], &config, fifo, indexed)));
        let mut empty = SloStreams::default();
        assert!(bad(empty.schedule(&fleet, &config, fifo, indexed)));
        let no_pool = SloConfig {
            cloud_servers: 0,
            ..config
        };
        let mut streams = SloStreams::generate(&pool, &cache, &fleet, &no_pool).unwrap();
        let joint = SloConfig {
            joint_alloc: true,
            ..no_pool
        };
        assert!(bad(streams.schedule(&fleet, &joint, edf, indexed)));
    }

    #[test]
    fn zero_drift_adaptation_leaves_the_schedule_byte_identical() {
        let mut config = test_config();
        let fleet = slo_fleet(&test_profiles(), 6, &config);
        let off = serve_slo_serial(&PlanCache::new(), &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        config.adapt = Some(AdaptConfig::default());
        let on = serve_slo_serial(&PlanCache::new(), &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        assert_eq!(off, on, "ratios of exactly 1.0 never cross the commit gate");
    }

    #[test]
    fn drift_reaches_the_schedule_only_through_adaptation() {
        let config = adapt_config();
        let fleet = slo_fleet(&cloudy_profiles(), 6, &config);
        let adaptive =
            serve_slo_serial(&PlanCache::new(), &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        let frozen_config = SloConfig {
            adapt: None,
            ..config.clone()
        };
        let frozen =
            serve_slo_serial(&PlanCache::new(), &fleet, &frozen_config, SloPolicy::EdfDegrade)
                .unwrap();
        // Without adaptation drift is invisible to the virtual-time
        // scheduler (it executes beliefs)...
        let no_drift = SloConfig {
            drift: DriftSpec::none(),
            ..frozen_config
        };
        let believed =
            serve_slo_serial(&PlanCache::new(), &fleet, &no_drift, SloPolicy::EdfDegrade).unwrap();
        assert_eq!(frozen, believed, "drift without adaptation is a no-op");
        // ...while adaptive commits re-shape nominal times and deadlines.
        assert_ne!(
            adaptive.digest, frozen.digest,
            "gated commits must reach the schedule"
        );
    }

    #[test]
    fn rung_pieces_are_resolved_on_the_frontier_the_stream_ends_on() {
        // Returns (tenants that replanned, requests whose pieces differ
        // on the factory frontier).
        let check = |config: &SloConfig, fleet: &[SloTenant]| -> (usize, usize) {
            let cache = PlanCache::new();
            let (lo, hi) = (config.lo_mbps, config.hi_mbps);
            let (mut replanned, mut moved) = (0, 0);
            for tenant in fleet {
                let spec = &tenant.spec;
                let mut stream = Vec::new();
                let ended_on =
                    tenant_requests_into(&cache, tenant, fleet.len(), config, &mut stream).unwrap();
                let factory = cache
                    .frontier(&spec.profile, spec.strategy, spec.n_jobs, lo, hi)
                    .unwrap();
                replanned += usize::from(!Arc::ptr_eq(&ended_on, &factory));
                for r in &stream {
                    let at = |f: &RateFrontier| -> Vec<u32> {
                        LADDER[..3]
                            .iter()
                            .map(|(_, frac)| {
                                let b = (r.bandwidth_mbps * frac).clamp(lo, hi);
                                f.piece_index_at(b).unwrap() as u32
                            })
                            .collect()
                    };
                    assert_eq!(r.pieces[..], at(&ended_on)[..], "tenant {}", spec.id);
                    moved += usize::from(r.pieces[..] != at(&factory)[..]);
                }
            }
            (replanned, moved)
        };
        // A frozen tenant ends on the factory frontier it started with.
        let frozen = test_config();
        assert_eq!(
            check(&frozen, &slo_fleet(&test_profiles(), 4, &frozen)),
            (0, 0)
        );
        // An adaptive tenant replans mid-stream, and the pieces of its
        // earlier requests are read off the frontier it ended on.
        let adaptive = adapt_config();
        let (replanned, moved) = check(&adaptive, &slo_fleet(&cloudy_profiles(), 6, &adaptive));
        assert!(replanned > 0, "drift must trigger a replan");
        assert!(moved > 0, "a replan must move some rung piece");
    }

    #[test]
    fn edf_with_degradation_beats_fifo_under_overload() {
        let config = test_config();
        let fleet = slo_fleet(&test_profiles(), 8, &config);
        let cache = PlanCache::new();
        let fifo = serve_slo_serial(&cache, &fleet, &config, SloPolicy::Fifo).unwrap();
        let edf = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        assert!(
            edf.hit_rate > fifo.hit_rate,
            "EDF+degrade {:.3} must beat FIFO {:.3} at 2x overload",
            edf.hit_rate,
            fifo.hit_rate
        );
        assert!(edf.degraded > 0, "overload must exercise the ladder");
        assert!(
            fifo.shed_queue_full == 0 && fifo.shed_infeasible == 0,
            "FIFO never sheds"
        );
    }

    #[test]
    fn accounting_is_conserved() {
        let config = test_config();
        let fleet = slo_fleet(&test_profiles(), 8, &config);
        let cache = PlanCache::new();
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let r = serve_slo_serial(&cache, &fleet, &config, policy).unwrap();
            assert_eq!(
                r.total_requests,
                (8 * config.requests_per_tenant) as u64,
                "{policy}"
            );
            assert_eq!(
                r.admitted + r.shed_queue_full + r.shed_infeasible,
                r.total_requests
            );
            assert!(r.deadline_hits <= r.admitted);
            let by_tenant: u64 = r.tenants.iter().map(|t| t.requests).sum();
            assert_eq!(by_tenant, r.total_requests);
            let by_class: u64 = r.classes.iter().map(|c| c.requests).sum();
            assert_eq!(by_class, r.total_requests);
            // Admitted EDF requests only run rungs that fit, so every
            // admitted request is a hit under EdfDegrade.
            if policy == SloPolicy::EdfDegrade {
                assert_eq!(r.deadline_hits, r.admitted);
            }
        }
    }

    #[test]
    fn fair_queueing_keeps_every_tenant_served_under_overload() {
        let config = SloConfig {
            overload: 3.0,
            ..test_config()
        };
        let fleet = slo_fleet(&test_profiles(), 6, &config);
        let cache = PlanCache::new();
        let r = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        for t in &r.tenants {
            assert!(
                t.hits > 0,
                "tenant {} (weight {}) starved: {t:?}",
                t.id,
                t.weight
            );
        }
    }

    #[test]
    fn deadlines_are_feasible_unloaded() {
        // At trivial load every class has slack >= 1.5x nominal, so an
        // EDF run admits everything at the Normal rung.
        let config = SloConfig {
            overload: 0.05,
            ..test_config()
        };
        let fleet = slo_fleet(&test_profiles(), 2, &config);
        let cache = PlanCache::new();
        let r = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        assert_eq!(r.admitted, r.total_requests, "no sheds at 0.05x load");
        assert_eq!(r.degraded, 0, "no ladder at 0.05x load");
        assert_eq!(r.deadline_hits, r.total_requests);
    }

    #[test]
    fn sched_counters_accumulate() {
        mcdnn_obs::set_enabled(true);
        let config = test_config();
        let fleet = slo_fleet(&test_profiles(), 4, &config);
        let cache = PlanCache::new();
        let req0 = mcdnn_obs::thread_counter_value("sched.requests");
        let adm0 = mcdnn_obs::thread_counter_value("sched.admitted");
        let hit0 = mcdnn_obs::thread_counter_value("sched.deadline_hits");
        let miss0 = mcdnn_obs::thread_counter_value("sched.deadline_misses");
        let r = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        assert_eq!(
            mcdnn_obs::thread_counter_value("sched.requests") - req0,
            r.total_requests
        );
        assert_eq!(
            mcdnn_obs::thread_counter_value("sched.admitted") - adm0,
            r.admitted
        );
        assert_eq!(
            mcdnn_obs::thread_counter_value("sched.deadline_hits") - hit0,
            r.deadline_hits
        );
        assert_eq!(
            (mcdnn_obs::thread_counter_value("sched.deadline_misses") - miss0)
                + (mcdnn_obs::thread_counter_value("sched.deadline_hits") - hit0),
            r.total_requests - r.shed_queue_full,
            "every dispatched or infeasible request lands in hit or miss"
        );
    }

    #[test]
    fn zero_cloud_servers_ignores_cloud_profiles_entirely() {
        // C=0 models an infinitely fast cloud: even cloud-heavy
        // profiles schedule exactly as they did pre-contention, so the
        // report matches one from the same profiles with cloud stripped.
        let config = test_config();
        let fleet_cloudy = slo_fleet(&cloudy_profiles(), 6, &config);
        let stripped: Vec<RateProfile> = cloudy_profiles()
            .iter()
            .map(|p| {
                RateProfile::from_parts(
                    p.name().to_string(),
                    (0..=p.k()).map(|l| p.mobile_ms(l)).collect(),
                    (0..=p.k()).map(|l| p.bytes(l)).collect(),
                    p.setup_ms(),
                    None,
                )
                .unwrap()
            })
            .collect();
        let fleet_plain = slo_fleet(&stripped, 6, &config);
        let cache = PlanCache::new();
        for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
            let a = serve_slo_serial(&cache, &fleet_cloudy, &config, policy).unwrap();
            let b = serve_slo_serial(&cache, &fleet_plain, &config, policy).unwrap();
            assert_eq!(a.digest, b.digest, "{policy}: C=0 must ignore cloud work");
            assert_eq!(a.cloud_busy_ms, 0.0);
            assert_eq!(a.joint_overrides, 0);
        }
    }

    #[test]
    fn contention_stretches_cloud_stages_and_relaxes_with_capacity() {
        // Under FIFO the dispatch sequence is independent of the pool
        // size (the uplink frees at upload-end, which φ never touches),
        // so per-request completions shrink pointwise as C grows: hit
        // rate is monotone and cloud busy time scales exactly with φ.
        let config = SloConfig {
            cloud_servers: 1,
            ..test_config()
        };
        let fleet = slo_fleet(&cloudy_profiles(), 8, &config);
        let cache = PlanCache::new();
        let tight = serve_slo_serial(&cache, &fleet, &config, SloPolicy::Fifo).unwrap();
        assert!(tight.cloud_busy_ms > 0.0, "C=1 must route cloud work");
        let roomy_cfg = SloConfig {
            cloud_servers: 8,
            ..test_config()
        };
        let roomy = serve_slo_serial(&cache, &fleet, &roomy_cfg, SloPolicy::Fifo).unwrap();
        assert!(
            roomy.hit_rate >= tight.hit_rate,
            "more servers cannot hurt FIFO: C=8 {:.3} vs C=1 {:.3}",
            roomy.hit_rate,
            tight.hit_rate
        );
        // φ goes 1/8 -> 1, so the total stretched stage time is 8x less.
        assert!(
            (tight.cloud_busy_ms - 8.0 * roomy.cloud_busy_ms).abs() <= 1e-6 * tight.cloud_busy_ms,
            "stage stretch must scale with the share: {} vs {}",
            tight.cloud_busy_ms,
            roomy.cloud_busy_ms
        );
        // The ladder responds to the same squeeze: EdfDegrade at C=1
        // degrades and still keeps its admitted ⇒ hit invariant.
        let edf = serve_slo_serial(&cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        assert!(edf.degraded > 0, "C=1 must exercise the ladder");
        assert_eq!(edf.deadline_hits, edf.admitted);
    }

    #[test]
    fn joint_allocation_beats_oblivious_under_contention() {
        let oblivious_cfg = SloConfig {
            cloud_servers: 1,
            ..test_config()
        };
        let joint_cfg = SloConfig {
            joint_alloc: true,
            ..oblivious_cfg.clone()
        };
        let fleet = slo_fleet(&cloudy_profiles(), 10, &oblivious_cfg);
        let cache = PlanCache::new();
        let obl = serve_slo_serial(&cache, &fleet, &oblivious_cfg, SloPolicy::EdfDegrade).unwrap();
        let joint = serve_slo_serial(&cache, &fleet, &joint_cfg, SloPolicy::EdfDegrade).unwrap();
        assert!(
            joint.hit_rate > obl.hit_rate,
            "joint {:.3} must beat oblivious {:.3} at C=1",
            joint.hit_rate,
            obl.hit_rate
        );
        assert!(
            joint.joint_overrides > 0,
            "scarce capacity must move some Normal-rung cuts"
        );
        let total_share: f64 = joint.tenants.iter().map(|t| t.cloud_share).sum();
        assert!(total_share <= 1.0 + 1e-9, "shares exceed the pool");
    }

    #[test]
    fn pooled_equals_serial_with_cloud_contention() {
        let config = SloConfig {
            cloud_servers: 2,
            joint_alloc: true,
            ..test_config()
        };
        let fleet = slo_fleet(&cloudy_profiles(), 8, &config);
        let serial_cache = PlanCache::new();
        let serial =
            serve_slo_serial(&serial_cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let cache = Arc::new(PlanCache::new());
            let pooled = serve_slo(&pool, &cache, &fleet, &config, SloPolicy::EdfDegrade).unwrap();
            assert_eq!(serial, pooled, "workers={workers}");
        }
    }

    #[test]
    fn cloud_counters_accumulate() {
        mcdnn_obs::set_enabled(true);
        // Oblivious FIFO: every tenant holds φ = C/N and always runs
        // the Normal frontier cut, so cloud-bearing dispatches are
        // guaranteed whenever decide_at offloads at all.
        let config = SloConfig {
            cloud_servers: 2,
            ..test_config()
        };
        let fleet = slo_fleet(&cloudy_profiles(), 6, &config);
        let cache = PlanCache::new();
        let req0 = mcdnn_obs::thread_counter_value("sched.cloud.requests");
        let r = serve_slo_serial(&cache, &fleet, &config, SloPolicy::Fifo).unwrap();
        assert!(r.cloud_busy_ms > 0.0, "fixture must offload somewhere");
        assert!(
            mcdnn_obs::thread_counter_value("sched.cloud.requests") > req0,
            "cloud-bearing dispatches must count"
        );
        let joint_cfg = SloConfig {
            joint_alloc: true,
            ..config
        };
        let ovr0 = mcdnn_obs::thread_counter_value("sched.cloud.joint_overrides");
        let j = serve_slo_serial(&cache, &fleet, &joint_cfg, SloPolicy::EdfDegrade).unwrap();
        assert_eq!(
            mcdnn_obs::thread_counter_value("sched.cloud.joint_overrides") - ovr0,
            j.joint_overrides
        );
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let cache = PlanCache::new();
        let fleet = slo_fleet(&test_profiles(), 2, &SloConfig::default());
        let bad = SloConfig {
            overload: 0.0,
            ..SloConfig::default()
        };
        assert!(matches!(
            serve_slo_serial(&cache, &fleet, &bad, SloPolicy::Fifo),
            Err(AdmitError::BadConfig { .. })
        ));
        assert!(matches!(
            serve_slo_serial(&cache, &[], &SloConfig::default(), SloPolicy::Fifo),
            Err(AdmitError::EmptyFleet)
        ));
        let joint_without_pool = SloConfig {
            joint_alloc: true,
            cloud_servers: 0,
            ..SloConfig::default()
        };
        assert!(matches!(
            serve_slo_serial(&cache, &fleet, &joint_without_pool, SloPolicy::Fifo),
            Err(AdmitError::BadConfig { .. })
        ));
        let too_many_requests = SloConfig {
            requests_per_tenant: u32::MAX as usize + 1,
            ..SloConfig::default()
        };
        assert!(too_many_requests.validate().is_err());
        let mut too_many_classes = SloConfig::default();
        let class = too_many_classes.spec.classes[0];
        too_many_classes.spec.classes = vec![class; 257];
        assert!(too_many_classes.validate().is_err());
        too_many_classes.spec.classes.truncate(256);
        assert!(too_many_classes.validate().is_ok());
        let e = AdmitError::from(PlanError::NonMonotoneF { at: 1 });
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("planning failed"));
    }

    #[test]
    fn strategy_still_listed() {
        // slo_fleet alternates strategies like serve::fleet does.
        let fleet = slo_fleet(&test_profiles(), 16, &SloConfig::default());
        assert!(fleet.iter().any(|t| t.spec.strategy == Strategy::Jps));
        assert!(fleet.iter().any(|t| t.spec.strategy == Strategy::JpsBestMix));
        assert!(fleet.iter().any(|t| t.weight > 1.0));
    }

    #[test]
    fn dispatch_modes_are_bit_identical() {
        // The whole point of the indexed dispatcher: same bytes out,
        // across policies, pool sizes, and the joint allocator.
        let cache = PlanCache::new();
        let configs = [
            test_config(),
            SloConfig {
                overload: 6.0,
                ..test_config()
            },
            SloConfig {
                cloud_servers: 2,
                ..test_config()
            },
            SloConfig {
                cloud_servers: 1,
                joint_alloc: true,
                ..test_config()
            },
        ];
        for config in &configs {
            for profiles in [test_profiles(), cloudy_profiles()] {
                let fleet = slo_fleet(&profiles, 8, config);
                let mut run = SloStreams::default();
                run.regenerate(&cache, &fleet, config).unwrap();
                for policy in [SloPolicy::Fifo, SloPolicy::EdfDegrade] {
                    let [reference, indexed] = [DispatchMode::Reference, DispatchMode::Indexed]
                        .map(|mode| run.schedule(&fleet, config, policy, mode).unwrap());
                    assert_eq!(
                        reference, indexed,
                        "policy={policy} C={} joint={} overload={}",
                        config.cloud_servers, config.joint_alloc, config.overload
                    );
                }
            }
        }
    }

    /// A request with only the fields the queues and the merge read.
    fn request(
        tenant: usize,
        seq: usize,
        class: usize,
        arrival_ms: f64,
        deadline_ms: f64,
    ) -> SloRequest {
        SloRequest {
            arrival_ms,
            bandwidth_mbps: 1.0,
            deadline_ms,
            tenant: tenant as u32,
            seq: seq as u32,
            pieces: [0; 3],
            class: class as u8,
        }
    }

    /// An [`IndexedQueue`] and the linear-scan reference driven in
    /// lockstep through the same pushes, picks, dispatches and sheds.
    struct Lockstep {
        classes: Vec<(SloClass, f64)>,
        wfq: Wfq,
        iq: IndexedQueue,
        linear: Vec<SloRequest>,
        seqs: Vec<usize>,
        stats: DispatchStats,
        picks: u64,
        /// Whether the last pick charged service, so the next sweeps.
        charged: bool,
    }

    impl Lockstep {
        fn new(weights: Vec<f64>) -> Self {
            let tcount = weights.len();
            let mut iq = IndexedQueue::default();
            iq.reset(tcount);
            Lockstep {
                classes: SloConfig::default().spec.classes,
                wfq: Wfq {
                    service: vec![0.0; tcount],
                    total_weight: weights.iter().sum(),
                    weights,
                    total_service: 0.0,
                },
                iq,
                linear: Vec::new(),
                seqs: vec![0; tcount],
                stats: DispatchStats::default(),
                picks: 0,
                charged: false,
            }
        }

        fn push(&mut self, tenant: usize, class: usize, deadline_ms: f64) {
            let r = request(tenant, self.seqs[tenant], class, 0.0, deadline_ms);
            self.seqs[tenant] += 1;
            let priority = self.classes[class].0.priority;
            self.iq.push(
                tenant,
                r.seq(),
                deadline_ms,
                priority,
                &self.wfq,
                &mut self.stats,
            );
            self.linear.push(r);
        }

        /// Pick on both sides and demand the same request; then grant
        /// its tenant `work` ms of service, or shed it on `None` — the
        /// post-pick bookkeeping `run_indexed` does, sweeping only
        /// after a charge. Returns the tenant.
        fn pick(&mut self, work: Option<f64>, what: &str) -> usize {
            if self.charged {
                self.iq.sweep(&self.wfq, &mut self.stats);
            }
            let want = dispatch_reference(&self.linear, &self.classes, &self.wfq);
            let expect = self.linear.remove(want);
            let (t, seq) = self.iq.pop_best(&mut self.stats);
            assert_eq!(
                (t, seq),
                (expect.tenant(), expect.seq()),
                "{what}: heap pick diverged from linear argmin"
            );
            self.picks += 1;
            self.charged = work.is_some();
            if let Some(work) = work {
                self.wfq.charge(t, work);
            }
            self.iq
                .repost(t, work.is_some(), &self.wfq, &mut self.stats);
            t
        }
    }

    #[test]
    fn heap_pick_equals_linear_argmin_on_random_queues() {
        // A tenant that empties its queue while over its share leaves
        // the over list; its bit is re-derived when the queue refills.
        // Three equal-weight tenants: over(t) is 3·service[t] > total.
        let mut q = Lockstep::new(vec![1.0; 3]);
        q.push(0, 0, 10.0);
        assert_eq!(q.pick(Some(30.0), "drain 0"), 0);
        assert!(q.iq.over_list.is_empty(), "an idle tenant is on no list");
        // 3·30 > 30: tenant 0 refills still over, so the sweep must
        // watch it. Tenant 1's later deadline goes first.
        q.push(0, 0, 10.0);
        q.push(1, 0, 20.0);
        assert_eq!(q.iq.over_list, [0]);
        assert_eq!(q.pick(Some(100.0), "over refill"), 1);
        // 3·30 <= 130: the sweep flips tenant 0 back under, ahead of
        // tenant 2's later deadline.
        q.push(2, 0, 30.0);
        assert_eq!(q.pick(Some(1.0), "swept refill"), 0);
        assert_eq!(q.pick(Some(1.0), "tenant 2"), 2);
        // Tenant 0 drains over share again (3·(31 + 60) > 192), then
        // total service passes its threshold while its queue is empty:
        // 3·91 <= 292. On refill it is under, so it beats tenant 1's
        // earlier deadline (tenant 1 is over: 3·100 > 292).
        q.push(0, 0, 10.0);
        assert_eq!(q.pick(Some(60.0), "drain 0 over"), 0);
        assert!(q.iq.over_list.is_empty());
        q.push(2, 0, 10.0);
        assert_eq!(q.pick(Some(100.0), "idle growth"), 2);
        q.push(1, 0, 5.0);
        q.push(0, 0, 50.0);
        assert_eq!(
            q.iq.over_list,
            [1],
            "refilled tenant 0 must come back under"
        );
        assert_eq!(q.pick(None, "under refill"), 0);
        assert_eq!(q.pick(None, "tenant 1"), 1);

        // Randomized admit/dispatch/shed schedules — random weights,
        // deadlines, priorities, service growth — demanding the exact
        // same pick at every step.
        for seed in 0..12u64 {
            let mut rng = Rng::seed_from_u64(0xD15u64.wrapping_mul(seed + 1));
            let tcount = 2 + (rng.f64() * 6.0) as usize;
            let weights: Vec<f64> = (0..tcount).map(|_| 0.25 + 4.0 * rng.f64()).collect();
            let mut q = Lockstep::new(weights);
            let classes = q.classes.len();
            for step in 0..600 {
                if q.linear.is_empty() || rng.f64() < 0.55 {
                    let tenant = (rng.f64() * tcount as f64) as usize % tcount;
                    let class = (rng.f64() * classes as f64) as usize % classes;
                    q.push(tenant, class, 1.0 + rng.f64() * 5000.0);
                } else {
                    // Dispatch (grow the tenant's service) or shed.
                    let work = (rng.f64() < 0.7).then(|| 0.5 + rng.f64() * 30.0);
                    q.pick(work, &format!("seed={seed} step={step}"));
                }
            }
            assert!(q.picks > 100, "seed={seed}: schedule must exercise picks");
            assert!(q.stats.heap_pops >= q.picks);
        }
    }

    #[test]
    fn stream_merge_equals_the_sorted_concatenation() {
        // The reference: the concatenated streams sorted by
        // (arrival, tenant, seq).
        let sorted = |streams: &[Vec<SloRequest>]| -> Vec<(u32, u32)> {
            let mut all = streams.concat();
            all.sort_unstable_by(|a, b| {
                a.arrival_ms
                    .partial_cmp(&b.arrival_ms)
                    .unwrap()
                    .then(a.tenant.cmp(&b.tenant))
                    .then(a.seq.cmp(&b.seq))
            });
            all.iter().map(|r| (r.tenant, r.seq)).collect()
        };
        let stream = |tenant: usize, arrivals: &[f64]| -> Vec<SloRequest> {
            arrivals
                .iter()
                .enumerate()
                .map(|(seq, &arrival_ms)| request(tenant, seq, 0, arrival_ms, arrival_ms + 1.0))
                .collect()
        };
        // Cross-tenant ties at 2.0 and 5.0, a tie inside tenant 0, an
        // empty stream and two one-request streams.
        let crafted = vec![
            stream(0, &[1.0, 2.0, 2.0, 5.0]),
            stream(1, &[]),
            stream(2, &[2.0]),
            stream(3, &[0.5, 2.0, 7.0]),
            stream(4, &[5.0]),
        ];
        let mut st = SchedState::default();
        merge_streams(&mut st, &crafted);
        assert_eq!(st.order, sorted(&crafted));
        assert_eq!(st.off, [0, 4, 4, 5, 8, 9]);
        assert_eq!(st.slots.len(), 9);
        assert!(st.slots.iter().all(|o| o.shed));

        // Random fleets on a coarse arrival grid, so ties are common;
        // the same state is reused warm across merges.
        let mut rng = Rng::seed_from_u64(0x3E26E);
        for _ in 0..50 {
            let tenants = 1 + rng.gen_range(0usize..9);
            let streams: Vec<Vec<SloRequest>> = (0..tenants)
                .map(|t| {
                    let mut at = 0.0;
                    let arrivals: Vec<f64> = (0..rng.gen_range(0usize..25))
                        .map(|_| {
                            at += rng.gen_range(0usize..3) as f64 * 0.25;
                            at
                        })
                        .collect();
                    stream(t, &arrivals)
                })
                .collect();
            merge_streams(&mut st, &streams);
            assert_eq!(st.order, sorted(&streams));
            assert_eq!(st.slots.len(), streams.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn percentiles_by_selection_match_the_sorted_reads() {
        let mut rng = Rng::seed_from_u64(0x9E7C);
        for n in [0usize, 1, 2, 3, 7, 100, 1001] {
            // Coarse values, so equal latencies are common.
            let values: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(0usize..40) as f64 * 0.5)
                .collect();
            let mut sorted = values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let qs = [0.0, 0.5, 0.95, 0.99, 1.0];
            let mut scratch = values.clone();
            let got = percentiles(&mut scratch, qs);
            for (q, v) in qs.iter().zip(got) {
                assert_eq!(
                    v.to_bits(),
                    mcdnn_obs::percentile_sorted(&sorted, *q).to_bits(),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn arena_reuse_is_byte_identical_and_digest_matches_report() {
        mcdnn_obs::set_enabled(true);
        let config = SloConfig {
            overload: 4.0,
            ..test_config()
        };
        let fleet = slo_fleet(&test_profiles(), 6, &config);
        let cache = PlanCache::new();
        let (mut run, edf) = (SloStreams::default(), SloPolicy::EdfDegrade);
        let indexed = DispatchMode::Indexed;
        let ns0 = mcdnn_obs::counter_value("sched.dispatch_ns");
        run.regenerate(&cache, &fleet, &config).unwrap();
        let cold = run.schedule(&fleet, &config, edf, indexed).unwrap();
        let stats = run.stats();
        assert_eq!(stats.requests, cold.total_requests);
        assert_eq!(stats.dispatched, cold.admitted);
        assert!(stats.schedule_ns > 0, "loop timing must be recorded");
        assert!(stats.heap_pushes > 0 && stats.heap_pops > 0);
        assert!(
            stats.memo_hits > 0,
            "repeat pricings must hit the per-run memo: {stats:?}"
        );
        assert!(
            mcdnn_obs::counter_value("sched.dispatch_ns") > ns0,
            "dispatch time must flow into the obs registry"
        );
        // A warm regeneration merges once; scheduling never re-merges.
        let merge_ns = || mcdnn_obs::thread_counter_value("sched.merge_ns");
        let before = merge_ns();
        run.regenerate(&cache, &fleet, &config).unwrap();
        let merged = merge_ns();
        assert!(merged > before, "generation must merge the streams");
        for mode in [indexed, indexed, DispatchMode::Reference] {
            let warm = run.schedule(&fleet, &config, edf, mode).unwrap();
            assert_eq!(cold, warm, "warm {mode:?} rerun must be byte-identical");
            let digest = run.digest(&fleet, &config, edf, mode).unwrap();
            assert_eq!(digest, cold.digest, "{mode:?} digest-only run drifted");
        }
        assert_eq!(merge_ns(), merged, "scheduling must not merge again");
    }
}
