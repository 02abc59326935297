//! Multi-tenant serving: a fleet of user streams planning and
//! simulating through shared infrastructure.
//!
//! The experiment harness answers "what is the optimal schedule for
//! one stream"; the ROADMAP's north star is a system that serves heavy
//! traffic from *many* users at once. This module models that regime:
//!
//! * a **fleet** of users ([`fleet`]) mixes the model zoo, per-user
//!   bandwidth traces and per-user job counts, all seeded through
//!   `mcdnn-rng` so every run is reproducible;
//! * each [`UserSession`] admits bursts through the **shared
//!   [`PlanCache`]** (one frontier fetch per session — the steady-state
//!   hit path) and a per-session [`LadderFrontier`] that walks the
//!   degradation ladder on each degraded burst, and prices each burst:
//!   a fault-free burst by the two-stage flow-shop recurrence
//!   ([`mcdnn_flowshop::makespan()`]), which the DES would compute
//!   operation for operation on it (tests here and in the DES pin the
//!   two bit for bit), a faulted one by the one event loop, in a
//!   per-session [`DesArena`] whose buffers live as long as the session
//!   (thread-local by construction: a session never migrates between
//!   workers mid-run);
//! * [`serve_fleet`] drives every session across a persistent
//!   [`WorkerPool`], returning per-user summaries **in user-id order**,
//!   so the report is byte-identical regardless of worker count.
//!
//! Steady-state contract: once a session is warm (frontier fetched,
//! job buffer grown), a fault-free [`UserSession::admit_burst`]
//! performs **zero heap allocations** — bandwidth walk, ladder
//! decision, frontier lookup, job-vector refill and pricing all reuse
//! session-owned storage. The `serve_alloc_free` integration test
//! proves this with a counting allocator. Every `fault_every`-th burst
//! instead puts a seeded [`FaultPlan`] in its [`DesConfig`] and runs
//! the DES; that run allocates (the fault plan and link timeline are
//! built per run) and is excluded from the contract, exactly as
//! [`DesArena`] documents. So is the first burst after a commit that
//! reaches an unwalked `l*` regime of the new belief: the walk
//! allocates, like the commit before it.
//!
//! Determinism contract: a user's burst stream depends only on its
//! spec and the [`ServeConfig`] — never on scheduling. Each summary
//! carries an FNV-1a digest folding every burst's bandwidth bits, cut
//! structure, ladder level, makespan bits and fault-event fields; the
//! fleet digest folds the user digests in id order. Equal digests ⇒
//! bit-identical serving histories.
//!
//! Drift and adaptation: with [`ServeConfig::drift`] active, each
//! session's *true* device/cloud/link parameters follow a seeded
//! random walk ([`DriftSpec`]) that never touches the session's main
//! RNG — planning still uses the believed frontier, but executed
//! stage times come from the factory profile under the truth scales.
//! With [`ServeConfig::adapt`] set, a
//! [`ProfileEstimator`](mcdnn_profile::ProfileEstimator) observes
//! every realized stage and, at deterministic boundaries every 16
//! bursts, [`UserSession::maybe_adapt`] commits gated estimates,
//! rebuilds the believed profile from the factory base (stamped with
//! the estimator's generation), makes it a belief private to the
//! session — validated at the commit, each `l*` regime walked when a
//! burst first lands in it; the shared [`PlanCache`] holds factory
//! frontiers only — and sets the ladder up again on the new profile.
//! A zero-drift run with adaptation enabled observes ratios of exactly
//! 1.0, never crosses the commit gate, and stays byte-identical to an
//! adapt-off run.

use std::sync::Arc;

use mcdnn_flowshop::FlowJob;
use mcdnn_obs::metrics;
use mcdnn_partition::{CutMix, PlanCache, PlanError, RateProfile, Strategy};
use mcdnn_profile::AdaptConfig;
use mcdnn_rng::{fnv_fold, Rng, FNV_OFFSET};
use mcdnn_runtime::WorkerPool;

use crate::adapt::{check_drift, DriftSpec};
use crate::degrade::{LadderFrontier, LadderLevel};
use crate::des::{DesArena, DesConfig};
use crate::fault::{FaultEvent, FaultEventKind, FaultPlan, FaultSpec, FaultedRun};
use crate::tenant::{cut_pair, Tenant};

/// Knobs shared by every user of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Bursts each user admits before its session ends.
    pub bursts_per_user: usize,
    /// Lower edge of the compiled bandwidth range, Mbps.
    pub lo_mbps: f64,
    /// Upper edge of the compiled bandwidth range, Mbps.
    pub hi_mbps: f64,
    /// Target admission rate for the degradation ladder, Hz.
    pub target_hz: f64,
    /// Utilization ceiling for the degradation ladder.
    pub rho_limit: f64,
    /// Per-burst probability of a degraded link (ladder consulted).
    pub degrade_prob: f64,
    /// Every `fault_every`-th burst replays under a seeded fault plan
    /// (0 = never).
    pub fault_every: usize,
    /// Seed for fleet generation; per-user seeds derive from it.
    pub seed: u64,
    /// Random walk on each session's true platform parameters
    /// ([`DriftSpec::none`] = believed times are exact).
    pub drift: DriftSpec,
    /// Online profile learning: `Some` feeds realized timings through a
    /// per-session [`ProfileEstimator`](mcdnn_profile::ProfileEstimator)
    /// and replans on gated commits.
    pub adapt: Option<AdaptConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bursts_per_user: 200,
            lo_mbps: 1.0,
            hi_mbps: 100.0,
            target_hz: 20.0,
            rho_limit: 0.9,
            degrade_prob: 0.05,
            fault_every: 0,
            seed: 0x5EED,
            drift: DriftSpec::none(),
            adapt: None,
        }
    }
}

impl ServeConfig {
    /// Check the knobs no frontier compile checks: the ladder's
    /// `target_hz` and `rho_limit`, `degrade_prob`, and the drift
    /// (walks and jitter finite in `[0, 1)`).
    /// [`UserSession::start`] calls this, so every serving entry point
    /// reports a bad value as [`PlanError::BadInput`] instead of
    /// panicking, or hanging, inside a pool task.
    pub fn validate(&self) -> Result<(), PlanError> {
        if !(self.target_hz.is_finite() && self.target_hz > 0.0) {
            return Err(PlanError::BadInput {
                what: "target_hz must be finite and > 0",
            });
        }
        if !(self.rho_limit > 0.0 && self.rho_limit <= 1.0) {
            return Err(PlanError::BadInput {
                what: "rho_limit must be in (0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.degrade_prob) {
            return Err(PlanError::BadInput {
                what: "degrade_prob must be in [0, 1]",
            });
        }
        check_drift(&self.drift).map_err(|what| PlanError::BadInput { what })
    }
}

/// One user of the fleet: which model it runs, how it plans, how many
/// jobs per burst, and the seed of its private bandwidth/fault trace.
#[derive(Debug, Clone)]
pub struct UserSpec {
    /// Fleet-wide user id (also the report ordering key).
    pub id: usize,
    /// The user's model, bandwidth-parameterized.
    pub profile: RateProfile,
    /// Planning strategy ([`Strategy::Jps`] or [`Strategy::JpsBestMix`]).
    pub strategy: Strategy,
    /// Jobs per admitted burst.
    pub n_jobs: usize,
    /// Seed of the user's private RNG stream.
    pub seed: u64,
}

/// Generate a mixed fleet: users cycle through the monotone profiles
/// (non-monotone ones are skipped — the frontier would reject them,
/// same as `Strategy::try_plan`), alternate strategies and draw job
/// counts and trace seeds from `config.seed`.
pub fn fleet(profiles: &[RateProfile], users: usize, config: &ServeConfig) -> Vec<UserSpec> {
    fleet_with(profiles, users, config.seed, |_| ())
        .into_iter()
        .map(|(spec, ())| spec)
        .collect()
}

/// The fleet generator both serving modes share: per user, in id
/// order, one RNG seeded with `seed` draws the strategy, the job count,
/// the caller's `extra` fields, then the user's trace seed.
pub(crate) fn fleet_with<T>(
    profiles: &[RateProfile],
    users: usize,
    seed: u64,
    mut extra: impl FnMut(&mut Rng) -> T,
) -> Vec<(UserSpec, T)> {
    let usable: Vec<&RateProfile> = profiles
        .iter()
        .filter(|p| p.check_monotone().is_ok())
        .collect();
    assert!(!usable.is_empty(), "need at least one monotone profile");
    let mut rng = Rng::seed_from_u64(seed);
    (0..users)
        .map(|id| {
            let profile = usable[id % usable.len()].clone();
            let strategy = if rng.gen_bool(0.5) {
                Strategy::JpsBestMix
            } else {
                Strategy::Jps
            };
            let n_jobs = rng.gen_range(2usize..=8);
            let fields = extra(&mut rng);
            let spec = UserSpec {
                id,
                profile,
                strategy,
                n_jobs,
                seed: rng.next_u64(),
            };
            (spec, fields)
        })
        .collect()
}

/// What one admitted burst did — returned so callers (tests, the CLI)
/// can audit a session burst by burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstOutcome {
    /// Link bandwidth the burst observed, Mbps.
    pub bandwidth_mbps: f64,
    /// The cut structure the burst executed.
    pub mix: CutMix,
    /// Ladder rung (Normal unless the link degraded this burst).
    pub level: LadderLevel,
    /// Makespan of the burst, ms: the two-stage recurrence's, or the
    /// DES's for a faulted burst.
    pub makespan_ms: f64,
    /// True when this burst replayed under a fault plan.
    pub faulted: bool,
}

/// One user's live serving state: the tenant core every serving loop
/// shares (frontier handles, RNG, drift, estimator) plus what only
/// bursts need. See the module docs for the steady-state allocation
/// contract.
///
/// A session tallies its bursts, jobs, faulted and degraded bursts, and
/// its core its frontier lookups; all of them fold into `serve.*` and
/// `frontier.lookups` once, when the session is dropped — at
/// [`UserSession::finish`], or wherever it ends early.
pub struct UserSession {
    id: usize,
    n_jobs: usize,
    strategy: Strategy,
    core: Tenant,
    ladder: LadderFrontier,
    target_hz: f64,
    rho_limit: f64,
    degrade_prob: f64,
    fault_every: usize,
    /// Reused job buffer — refilled in place every burst.
    jobs: Vec<FlowJob>,
    /// Identity admission order (the frontier's layout is already the
    /// planner's winning order: `prev` block first, then `star`).
    order: Vec<usize>,
    arena: DesArena,
    bursts: u64,
    jobs_done: u64,
    faulted_bursts: u64,
    degraded_bursts: u64,
    hits: u64,
    makespan_sum_ms: f64,
    digest: u64,
}

impl std::fmt::Debug for UserSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserSession")
            .field("id", &self.id)
            .field("model", &self.core.profile().name())
            .field("strategy", &self.strategy)
            .field("n_jobs", &self.n_jobs)
            .field("bursts", &self.bursts)
            .finish()
    }
}

impl UserSession {
    /// Open a session: check `config` ([`ServeConfig::validate`]),
    /// fetch the user's frontier from the shared cache (the only cache
    /// touch of the session) and set up its degradation ladder at the
    /// geometric mid-bandwidth.
    pub fn start(
        cache: &PlanCache,
        spec: &UserSpec,
        config: &ServeConfig,
    ) -> Result<UserSession, PlanError> {
        config.validate()?;
        let core = Tenant::start(
            cache,
            spec,
            config.lo_mbps,
            config.hi_mbps,
            &config.drift,
            config.adapt.is_some(),
        )?;
        let mid = (config.lo_mbps * config.hi_mbps).sqrt();
        let at_mid = spec.profile.profile_at(mid);
        // A degraded burst divides the ladder's upload times by its
        // rate factor, which can be as small as 2^-53.
        let min_factor = 0.5 * f64::EPSILON;
        if at_mid.g_all().iter().any(|g| !(g / min_factor).is_finite()) {
            return Err(PlanError::BadInput {
                what: "upload times overflow on a degraded link",
            });
        }
        let ladder =
            LadderFrontier::compile(&at_mid, config.target_hz, config.rho_limit, spec.n_jobs);
        metrics::SERVE_SESSIONS.add(1);
        Ok(UserSession {
            id: spec.id,
            n_jobs: spec.n_jobs,
            strategy: spec.strategy,
            core,
            ladder,
            target_hz: config.target_hz,
            rho_limit: config.rho_limit,
            degrade_prob: config.degrade_prob,
            fault_every: config.fault_every,
            jobs: Vec::with_capacity(spec.n_jobs),
            order: (0..spec.n_jobs).collect(),
            arena: DesArena::new(),
            bursts: 0,
            jobs_done: 0,
            faulted_bursts: 0,
            degraded_bursts: 0,
            hits: 0,
            makespan_sum_ms: 0.0,
            digest: FNV_OFFSET,
        })
    }

    /// Admit one burst: walk the bandwidth trace, consult the ladder if
    /// the link degraded, look the frontier's decision up from the
    /// piece the last lookup landed on (amortized O(1) while the
    /// bandwidth walks), refill the job buffer in place and price it.
    /// A fault-free burst's makespan is the two-stage recurrence
    /// ([`mcdnn_flowshop::makespan()`]) over the job buffer in planned
    /// order, bit-equal to a default-config [`DesArena`] run on the
    /// same jobs; only a faulted burst draws a fault seed, builds its
    /// [`DesConfig`] and runs the warm arena. Zero heap allocations
    /// once warm, except on faulted bursts (see the module docs).
    pub fn admit_burst(&mut self) -> BurstOutcome {
        // Main-RNG order per burst: bandwidth step, degrade roll, rung
        // draw (degraded bursts only), fault seed (faulted bursts only).
        let bandwidth = self.core.step();
        let degraded = self.core.rng().f64() < self.degrade_prob;
        let x = if degraded { self.core.rng().f64() } else { 1.0 };
        let (lo, hi) = self.core.range();

        // Decide the burst's cut structure. A degraded link walks the
        // ladder with the remaining rate fraction `x`: MobileOnly runs
        // everything on-device (uniform cut k ⇒ g = 0); any other rung
        // replans through the frontier at the degraded bandwidth.
        let (mix, level, b_eff) = if degraded {
            let decision = self.ladder.decide(x);
            if decision.level == LadderLevel::MobileOnly {
                let k = self.core.profile().k();
                (CutMix::Uniform { cut: k }, decision.level, bandwidth)
            } else {
                let b_eff = (bandwidth * x).clamp(lo, hi);
                (self.core.decide(b_eff), decision.level, b_eff)
            }
        } else {
            (self.core.decide(bandwidth), LadderLevel::Normal, bandwidth)
        };
        let profile = self.core.profile();

        // Believed stage times, in the mix's layout — the planner's
        // winning order (`prev` block first, then `star`), the order
        // the burst runs in.
        let (cut1, cut2) = cut_pair(mix);
        let first_n = match mix {
            CutMix::Uniform { .. } => self.n_jobs,
            CutMix::Mix { at_prev, .. } => at_prev,
        };
        let two_types = matches!(mix, CutMix::Mix { .. });
        let mut believed = [
            profile.mobile_ms(cut1),
            profile.upload_ms_at(cut1, b_eff),
            0.0,
            0.0,
        ];
        if two_types {
            believed[2] = profile.mobile_ms(cut2);
            believed[3] = profile.upload_ms_at(cut2, b_eff);
        }

        // Executed stage times. Planning above used the believed
        // frontier; execution runs on the *true* platform — the factory
        // profile under the truth walk, one jitter factor per executed
        // stage — so the estimator measures the world rather than its
        // own beliefs. Without drift the true platform is the factory
        // profile and the believed profile never leaves generation 0
        // (neutral evidence cannot cross the commit gate), so the
        // believed times are executed and observed as they are.
        let stages = if self.core.is_drifting() {
            let mut s = [0.0; 4];
            s[0] = self.core.realize_device(cut1);
            s[1] = self.core.realize_upload(cut1, b_eff);
            if two_types {
                s[2] = self.core.realize_device(cut2);
                s[3] = self.core.realize_upload(cut2, b_eff);
            }
            s
        } else {
            believed
        };
        self.core.observe(mix, b_eff, stages, None);

        self.jobs.clear();
        for j in 0..self.n_jobs {
            let (f, g) = if j < first_n {
                (stages[0], stages[1])
            } else {
                (stages[2], stages[3])
            };
            self.jobs.push(FlowJob::two_stage(j, f, g));
        }

        // Price the burst. A fault-free burst is two-stage jobs on one
        // CPU and one uplink with no jitter, where the DES would compute
        // the flow-shop recurrence operation for operation, so the
        // recurrence prices it. A faulted burst replays a seeded fault
        // plan through the DES — the allocating exception to the
        // steady-state contract (the plan and its link timeline are
        // built per run) — and folds its event log into the digest.
        let faulted = self.fault_every != 0 && self.core.steps().is_multiple_of(self.fault_every);
        let (makespan_ms, events_digest) = if faulted {
            let profile = self.core.profile();
            let local_fallback_ms = profile.mobile_ms(profile.k()) - profile.mobile_ms(cut2);
            let horizon_ms = profile.mix_makespan(self.n_jobs, mix, b_eff).max(1.0) * 2.0;
            let des = DesConfig {
                faults: FaultedRun {
                    faults: FaultPlan::random(
                        &FaultSpec::default(),
                        self.n_jobs,
                        horizon_ms,
                        self.core.rng().next_u64(),
                    ),
                    local_fallback_ms,
                },
                ..DesConfig::default()
            };
            let makespan_ms = self.arena.simulate(&self.jobs, &self.order, &des);
            (makespan_ms, fold_events(self.arena.events()))
        } else {
            (mcdnn_flowshop::makespan(&self.jobs, &self.order), 0)
        };

        // Fold the burst into the session digest: bandwidth, cut
        // structure, ladder rung, makespan, fault events.
        let mut d = self.digest;
        d = fnv_fold(d, bandwidth.to_bits());
        let (tag, m1, m2, m3) = match mix {
            CutMix::Uniform { cut } => (0u64, cut as u64, 0, 0),
            CutMix::Mix {
                prev,
                star,
                at_prev,
            } => (1, prev as u64, star as u64, at_prev as u64),
        };
        d = fnv_fold(fnv_fold(fnv_fold(fnv_fold(d, tag), m1), m2), m3);
        d = fnv_fold(d, level as u64);
        d = fnv_fold(d, makespan_ms.to_bits());
        d = fnv_fold(d, events_digest);
        self.digest = d;

        if self.core.hit(makespan_ms, b_eff) {
            self.hits += 1;
        }
        self.bursts += 1;
        self.jobs_done += self.n_jobs as u64;
        self.makespan_sum_ms += makespan_ms;
        self.faulted_bursts += u64::from(faulted);
        self.degraded_bursts += u64::from(degraded);
        BurstOutcome {
            bandwidth_mbps: bandwidth,
            mix,
            level,
            makespan_ms,
            faulted,
        }
    }

    /// Commit gated estimates and replan if this burst sits on a
    /// commit boundary (every 16 bursts) and the estimator's confidence
    /// gate is crossed: the believed profile is rebuilt **from the factory
    /// base** under the committed scales, made a belief private to this
    /// session (its regimes walked as bursts reach them) and the ladder
    /// set up on it.
    /// Returns `true` only when a replan happened; without adaptation,
    /// or between boundaries, or while the gate holds, this is a
    /// read-only, allocation-free check.
    ///
    /// `cache` is unused: a belief never enters the shared cache, since
    /// only this session, or an identical re-run of it, could fetch it.
    /// The parameter stays for callers written against this signature.
    pub fn maybe_adapt(&mut self, cache: &PlanCache) -> Result<bool, PlanError> {
        let _ = cache;
        if !self.core.commit()? {
            return Ok(false);
        }
        let (lo, hi) = self.core.range();
        self.ladder = LadderFrontier::compile(
            &self.core.profile().profile_at((lo * hi).sqrt()),
            self.target_hz,
            self.rho_limit,
            self.n_jobs,
        );
        Ok(true)
    }

    /// Close the session into its summary; dropping it folds its
    /// tallies into the registry.
    pub fn finish(self) -> UserSummary {
        UserSummary {
            id: self.id,
            model: self.core.profile().name().to_string(),
            strategy: self.strategy,
            n_jobs: self.n_jobs,
            bursts: self.bursts,
            jobs: self.jobs_done,
            faulted_bursts: self.faulted_bursts,
            degraded_bursts: self.degraded_bursts,
            hits: self.hits,
            replans: self.core.replans(),
            mean_makespan_ms: if self.bursts == 0 {
                0.0
            } else {
                self.makespan_sum_ms / self.bursts as f64
            },
            digest: self.digest,
        }
    }
}

impl Drop for UserSession {
    /// Fold the session's burst tallies into the registry; its core's
    /// cursors fold its frontier lookups as they drop.
    fn drop(&mut self) {
        metrics::SERVE_BURSTS.add(self.bursts);
        metrics::SERVE_JOBS.add(self.jobs_done);
        metrics::SERVE_FAULTED_BURSTS.add(self.faulted_bursts);
        metrics::SERVE_DEGRADED_BURSTS.add(self.degraded_bursts);
    }
}

/// FNV-1a fold of a faulted burst's event log: each event's time, job
/// and kind with its fields.
fn fold_events(events: &[FaultEvent]) -> u64 {
    let mut d = FNV_OFFSET;
    for e in events {
        d = fnv_fold(d, e.t_ms.to_bits());
        d = fnv_fold(d, e.job as u64);
        d = match e.kind {
            FaultEventKind::UploadLost { attempt } => fnv_fold(fnv_fold(d, 0), attempt as u64),
            FaultEventKind::RetryScheduled { attempt, delay_ms } => {
                fnv_fold(fnv_fold(fnv_fold(d, 1), attempt as u64), delay_ms.to_bits())
            }
            FaultEventKind::UploadRecovered { attempts } => {
                fnv_fold(fnv_fold(d, 2), attempts as u64)
            }
            FaultEventKind::LocalFallback => fnv_fold(d, 3),
            FaultEventKind::CloudStraggled { factor } => fnv_fold(fnv_fold(d, 4), factor.to_bits()),
        };
    }
    d
}

/// One user's completed serving history.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSummary {
    /// Fleet-wide user id.
    pub id: usize,
    /// Model name (display only; never part of cache identity).
    pub model: String,
    /// Planning strategy.
    pub strategy: Strategy,
    /// Jobs per burst.
    pub n_jobs: usize,
    /// Bursts admitted.
    pub bursts: u64,
    /// Total jobs executed.
    pub jobs: u64,
    /// Bursts replayed under a fault plan.
    pub faulted_bursts: u64,
    /// Bursts that saw a degraded link.
    pub degraded_bursts: u64,
    /// Bursts whose realized makespan met the drift deadline
    /// (`= bursts` whenever drift is inactive).
    pub hits: u64,
    /// Beliefs built by estimator commits.
    pub replans: u64,
    /// Mean burst makespan, ms.
    pub mean_makespan_ms: f64,
    /// FNV-1a digest of the full burst history (see module docs).
    pub digest: u64,
}

/// Run one user start-to-finish: open a session against the shared
/// cache and admit `config.bursts_per_user` bursts.
pub fn run_user(
    cache: &PlanCache,
    spec: &UserSpec,
    config: &ServeConfig,
) -> Result<UserSummary, PlanError> {
    let mut session = UserSession::start(cache, spec, config)?;
    for _ in 0..config.bursts_per_user {
        session.admit_burst();
        session.maybe_adapt(cache)?;
    }
    metrics::SERVE_USERS.add(1);
    Ok(session.finish())
}

/// A completed serving run: per-user summaries in id order plus fleet
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-user summaries, ordered by user id.
    pub users: Vec<UserSummary>,
    /// Total bursts admitted across the fleet.
    pub total_bursts: u64,
    /// Total jobs executed across the fleet.
    pub total_jobs: u64,
    /// Total faulted bursts.
    pub total_faulted_bursts: u64,
    /// Total degraded bursts.
    pub total_degraded_bursts: u64,
    /// Total bursts meeting the drift deadline.
    pub total_hits: u64,
    /// Total adaptation replans across the fleet.
    pub total_replans: u64,
    /// FNV-1a fold of the user digests in id order.
    pub fleet_digest: u64,
}

/// Aggregate summaries (already in id order) into a report.
fn aggregate(users: Vec<UserSummary>) -> ServeReport {
    let mut fleet_digest = FNV_OFFSET;
    let (mut bursts, mut jobs, mut faulted, mut degraded) = (0, 0, 0, 0);
    let (mut hits, mut replans) = (0, 0);
    for u in &users {
        fleet_digest = fnv_fold(fnv_fold(fleet_digest, u.id as u64), u.digest);
        bursts += u.bursts;
        jobs += u.jobs;
        faulted += u.faulted_bursts;
        degraded += u.degraded_bursts;
        hits += u.hits;
        replans += u.replans;
    }
    ServeReport {
        users,
        total_bursts: bursts,
        total_jobs: jobs,
        total_faulted_bursts: faulted,
        total_degraded_bursts: degraded,
        total_hits: hits,
        total_replans: replans,
        fleet_digest,
    }
}

/// Serve the whole fleet across a persistent [`WorkerPool`], all
/// sessions sharing `cache`. Summaries come back in user-id order, so
/// the report is byte-identical for any worker count — including a
/// serial [`run_user`] loop (the equivalence tests pin this).
pub fn serve_fleet(
    pool: &WorkerPool,
    cache: &Arc<PlanCache>,
    specs: &[UserSpec],
    config: &ServeConfig,
) -> Result<ServeReport, PlanError> {
    let shared: Arc<Vec<UserSpec>> = Arc::new(specs.to_vec());
    let cache = Arc::clone(cache);
    let config = *config;
    let results = pool.run_indexed(shared.len(), move |i| run_user(&cache, &shared[i], &config));
    let mut users = Vec::with_capacity(results.len());
    for r in results {
        users.push(r?);
    }
    Ok(aggregate(users))
}

/// Serve the fleet serially on the calling thread — the reference the
/// pooled path is compared against.
pub fn serve_fleet_serial(
    cache: &PlanCache,
    specs: &[UserSpec],
    config: &ServeConfig,
) -> Result<ServeReport, PlanError> {
    let mut users = Vec::with_capacity(specs.len());
    for spec in specs {
        users.push(run_user(cache, spec, config)?);
    }
    Ok(aggregate(users))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn test_config() -> ServeConfig {
        ServeConfig {
            bursts_per_user: 40,
            fault_every: 7,
            degrade_prob: 0.15,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn fleet_is_deterministic_and_skips_non_monotone() {
        let mut profiles = test_profiles();
        profiles.push(
            RateProfile::from_parts(
                "bumpy",
                vec![0.0, 4.0, 7.0, 20.0],
                vec![50_000, 10_000, 20_000, 0],
                2.0,
                None,
            )
            .unwrap(),
        );
        let config = test_config();
        let a = fleet(&profiles, 10, &config);
        let b = fleet(&profiles, 10, &config);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.n_jobs, y.n_jobs);
            assert_ne!(x.profile.name(), "bumpy", "non-monotone profile skipped");
        }
    }

    #[test]
    fn report_is_invariant_across_worker_counts_and_shard_layouts() {
        let config = test_config();
        let specs = fleet(&test_profiles(), 12, &config);

        let serial_cache = PlanCache::new();
        let serial = serve_fleet_serial(&serial_cache, &specs, &config).unwrap();

        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let cache = Arc::new(PlanCache::new());
            let pooled = serve_fleet(&pool, &cache, &specs, &config).unwrap();
            assert_eq!(serial, pooled, "workers={workers}");
        }
        // Coverage: the scenario actually exercises faults and the
        // ladder, so digest equality is meaningful.
        assert!(serial.total_faulted_bursts > 0);
        assert!(serial.total_degraded_bursts > 0);
        assert_eq!(serial.total_bursts, 12 * 40);
    }

    #[test]
    fn fault_free_burst_matches_the_kernel_makespan() {
        let config = ServeConfig {
            bursts_per_user: 25,
            degrade_prob: 0.0,
            fault_every: 0,
            ..ServeConfig::default()
        };
        let specs = fleet(&test_profiles(), 2, &config);
        let cache = PlanCache::new();
        for spec in &specs {
            let mut session = UserSession::start(&cache, spec, &config).unwrap();
            for _ in 0..config.bursts_per_user {
                let out = session.admit_burst();
                let kernel =
                    spec.profile
                        .mix_makespan(spec.n_jobs, out.mix, out.bandwidth_mbps);
                assert!(
                    (out.makespan_ms - kernel).abs() <= 1e-9 * kernel.max(1.0),
                    "priced {} vs kernel {kernel}",
                    out.makespan_ms
                );
                assert_eq!(out.level, LadderLevel::Normal);
                assert!(!out.faulted);
            }
        }
    }

    #[test]
    fn recurrence_priced_bursts_equal_the_des_bit_for_bit() {
        // Every kind of burst a session admits: drifting, jittered
        // stage times, beliefs rebuilt by commits, degraded and
        // mobile-only rungs, every fifth burst faulted.
        let config = ServeConfig {
            bursts_per_user: 150,
            degrade_prob: 0.2,
            fault_every: 5,
            ..drift_config()
        };
        // A device so slow that a degraded link to a cut near it loses
        // to running every layer on-device: the ladder's bottom rung.
        let mut profiles = test_profiles();
        profiles.push(
            RateProfile::from_parts(
                "gamma",
                vec![0.0, 90.0, 100.0],
                vec![100_000, 10_000, 0],
                1.0,
                None,
            )
            .unwrap(),
        );
        let specs = fleet(&profiles, 9, &config);
        let cache = PlanCache::new();
        let (mut degraded, mut mobile_only, mut faulted, mut commits) = (0, 0, 0, 0);
        for spec in &specs {
            let mut session = UserSession::start(&cache, spec, &config).unwrap();
            for burst in 0..config.bursts_per_user {
                let out = session.admit_burst();
                if out.faulted {
                    faulted += 1;
                } else {
                    let des = DesArena::new().simulate(
                        &session.jobs,
                        &session.order,
                        &DesConfig::default(),
                    );
                    assert_eq!(
                        out.makespan_ms.to_bits(),
                        des.to_bits(),
                        "user {} burst {burst}: priced {} vs DES {des}",
                        spec.id,
                        out.makespan_ms
                    );
                }
                degraded += usize::from(out.level != LadderLevel::Normal);
                mobile_only += usize::from(out.level == LadderLevel::MobileOnly);
                commits += usize::from(session.maybe_adapt(&cache).unwrap());
            }
        }
        assert!(
            degraded > mobile_only && mobile_only > 0 && faulted > 0 && commits > 0,
            "{degraded} degraded, {mobile_only} mobile-only, {faulted} faulted, {commits} commits"
        );
    }

    #[test]
    fn different_seeds_produce_different_histories() {
        let config = test_config();
        let cache = PlanCache::new();
        let specs = fleet(&test_profiles(), 2, &config);
        let mut other = specs[0].clone();
        other.seed ^= 0xDEAD_BEEF;
        let a = run_user(&cache, &specs[0], &config).unwrap();
        let b = run_user(&cache, &other, &config).unwrap();
        assert_ne!(a.digest, b.digest, "digest must track the trace seed");
    }

    fn drift_config() -> ServeConfig {
        ServeConfig {
            bursts_per_user: 150,
            fault_every: 0,
            degrade_prob: 0.0,
            drift: DriftSpec {
                device_walk: 0.08,
                link_walk: 0.04,
                jitter: 0.02,
                ..DriftSpec::none()
            },
            adapt: Some(AdaptConfig::default()),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn zero_drift_adaptation_is_byte_identical_to_adapt_off() {
        let mut config = test_config();
        let specs = fleet(&test_profiles(), 6, &config);
        let off = serve_fleet_serial(&PlanCache::new(), &specs, &config).unwrap();
        config.adapt = Some(AdaptConfig::default());
        let on = serve_fleet_serial(&PlanCache::new(), &specs, &config).unwrap();
        assert_eq!(off.fleet_digest, on.fleet_digest);
        assert_eq!(on.total_replans, 0, "ratios of exactly 1.0 never cross the gate");
        for u in &on.users {
            assert_eq!(u.replans, 0);
            assert_eq!(u.hits, u.bursts, "no drift ⇒ every burst hits");
        }
    }

    #[test]
    fn drift_adaptive_report_is_invariant_across_worker_counts() {
        let config = drift_config();
        let specs = fleet(&test_profiles(), 8, &config);
        let serial = serve_fleet_serial(&PlanCache::new(), &specs, &config).unwrap();
        assert!(serial.total_replans > 0, "drift must trigger adaptation");
        // Pinned: the adaptive, jittered serving history this fleet
        // produces. Any change to draw order or estimator feeds moves it.
        assert_eq!(serial.fleet_digest, 0x08a0_9d5f_3923_00b9);
        assert!(
            serial.users.iter().any(|u| u.replans > 0),
            "some session must end on a committed belief"
        );
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let cache = Arc::new(PlanCache::new());
            let pooled = serve_fleet(&pool, &cache, &specs, &config).unwrap();
            assert_eq!(serial, pooled, "workers={workers}");
        }
    }

    #[test]
    fn adaptation_dominates_frozen_planning_under_drift() {
        let config = drift_config();
        let specs = fleet(&test_profiles(), 8, &config);
        let adaptive = serve_fleet_serial(&PlanCache::new(), &specs, &config).unwrap();
        let frozen_config = ServeConfig {
            adapt: None,
            ..config
        };
        let frozen = serve_fleet_serial(&PlanCache::new(), &specs, &frozen_config).unwrap();
        // Same fleet, same truth walks (drift streams are independent
        // of planning), different beliefs.
        assert_eq!(frozen.total_replans, 0);
        assert!(
            adaptive.total_hits >= frozen.total_hits,
            "adaptive {} vs frozen {}",
            adaptive.total_hits,
            frozen.total_hits
        );
        let mean = |r: &ServeReport| {
            r.users.iter().map(|u| u.mean_makespan_ms).sum::<f64>() / r.users.len() as f64
        };
        assert!(
            mean(&adaptive) <= mean(&frozen) * 1.001,
            "adaptive mean {} vs frozen mean {}",
            mean(&adaptive),
            mean(&frozen)
        );
    }

    #[test]
    fn serve_counters_accumulate() {
        mcdnn_obs::set_enabled(true);
        let config = ServeConfig {
            bursts_per_user: 10,
            fault_every: 5,
            ..ServeConfig::default()
        };
        let specs = fleet(&test_profiles(), 3, &config);
        let cache = PlanCache::new();
        let bursts0 = mcdnn_obs::thread_counter_value("serve.bursts");
        let users0 = mcdnn_obs::thread_counter_value("serve.users");
        let faulted0 = mcdnn_obs::thread_counter_value("serve.faulted_bursts");
        for spec in &specs {
            run_user(&cache, spec, &config).unwrap();
        }
        assert_eq!(mcdnn_obs::thread_counter_value("serve.bursts") - bursts0, 30);
        assert_eq!(mcdnn_obs::thread_counter_value("serve.users") - users0, 3);
        assert_eq!(
            mcdnn_obs::thread_counter_value("serve.faulted_bursts") - faulted0,
            6,
            "every 5th of 10 bursts × 3 users"
        );
    }

    #[test]
    fn a_session_folds_its_tallies_once_however_it_ends() {
        // Nothing reaches the registry while the session admits bursts;
        // dropping it, finished or not, folds every burst it admitted.
        mcdnn_obs::set_enabled(true);
        let config = ServeConfig {
            bursts_per_user: 0,
            degrade_prob: 0.0, // every burst looks its mix up
            fault_every: 3,
            ..ServeConfig::default()
        };
        let specs = fleet(&test_profiles(), 2, &config);
        let cache = PlanCache::new();
        let names = [
            "serve.bursts",
            "serve.jobs",
            "serve.faulted_bursts",
            "frontier.lookups",
        ];
        let read = || names.map(mcdnn_obs::thread_counter_value);
        for (spec, finish) in specs.iter().zip([false, true]) {
            let mut session = UserSession::start(&cache, spec, &config).unwrap();
            let before = read();
            for _ in 0..7 {
                session.admit_burst();
            }
            assert_eq!(read(), before, "tallies lag until the session ends");
            let n = spec.n_jobs as u64;
            if finish {
                assert_eq!(session.finish().bursts, 7);
            } else {
                drop(session);
            }
            let after = read();
            let folded: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            assert_eq!(folded, [7, 7 * n, 2, 7], "finished: {finish}");
        }
    }
}
