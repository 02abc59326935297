//! The tenant core both serving loops drive: what one tenant keeps
//! across its stream, and the one home of the online adaptation loop
//! (drift → observe → commit → replan).
//!
//! [`UserSession`](crate::serve::UserSession) takes one [`Tenant::step`]
//! per burst, SLO request generation ([`crate::slo`]) one per request.
//! Each caller keeps its own main-RNG order (drawing through
//! [`Tenant::rng`]) and realizes its own set of stages, one jitter
//! factor per realized stage; the truth walk and its jitter come from
//! the drift state's private streams, so they commute with every
//! main-RNG draw and the core never knows which loop it serves.
//!
//! A commit builds a belief ([`LazyFrontier`]), not a compiled
//! frontier: it validates the re-estimated profile and finds its `l*`
//! regimes, and [`Tenant::decide`] walks a regime when a step first
//! queries it. A belief serves only the steps until the next commit,
//! which seldom reach all of its regimes. Lookups allocate nothing; a
//! regime walk allocates, like the commit before it.

use std::sync::Arc;

use mcdnn_obs::metrics;
use mcdnn_partition::{
    CutMix, LazyFrontier, PlanCache, PlanError, RateFrontier, RateProfile, Strategy,
};
use mcdnn_profile::{AdaptConfig, ProfileEstimator};
use mcdnn_rng::Rng;

use crate::adapt::{DriftSpec, DriftState};
use crate::serve::UserSpec;

/// The `(first, second)` cut of a mix: `(cut, cut)` for a uniform
/// decision, `(prev, star)` for a two-type mix.
#[inline]
pub(crate) fn cut_pair(mix: CutMix) -> (usize, usize) {
    match mix {
        CutMix::Uniform { cut } => (cut, cut),
        CutMix::Mix { prev, star, .. } => (prev, star),
    }
}

/// One tenant's serving state: factory frontier and belief, main RNG
/// and bandwidth walk, drift truth, estimator, commit boundary.
pub(crate) struct Tenant {
    strategy: Strategy,
    n_jobs: usize,
    lo_mbps: f64,
    hi_mbps: f64,
    /// The factory-calibrated frontier the tenant opened with: the
    /// anchor for truth timings, estimator ratios and the drift hit
    /// deadline, and what it plans with until its first commit. Never
    /// replaced by adaptation.
    base: Arc<RateFrontier>,
    /// The belief the last commit built, which the tenant plans with
    /// from then on.
    belief: Option<LazyFrontier>,
    rng: Rng,
    bandwidth: f64,
    truth: Option<DriftState>,
    adapt: Option<(AdaptConfig, ProfileEstimator)>,
    steps: usize,
    last_replan: usize,
    replans: u64,
}

impl Tenant {
    /// Open a tenant: fetch its factory frontier from the shared cache,
    /// seed the main RNG from the spec and draw the initial bandwidth.
    /// Drift and adaptation state exist only when configured.
    pub(crate) fn start(
        cache: &PlanCache,
        spec: &UserSpec,
        lo_mbps: f64,
        hi_mbps: f64,
        drift: &DriftSpec,
        adapt: Option<AdaptConfig>,
    ) -> Result<Tenant, PlanError> {
        let frontier =
            cache.frontier(&spec.profile, spec.strategy, spec.n_jobs, lo_mbps, hi_mbps)?;
        let mut rng = Rng::seed_from_u64(spec.seed);
        let bandwidth = lo_mbps * (hi_mbps / lo_mbps).powf(rng.f64());
        let truth = drift.is_active().then(|| DriftState::new(drift, spec.seed));
        let adapt = adapt.map(|cfg| {
            (
                cfg,
                ProfileEstimator::new(spec.profile.k(), spec.profile.setup_ms(), cfg),
            )
        });
        Ok(Tenant {
            strategy: spec.strategy,
            n_jobs: spec.n_jobs,
            lo_mbps,
            hi_mbps,
            base: frontier,
            belief: None,
            rng,
            bandwidth,
            truth,
            adapt,
            steps: 0,
            last_replan: 0,
            replans: 0,
        })
    }

    /// Take one step: advance the truth walk (its own stream) and the
    /// multiplicative bandwidth walk (one main-RNG draw), clamped inside
    /// the compiled range — an out-of-range query would fall back to a
    /// direct, allocating planning pass. Returns the new bandwidth.
    #[inline]
    pub(crate) fn step(&mut self) -> f64 {
        self.steps += 1;
        if let Some(truth) = self.truth.as_mut() {
            truth.step();
        }
        let step = 1.0 + 0.25 * (self.rng.f64() * 2.0 - 1.0);
        self.bandwidth = (self.bandwidth * step).clamp(self.lo_mbps, self.hi_mbps);
        self.bandwidth
    }

    /// The main RNG, for the caller's own draws between steps.
    #[inline]
    pub(crate) fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Steps taken so far.
    #[inline]
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// The compiled bandwidth range `(lo, hi)`, Mbps.
    #[inline]
    pub(crate) fn range(&self) -> (f64, f64) {
        (self.lo_mbps, self.hi_mbps)
    }

    /// The believed decision at `b`: the belief's, walking `b`'s regime
    /// on its first query, or the factory frontier's before any commit.
    #[inline]
    pub(crate) fn decide(&mut self, b: f64) -> CutMix {
        match self.belief.as_mut() {
            Some(belief) => belief.decide(b),
            None => self.base.decide(b),
        }
    }

    /// The believed profile — what the tenant plans with.
    #[inline]
    pub(crate) fn profile(&self) -> &RateProfile {
        self.belief
            .as_ref()
            .map_or(self.base.profile(), LazyFrontier::profile)
    }

    /// Close the tenant into the believed frontier it ended on, walking
    /// the regimes of its belief no step reached.
    pub(crate) fn into_frontier(self) -> Arc<RateFrontier> {
        match self.belief {
            Some(belief) => Arc::new(belief.into_frontier()),
            None => self.base,
        }
    }

    /// Beliefs built by estimator commits.
    pub(crate) fn replans(&self) -> u64 {
        self.replans
    }

    /// True when the true platform drifts away from the factory profile.
    /// Without drift, realized times equal the factory times bit-for-bit.
    #[inline]
    pub(crate) fn is_drifting(&self) -> bool {
        self.truth.is_some()
    }

    /// True when an estimator observes this tenant's stages.
    #[inline]
    pub(crate) fn is_adapting(&self) -> bool {
        self.adapt.is_some()
    }

    /// One jitter factor from the truth's noise stream (1.0 without
    /// drift or jitter — no draw).
    #[inline]
    fn jitter(&mut self) -> f64 {
        self.truth.as_mut().map_or(1.0, DriftState::jitter_factor)
    }

    /// Realized on-device time of one job cut at `cut`: the factory
    /// time under the truth's device scale, times one jitter factor.
    #[inline]
    pub(crate) fn realize_device(&mut self, cut: usize) -> f64 {
        let scale = self.truth.as_ref().map_or(1.0, |t| t.device_scale);
        self.base.profile().mobile_ms(cut) * scale * self.jitter()
    }

    /// Realized upload time of one job cut at `cut` on a link the
    /// tenant believes runs at `b` Mbps: the factory upload at the true
    /// rate, times one jitter factor.
    #[inline]
    pub(crate) fn realize_upload(&mut self, cut: usize, b: f64) -> f64 {
        let link = self.truth.as_ref().map_or(1.0, |t| t.link_scale);
        self.base.profile().upload_ms_at(cut, b * link) * self.jitter()
    }

    /// Realized cloud slowdown: the truth's cloud scale times one
    /// jitter factor.
    #[inline]
    pub(crate) fn realize_cloud(&mut self) -> f64 {
        let scale = self.truth.as_ref().map_or(1.0, |t| t.cloud_scale);
        scale * self.jitter()
    }

    /// Drift hit metric: a step hits when its realized makespan stays
    /// within `slack ×` the factory frontier's optimum at bandwidth `b`
    /// — a fixed reference, identical for adaptive and frozen runs.
    /// Always a hit without drift.
    #[inline]
    pub(crate) fn hit(&self, makespan_ms: f64, b: f64) -> bool {
        match self.truth.as_ref() {
            Some(t) => makespan_ms <= t.spec().slack * self.base.makespan_at(b),
            None => true,
        }
    }

    /// Feed one step's realized stage times back through the estimator:
    /// `stages` holds `[device, upload]` ms of a job at the first cut of
    /// `mix`, then of a job at the second (read only for a two-type
    /// mix). Device samples become ratios against the factory base;
    /// upload samples pair the paper's `r` at the planned bandwidth `b`
    /// with the realized ms. A stage with no factory device time or no
    /// payload carries no evidence and is skipped. `cloud` is a realized
    /// cloud slowdown, when the caller measured one. A no-op without
    /// adaptation; allocation-free (in-place EWMA and ring writes).
    #[inline]
    pub(crate) fn observe(&mut self, mix: CutMix, b: f64, stages: [f64; 4], cloud: Option<f64>) {
        let Some((_, est)) = self.adapt.as_mut() else {
            return;
        };
        let base = self.base.profile();
        let mut feed = |cut: usize, device_ms: f64, upload_ms: f64| {
            let bf = base.mobile_ms(cut);
            if bf > 0.0 {
                est.observe_device(cut, device_ms / bf);
            }
            if base.bytes(cut) > 0 {
                let r = base.bytes(cut) as f64 * 8.0 / (b * 1e3);
                est.observe_upload(r, upload_ms);
            }
        };
        let (cut1, cut2) = cut_pair(mix);
        feed(cut1, stages[0], stages[1]);
        if matches!(mix, CutMix::Mix { .. }) {
            feed(cut2, stages[2], stages[3]);
        }
        if let Some(ratio) = cloud {
            est.observe_cloud(ratio);
        }
    }

    /// Commit gated estimates and replan, if this step sits on a
    /// `commit_every` boundary and the estimator's confidence gate is
    /// crossed ([`Tenant::replan`]). Returns `true` when it replanned;
    /// the rebuilt believed profile is then [`Tenant::profile`], for
    /// the caller's own set-ups. Without adaptation, between
    /// boundaries, or while the gate holds, this is a read-only,
    /// allocation-free check returning `false`.
    #[inline]
    pub(crate) fn commit(&mut self) -> Result<bool, PlanError> {
        let Some((cfg, est)) = self.adapt.as_mut() else {
            return Ok(false);
        };
        let every = cfg.commit_every;
        if every == 0 || !self.steps.is_multiple_of(every) || !est.commit() {
            return Ok(false);
        }
        self.replan().map(|()| true)
    }

    /// The replan after a commit: the believed profile is rebuilt **from
    /// the factory base** under the committed scales, stamped with the
    /// estimator's generation and made a belief private to this tenant,
    /// validated now and walked on use. Only this tenant, or an
    /// identical re-run of it, could ask for a re-estimate, so it
    /// bypasses the shared [`PlanCache`], which holds factory frontiers
    /// only; SLO runs that compare policies on one fleet generate once
    /// into a [`SloStreams`](crate::SloStreams) and schedule it per
    /// policy instead.
    #[inline(never)]
    fn replan(&mut self) -> Result<(), PlanError> {
        let est = &self.adapt.as_ref().expect("replan follows a commit").1;
        metrics::ADAPT_COMMITS.add(1);
        let base = self.base.profile();
        if let Some(truth) = self.truth.as_ref() {
            let committed = est.device_scales()[base.k()];
            let err = (committed - truth.device_scale).abs() / truth.device_scale.max(1e-9);
            metrics::ADAPT_EST_ERR_REL.observe(err);
        }
        let believed = base
            .reestimated(
                est.device_scales(),
                est.cloud_scale(),
                est.upload_scale(),
                est.setup_ms(),
            )
            .with_generation(est.commits());
        self.belief = Some(LazyFrontier::new(
            believed,
            self.strategy,
            self.n_jobs,
            self.lo_mbps,
            self.hi_mbps,
        )?);
        metrics::ADAPT_RECOMPILES.add(1);
        metrics::ADAPT_STALENESS_BURSTS.observe((self.steps - self.last_replan) as f64);
        self.last_replan = self.steps;
        self.replans += 1;
        Ok(())
    }
}
