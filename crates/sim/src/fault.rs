//! Deterministic fault injection for the pipeline substrates.
//!
//! The paper assumes a stable uplink and a cloud that never stalls; a
//! deployed pipeline sees rate collapse, link blackouts, dropped
//! transfers and cloud stragglers as the common case. This module
//! models those faults as *data* — a [`FaultPlan`] is an explicit,
//! seed-reproducible schedule of fault windows and per-job afflictions.
//! A [`FaultedRun`] (plan and fallback time) is a field of
//! both substrates' configs — the discrete-event simulator's
//! [`DesConfig`](crate::des::DesConfig) and the threaded executor's
//! [`ExecutorConfig`](crate::executor::ExecutorConfig) — which replay it
//! bit-identically; its default, the empty plan, is the fault-free run.
//!
//! Fault kinds:
//! * [`Fault::RateCollapse`] — the uplink rate drops to a fraction of
//!   nominal over a time window (Wi-Fi contention, cell handover);
//! * [`Fault::Blackout`] — the link carries nothing for a window
//!   (a collapse with factor 0: tunnels, AP roaming);
//! * [`Fault::UploadLoss`] — a specific job's first upload attempts are
//!   lost after consuming link time (corrupted transfer, server 5xx);
//! * [`Fault::CloudStraggle`] — a specific job's cloud stage runs
//!   slower by a factor (multi-tenant interference).
//!
//! Recovery is a fixed retry policy — exponential backoff from 2 ms,
//! doubling per retry and capped at 64 ms, within a budget of four
//! attempts — plus the local-fallback path: when the attempt budget is
//! exhausted the mobile device finishes the job's remaining layers
//! itself.
//!
//! Every fault and recovery decision is recorded as a [`FaultEvent`];
//! the chaos drills render them as a canonical textual log whose
//! digest the chaos tests pin across repeated seeded runs.

use mcdnn_rng::{fnv_fold, Rng, FNV_OFFSET};

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Uplink rate multiplied by `factor` (in `(0, 1)`) during
    /// `[from_ms, until_ms)`.
    RateCollapse {
        /// Window start, ms.
        from_ms: f64,
        /// Window end (exclusive), ms.
        until_ms: f64,
        /// Remaining fraction of the nominal rate, in `(0, 1)`.
        factor: f64,
    },
    /// Uplink carries nothing during `[from_ms, until_ms)`.
    Blackout {
        /// Window start, ms.
        from_ms: f64,
        /// Window end (exclusive), ms.
        until_ms: f64,
    },
    /// The first `losses` upload attempts of job `job` are lost after
    /// occupying the link for their full transfer time.
    UploadLoss {
        /// Afflicted job id.
        job: usize,
        /// Number of consecutive lost attempts.
        losses: u32,
    },
    /// Job `job`'s cloud stage runs `factor` times slower (`factor > 1`).
    CloudStraggle {
        /// Afflicted job id.
        job: usize,
        /// Slowdown multiplier, `> 1`.
        factor: f64,
    },
}

/// A deterministic schedule of faults, replayable bit-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (the substrates then reproduce their
    /// fault-free counterparts exactly).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from explicit faults. Panics on malformed windows
    /// or factors so an impossible schedule is caught at construction.
    pub fn new(faults: Vec<Fault>) -> Self {
        for fault in &faults {
            match *fault {
                Fault::RateCollapse {
                    from_ms,
                    until_ms,
                    factor,
                } => {
                    assert!(
                        from_ms >= 0.0 && until_ms > from_ms,
                        "collapse window must be non-empty and non-negative"
                    );
                    assert!(
                        factor > 0.0 && factor < 1.0,
                        "collapse factor must be in (0, 1); use Blackout for 0"
                    );
                }
                Fault::Blackout { from_ms, until_ms } => {
                    assert!(
                        from_ms >= 0.0 && until_ms > from_ms,
                        "blackout window must be non-empty and non-negative"
                    );
                }
                Fault::UploadLoss { losses, .. } => {
                    assert!(losses > 0, "an upload-loss fault must lose something");
                }
                Fault::CloudStraggle { factor, .. } => {
                    assert!(factor > 1.0, "a straggler must be slower than nominal");
                }
            }
        }
        FaultPlan { faults }
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of consecutive upload attempts job `job` loses.
    pub(crate) fn upload_losses(&self, job: usize) -> u32 {
        self.faults
            .iter()
            .map(|f| match *f {
                Fault::UploadLoss { job: j, losses } if j == job => losses,
                _ => 0,
            })
            .sum()
    }

    /// Cloud slowdown factor for job `job` (1.0 when unafflicted;
    /// overlapping straggles multiply).
    pub(crate) fn cloud_factor(&self, job: usize) -> f64 {
        self.faults
            .iter()
            .map(|f| match *f {
                Fault::CloudStraggle { job: j, factor } if j == job => factor,
                _ => 1.0,
            })
            .product()
    }

    /// The piecewise-constant uplink-rate timeline induced by the
    /// collapse and blackout windows (rate factor 1.0 outside them; the
    /// minimum factor wins where windows overlap).
    pub(crate) fn link_timeline(&self) -> LinkTimeline {
        let windows: Vec<(f64, f64, f64)> = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::RateCollapse {
                    from_ms,
                    until_ms,
                    factor,
                } => Some((from_ms, until_ms, factor)),
                Fault::Blackout { from_ms, until_ms } => Some((from_ms, until_ms, 0.0)),
                _ => None,
            })
            .collect();
        LinkTimeline::from_windows(&windows)
    }

    /// Draw a random plan from `spec`, deterministically in `seed`.
    ///
    /// The draw order is fixed (collapse window, blackout window, then
    /// per-job losses and straggles in job-id order), so the same
    /// `(spec, n_jobs, horizon_ms, seed)` always yields the same plan —
    /// the property the chaos determinism tests rely on.
    pub fn random(spec: &FaultSpec, n_jobs: usize, horizon_ms: f64, seed: u64) -> Self {
        assert!(horizon_ms > 0.0, "horizon must be positive");
        let mut rng = Rng::seed_from_u64(seed);
        let mut faults = Vec::new();
        if spec.collapse_prob > 0.0 && rng.gen_bool(spec.collapse_prob) {
            let len = horizon_ms * rng.gen_range(spec.collapse_frac.0..spec.collapse_frac.1);
            let from = rng.gen_range(0.0..(horizon_ms - len).max(f64::MIN_POSITIVE));
            let factor = rng.gen_range(spec.collapse_factor.0..spec.collapse_factor.1);
            faults.push(Fault::RateCollapse {
                from_ms: from,
                until_ms: from + len,
                factor,
            });
        }
        if spec.blackout_prob > 0.0 && rng.gen_bool(spec.blackout_prob) {
            let len = horizon_ms * rng.gen_range(spec.blackout_frac.0..spec.blackout_frac.1);
            let from = rng.gen_range(0.0..(horizon_ms - len).max(f64::MIN_POSITIVE));
            faults.push(Fault::Blackout {
                from_ms: from,
                until_ms: from + len,
            });
        }
        for job in 0..n_jobs {
            if spec.loss_prob > 0.0 && rng.gen_bool(spec.loss_prob) {
                let losses = rng.gen_range(1..=spec.max_losses.max(1));
                faults.push(Fault::UploadLoss { job, losses });
            }
            if spec.straggle_prob > 0.0 && rng.gen_bool(spec.straggle_prob) {
                let factor = rng.gen_range(spec.straggle_factor.0..spec.straggle_factor.1);
                faults.push(Fault::CloudStraggle { job, factor });
            }
        }
        FaultPlan::new(faults)
    }
}

/// Probabilities and magnitudes for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability of one rate-collapse window.
    pub collapse_prob: f64,
    /// Collapse window length as a fraction of the horizon (uniform).
    pub collapse_frac: (f64, f64),
    /// Remaining rate fraction during a collapse (uniform, in `(0,1)`).
    pub collapse_factor: (f64, f64),
    /// Probability of one blackout window.
    pub blackout_prob: f64,
    /// Blackout length as a fraction of the horizon (uniform).
    pub blackout_frac: (f64, f64),
    /// Per-job probability of lost upload attempts.
    pub loss_prob: f64,
    /// Maximum consecutive losses per afflicted job.
    pub max_losses: u32,
    /// Per-job probability of a cloud straggle.
    pub straggle_prob: f64,
    /// Cloud slowdown factor range (uniform, `> 1`).
    pub straggle_factor: (f64, f64),
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            collapse_prob: 0.5,
            collapse_frac: (0.1, 0.4),
            collapse_factor: (0.2, 0.8),
            blackout_prob: 0.25,
            blackout_frac: (0.05, 0.2),
            loss_prob: 0.15,
            max_losses: 2,
            straggle_prob: 0.1,
            straggle_factor: (1.5, 4.0),
        }
    }
}

/// Piecewise-constant uplink-rate factor over time.
///
/// Built from fault windows by [`FaultPlan::link_timeline`]: the factor
/// is 1.0 outside every window and the *minimum* factor of the windows
/// covering an instant inside (a blackout inside a collapse is still a
/// blackout). Transfers progress through the timeline by integrating
/// the rate: `work_ms` of nominal transfer time needs `work_ms / φ` of
/// wall time in a segment with factor `φ`, and makes no progress while
/// `φ = 0`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinkTimeline {
    /// `(start_ms, factor)` change points, sorted by start; the factor
    /// holds until the next point. Implicit `(0, 1.0)` head and a final
    /// segment extending to infinity.
    points: Vec<(f64, f64)>,
}

impl LinkTimeline {
    /// Build from `(from_ms, until_ms, factor)` windows.
    pub(crate) fn from_windows(windows: &[(f64, f64, f64)]) -> Self {
        let mut bounds: Vec<f64> = windows
            .iter()
            .flat_map(|&(a, b, _)| [a, b])
            .filter(|t| *t > 0.0)
            .collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let mut points = Vec::with_capacity(bounds.len() + 1);
        let mut prev = 1.0f64;
        let factor_at = |t: f64| -> f64 {
            windows
                .iter()
                .filter(|&&(a, b, _)| t >= a && t < b)
                .map(|&(_, _, f)| f)
                .fold(1.0, f64::min)
        };
        let head = factor_at(0.0);
        if head != 1.0 {
            points.push((0.0, head));
            prev = head;
        }
        for t in bounds {
            let f = factor_at(t);
            if f != prev {
                points.push((t, f));
                prev = f;
            }
        }
        LinkTimeline { points }
    }

    /// Rate factor at time `t_ms`.
    #[cfg(test)]
    fn factor_at(&self, t_ms: f64) -> f64 {
        match self.points.iter().rposition(|&(s, _)| s <= t_ms) {
            Some(i) => self.points[i].1,
            None => 1.0,
        }
    }

    /// Completion time of a transfer needing `work_ms` of nominal link
    /// time, starting at `start_ms`: walks the segments integrating the
    /// rate. Finite for a finite start and work, because every fault
    /// window ends (the final open segment has factor 1.0); a
    /// non-finite start or work returns `start_ms + work_ms` unwalked.
    pub(crate) fn transfer_end(&self, start_ms: f64, work_ms: f64) -> f64 {
        if work_ms <= 0.0 {
            return start_ms;
        }
        if !(start_ms.is_finite() && work_ms.is_finite()) {
            return start_ms + work_ms;
        }
        let mut t = start_ms;
        let mut remaining = work_ms;
        let mut seg = match self.points.iter().rposition(|&(s, _)| s <= t) {
            Some(i) => i,
            None => {
                // Before the first change point: factor 1.0 until it.
                let first = self.points.first().map_or(f64::INFINITY, |&(s, _)| s);
                let room = first - t;
                if remaining <= room {
                    return t + remaining;
                }
                remaining -= room;
                t = first;
                0
            }
        };
        loop {
            let factor = self.points.get(seg).map_or(1.0, |&(_, f)| f);
            let seg_end = self.points.get(seg + 1).map_or(f64::INFINITY, |&(s, _)| s);
            if factor > 0.0 {
                let capacity = (seg_end - t) * factor;
                if remaining <= capacity {
                    return t + remaining / factor;
                }
                remaining -= capacity;
            }
            debug_assert!(
                seg_end.is_finite(),
                "final open segment has factor 1.0, so transfers terminate"
            );
            t = seg_end;
            seg += 1;
        }
    }
}

/// Delay before the first retry of a lost upload, ms.
const RETRY_BASE_MS: f64 = 2.0;
/// Backoff multiplier per further retry.
const RETRY_MULTIPLIER: f64 = 2.0;
/// Backoff cap, ms.
const RETRY_CAP_MS: f64 = 64.0;
/// Upload attempt budget, first try included; exhausting it triggers
/// the local fallback.
pub(crate) const MAX_ATTEMPTS: u32 = 4;
/// Time after which one attempt is declared dead when the link carries
/// nothing at all, ms (the degradation ladder prices a blackout burst
/// with it).
const ATTEMPT_TIMEOUT_MS: f64 = 100.0;

/// Backoff before retry number `retry` (1-based: the delay after the
/// `retry`-th failed attempt), exponentially grown and capped.
pub(crate) fn backoff_ms(retry: u32) -> f64 {
    assert!(retry >= 1, "backoff follows a failed attempt");
    let exp = RETRY_MULTIPLIER.powi(retry as i32 - 1);
    (RETRY_BASE_MS * exp).min(RETRY_CAP_MS)
}

/// Worst-case time burned before giving up on a job whose every
/// attempt times out: all attempts at [`ATTEMPT_TIMEOUT_MS`] plus every
/// backoff in between.
pub(crate) fn exhaustion_penalty_ms() -> f64 {
    let timeouts = MAX_ATTEMPTS as f64 * ATTEMPT_TIMEOUT_MS;
    let backoffs: f64 = (1..MAX_ATTEMPTS).map(backoff_ms).sum();
    timeouts + backoffs
}

/// The faults one pipeline run replays: a field of
/// [`DesConfig`](crate::des::DesConfig) and of
/// [`ExecutorConfig`](crate::executor::ExecutorConfig). The default is
/// the empty plan, which is the fault-free run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultedRun {
    /// The fault schedule to replay.
    pub faults: FaultPlan,
    /// Extra mobile compute (ms) needed to finish one job entirely
    /// on-device once its upload is abandoned — for a job cut at `l`
    /// this is `f(k) − f(l)`, the remaining layers' mobile time.
    pub local_fallback_ms: f64,
}

impl FaultedRun {
    /// The run-wide input check both substrates make on every run.
    pub(crate) fn check(&self) {
        assert!(self.local_fallback_ms >= 0.0, "fallback time must be >= 0");
    }
}

/// What happened at one fault or recovery decision point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEventKind {
    /// An upload attempt completed its transfer but was lost.
    UploadLost {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A retry was scheduled after a loss.
    RetryScheduled {
        /// 1-based number of the upcoming attempt.
        attempt: u32,
        /// Backoff delay before it, ms.
        delay_ms: f64,
    },
    /// An upload finally succeeded after at least one loss.
    UploadRecovered {
        /// Total attempts consumed.
        attempts: u32,
    },
    /// The attempt budget was exhausted; the job completes on-device.
    LocalFallback,
    /// The job's cloud stage ran slower by `factor`.
    CloudStraggled {
        /// Slowdown multiplier.
        factor: f64,
    },
}

/// One entry of the fault/recovery event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time of the decision, ms.
    pub t_ms: f64,
    /// Job id.
    pub job: usize,
    /// What happened.
    pub kind: FaultEventKind,
}

impl FaultEventKind {
    /// Total-order rank used to break `(time, job)` ties so logs are
    /// deterministic even when events are recorded from different
    /// executor threads.
    pub(crate) fn rank(&self) -> u8 {
        match self {
            FaultEventKind::UploadLost { .. } => 0,
            FaultEventKind::RetryScheduled { .. } => 1,
            FaultEventKind::UploadRecovered { .. } => 2,
            FaultEventKind::LocalFallback => 3,
            FaultEventKind::CloudStraggled { .. } => 4,
        }
    }
}

/// Sort an event log into its canonical order: time, then job id, then
/// event kind.
pub(crate) fn sort_events(events: &mut [FaultEvent]) {
    events.sort_by(|a, b| {
        a.t_ms
            .total_cmp(&b.t_ms)
            .then(a.job.cmp(&b.job))
            .then(a.kind.rank().cmp(&b.kind.rank()))
    });
}

/// Render the canonical textual event log: one line per event, fixed
/// decimal formatting, sorted the way the substrates emit (time, then
/// job id). Bit-identical across runs of the same fault schedule — the
/// property [`log_digest`] lets tests pin cheaply.
pub(crate) fn format_events(events: &[FaultEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in events {
        let _ = write!(out, "t={:.3} job={} ", e.t_ms, e.job);
        match e.kind {
            FaultEventKind::UploadLost { attempt } => {
                let _ = writeln!(out, "upload_lost attempt={attempt}");
            }
            FaultEventKind::RetryScheduled { attempt, delay_ms } => {
                let _ = writeln!(out, "retry_scheduled attempt={attempt} delay={delay_ms:.3}");
            }
            FaultEventKind::UploadRecovered { attempts } => {
                let _ = writeln!(out, "upload_recovered attempts={attempts}");
            }
            FaultEventKind::LocalFallback => {
                let _ = writeln!(out, "local_fallback");
            }
            FaultEventKind::CloudStraggled { factor } => {
                let _ = writeln!(out, "cloud_straggled factor={factor:.3}");
            }
        }
    }
    out
}

/// FNV-1a digest of a textual log; two runs of the same fault schedule
/// must produce equal digests (chaos determinism contract).
pub(crate) fn log_digest(log: &str) -> u64 {
    log.bytes().fold(FNV_OFFSET, |h, b| fnv_fold(h, b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_timeline_is_identity() {
        let tl = LinkTimeline::from_windows(&[]);
        assert!(tl.points.is_empty());
        assert_eq!(tl.factor_at(0.0), 1.0);
        assert_eq!(tl.factor_at(1e9), 1.0);
        assert_eq!(tl.transfer_end(5.0, 7.0), 12.0);
    }

    #[test]
    fn collapse_window_slows_transfers() {
        // Factor 0.5 on [10, 30): a 10 ms transfer starting at 10 takes
        // 20 ms of wall time.
        let tl = LinkTimeline::from_windows(&[(10.0, 30.0, 0.5)]);
        assert_eq!(tl.factor_at(9.9), 1.0);
        assert_eq!(tl.factor_at(10.0), 0.5);
        assert_eq!(tl.factor_at(29.9), 0.5);
        assert_eq!(tl.factor_at(30.0), 1.0);
        assert!((tl.transfer_end(10.0, 10.0) - 30.0).abs() < 1e-12);
        // Straddling the boundary: 5 ms before (5 work) + the rest after.
        // Start 25: 5 ms window left at 0.5 → 2.5 work; 7.5 left at 1.0.
        assert!((tl.transfer_end(25.0, 10.0) - 37.5).abs() < 1e-12);
        // Entirely before the window.
        assert_eq!(tl.transfer_end(0.0, 5.0), 5.0);
    }

    #[test]
    fn blackout_stalls_transfers_until_window_ends() {
        let tl = LinkTimeline::from_windows(&[(10.0, 40.0, 0.0)]);
        // Start mid-blackout: no progress until 40, then full rate.
        assert!((tl.transfer_end(15.0, 8.0) - 48.0).abs() < 1e-12);
        // Start before: 10 of 12 ms done by the blackout, 2 left after.
        assert!((tl.transfer_end(0.0, 12.0) - 42.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_transfers_return_instead_of_looping() {
        // An infinite start once made every segment's capacity
        // `inf - inf = NaN`, so the walk never ended.
        let tl = LinkTimeline::from_windows(&[(10.0, 40.0, 0.5)]);
        assert_eq!(tl.transfer_end(f64::INFINITY, 5.0), f64::INFINITY);
        assert_eq!(tl.transfer_end(15.0, f64::INFINITY), f64::INFINITY);
        assert!(tl.transfer_end(f64::NAN, 5.0).is_nan());
        assert!(tl.transfer_end(15.0, f64::NAN).is_nan());
    }

    #[test]
    fn overlapping_windows_take_the_minimum_factor() {
        let tl = LinkTimeline::from_windows(&[(0.0, 100.0, 0.5), (20.0, 30.0, 0.0)]);
        assert_eq!(tl.factor_at(10.0), 0.5);
        assert_eq!(tl.factor_at(25.0), 0.0);
        assert_eq!(tl.factor_at(30.0), 0.5);
        assert_eq!(tl.factor_at(100.0), 1.0);
        // 20 ms of work from t=0: 10 done by 20, stall to 30, the
        // remaining 10 at 0.5 ends at 50.
        assert!((tl.transfer_end(0.0, 20.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn plan_accessors() {
        let plan = FaultPlan::new(vec![
            Fault::UploadLoss { job: 3, losses: 2 },
            Fault::CloudStraggle { job: 5, factor: 2.0 },
            Fault::Blackout {
                from_ms: 1.0,
                until_ms: 2.0,
            },
        ]);
        assert!(!plan.is_empty());
        assert_eq!(plan.upload_losses(3), 2);
        assert_eq!(plan.upload_losses(4), 0);
        assert_eq!(plan.cloud_factor(5), 2.0);
        assert_eq!(plan.cloud_factor(3), 1.0);
        assert_eq!(plan.link_timeline().factor_at(1.5), 0.0);
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::none().link_timeline().points.is_empty());
    }

    #[test]
    #[should_panic(expected = "collapse factor")]
    fn zero_collapse_factor_rejected() {
        FaultPlan::new(vec![Fault::RateCollapse {
            from_ms: 0.0,
            until_ms: 1.0,
            factor: 0.0,
        }]);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let spec = FaultSpec::default();
        let a = FaultPlan::random(&spec, 20, 500.0, 42);
        let b = FaultPlan::random(&spec, 20, 500.0, 42);
        assert_eq!(a, b, "same seed must reproduce the plan");
        let c = FaultPlan::random(&spec, 20, 500.0, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_plan_respects_spec_bounds() {
        let spec = FaultSpec {
            collapse_prob: 1.0,
            blackout_prob: 1.0,
            loss_prob: 1.0,
            straggle_prob: 1.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::random(&spec, 10, 300.0, 7);
        for fault in plan.faults() {
            match *fault {
                Fault::RateCollapse {
                    from_ms,
                    until_ms,
                    factor,
                } => {
                    assert!(from_ms >= 0.0 && until_ms <= 300.0 + 1e-9);
                    assert!((0.2..=0.8).contains(&factor));
                }
                Fault::Blackout { from_ms, until_ms } => {
                    assert!(from_ms >= 0.0 && until_ms <= 300.0 + 1e-9);
                }
                Fault::UploadLoss { job, losses } => {
                    assert!(job < 10 && (1..=2).contains(&losses));
                }
                Fault::CloudStraggle { job, factor } => {
                    assert!(job < 10 && factor > 1.0 && factor < 4.0);
                }
            }
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff_ms(1), 2.0);
        assert_eq!(backoff_ms(2), 4.0);
        assert_eq!(backoff_ms(6), 64.0);
        assert_eq!(backoff_ms(20), 64.0, "cap holds");
        // 4 timeouts + backoffs 2 + 4 + 8.
        assert!((exhaustion_penalty_ms() - (400.0 + 14.0)).abs() < 1e-12);
    }

    #[test]
    fn event_log_formatting_and_digest_are_stable() {
        let events = [
            FaultEvent {
                t_ms: 12.5,
                job: 3,
                kind: FaultEventKind::UploadLost { attempt: 1 },
            },
            FaultEvent {
                t_ms: 12.5,
                job: 3,
                kind: FaultEventKind::RetryScheduled {
                    attempt: 2,
                    delay_ms: 2.0,
                },
            },
            FaultEvent {
                t_ms: 30.25,
                job: 3,
                kind: FaultEventKind::UploadRecovered { attempts: 2 },
            },
        ];
        let log = format_events(&events);
        assert_eq!(
            log,
            "t=12.500 job=3 upload_lost attempt=1\n\
             t=12.500 job=3 retry_scheduled attempt=2 delay=2.000\n\
             t=30.250 job=3 upload_recovered attempts=2\n"
        );
        assert_eq!(log_digest(&log), log_digest(&log.clone()));
        assert_ne!(log_digest(&log), log_digest("t=12.500 job=4"));
        assert_eq!(log_digest(""), FNV_OFFSET);
    }
}
