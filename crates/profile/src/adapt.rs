//! Online profile learning: drift-adaptive estimation of the device,
//! cloud, and link parameters a [`crate::CostProfile`] is built from.
//!
//! The paper pins its cost model once — a lookup table for `f`, a
//! linear regression `t = w0 + w1·r` for `g` (§6.1) — and every plan
//! downstream trusts those constants forever. Real fleets drift:
//! thermal throttling slows the device, congestion bends the link.
//! This module is the sensor layer that closes the
//! observe→estimate→replan loop:
//!
//! * `Ewma` — a debiased exponentially-weighted moving average
//!   tracking one multiplicative scale (realized / base).
//! * `WindowRegression` — a fixed-capacity sliding window of
//!   `(ratio, upload_ms)` samples refit by [`crate::LinearRegression`],
//!   re-learning the paper's `(w0, w1)` online.
//! * [`ProfileEstimator`] — one per tenant: per-layer device scales, a
//!   cloud scale, and the upload regression, with **confidence gating**
//!   — estimates accumulate freely, but a commit (and hence a replan)
//!   only happens once 8 observations have arrived *and* some
//!   committed parameter would move by at least 5% (relative). Between
//!   commits the serving path is read-only and allocation-free. A
//!   replan builds a belief private to its tenant, outside the shared
//!   plan cache.
//!
//! Everything here is deterministic in the observation stream: no
//! clocks, no RNG — two estimators fed the same samples in the same
//! order are bit-identical, whatever thread they live on.

use crate::regression::LinearRegression;

/// Debiased exponentially-weighted moving average.
///
/// The classic EWMA `s ← (1−α)s + αx` started at `s = 0` is biased low
/// until ~`1/α` samples have arrived. Tracking the total weight
/// `w ← (1−α)w + α` alongside and reporting `s / w` removes the bias
/// exactly (Kingma & Ba's Adam uses the same correction), so the
/// estimator is trustworthy from the very first observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ewma {
    alpha: f64,
    s: f64,
    w: f64,
    n: u64,
}

impl Ewma {
    /// New tracker with smoothing factor `alpha` in `(0, 1]`.
    pub(crate) fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            s: 0.0,
            w: 0.0,
            n: 0,
        }
    }

    /// Fold one observation in. Non-finite samples are ignored — a
    /// sensor glitch must not poison the scale estimate.
    #[inline]
    pub(crate) fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.s = (1.0 - self.alpha) * self.s + self.alpha * x;
        self.w = (1.0 - self.alpha) * self.w + self.alpha;
        self.n += 1;
    }

    /// Debiased estimate, `None` before the first observation.
    #[inline]
    pub(crate) fn value(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.s / self.w)
        }
    }
}

/// Fixed-capacity sliding window of `(x, y)` samples refit on demand by
/// ordinary least squares. The buffer is allocated once at
/// construction; [`WindowRegression::push`] overwrites the oldest
/// sample in place, so the steady-state observe path never allocates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowRegression {
    buf: Vec<(f64, f64)>,
    cap: usize,
    next: usize,
}

impl WindowRegression {
    /// New window holding at most `cap` samples (`cap >= 2`).
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(2);
        WindowRegression {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
        }
    }

    /// Record one sample, evicting the oldest once the window is full.
    #[inline]
    pub(crate) fn push(&mut self, x: f64, y: f64) {
        if !(x.is_finite() && y.is_finite()) {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push((x, y));
        } else {
            self.buf[self.next] = (x, y);
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Least-squares fit over the current window. OLS is permutation
    /// invariant, so the physical ring order is fit directly — no
    /// reordering, no allocation. `None` while the design is degenerate.
    pub(crate) fn fit(&self) -> Option<LinearRegression> {
        LinearRegression::fit(&self.buf)
    }
}

/// EWMA smoothing factor for the device and cloud scale trackers.
const ALPHA: f64 = 0.2;
/// Relative movement a committed parameter must show before a commit
/// (and the frontier recompile it triggers) is allowed: drift under 5%
/// is ignored.
const GATE: f64 = 0.05;
/// Minimum observations before the first commit may happen.
const MIN_OBS: u64 = 8;
/// Sliding-window capacity for the upload `(w0, w1)` regression.
const WINDOW: usize = 64;

/// Online adaptation switched on: `Some(AdaptConfig::default())` in a
/// serving config gives each tenant a [`ProfileEstimator`]. It carries
/// no settings; the estimator's are fixed — EWMA smoothing α = 0.2, a
/// 5% relative commit gate, at least 8 observations before the first
/// commit and a 64-sample upload regression window — and the serving
/// loops consult the gate every 16 steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct AdaptConfig;

/// One tenant's online view of its device, cloud, and link: EWMA scale
/// trackers per layer plus the sliding-window upload regression, and
/// the last *committed* snapshot of each. The committed snapshot is
/// what plans are built from; it only moves at an explicit
/// [`ProfileEstimator::commit`] that passes the confidence gate.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEstimator {
    /// Per-layer device scale trackers, index 0..=k (index 0 is the
    /// empty prefix and stays at scale 1). Tracker `i` holds only
    /// *direct* evidence — realized prefixes that ended exactly at
    /// layer `i`.
    device: Vec<Ewma>,
    /// Pooled device evidence across every observed cut: the O(1)
    /// fallback for layers the ladder has not visited directly.
    device_all: Ewma,
    cloud: Ewma,
    upload: WindowRegression,
    /// Committed per-layer device scales (multiplier on base `f`).
    committed_device: Vec<f64>,
    committed_cloud: f64,
    /// Committed upload intercept (the re-learned `w0`, in ms).
    committed_w0: f64,
    /// Committed upload slope scale (re-learned `w1`; base is 1).
    committed_w1: f64,
    base_setup_ms: f64,
    observations: u64,
    /// Set the moment any sample lands `GATE / 2` (relative) away from
    /// its committed value, cleared on commit. While false the full
    /// gate scan is provably redundant — a debiased EWMA is a convex
    /// combination of its samples, so if every sample since the last
    /// commit sits within `GATE / 2` of the committed value the
    /// smoothed estimate cannot be `GATE` away — which keeps the
    /// boundary check O(1) on the undisturbed serving path.
    suspect: bool,
}

impl ProfileEstimator {
    /// New estimator for a `k`-layer profile whose base network model
    /// has intercept `base_setup_ms`. All committed scales start at 1
    /// (trust the factory calibration until told otherwise).
    pub fn new(k: usize, base_setup_ms: f64) -> Self {
        ProfileEstimator {
            device: vec![Ewma::new(ALPHA); k + 1],
            device_all: Ewma::new(ALPHA),
            cloud: Ewma::new(ALPHA),
            upload: WindowRegression::new(WINDOW),
            committed_device: vec![1.0; k + 1],
            committed_cloud: 1.0,
            committed_w0: base_setup_ms,
            committed_w1: 1.0,
            base_setup_ms,
            observations: 0,
            suspect: false,
        }
    }

    /// Record a realized mobile stage: the prefix up to `cut` ran at
    /// `ratio` = realized / base. The evidence lands in two O(1)
    /// places: the pooled tracker (shared by every layer as a
    /// fallback, exact under the multiplicative drift model) and the
    /// direct tracker for `cut` itself, which dominates its own layer
    /// under heterogeneous drift. Keeping the observe path O(1) in
    /// the layer count is what holds the zero-drift serving overhead
    /// near zero.
    #[inline]
    pub fn observe_device(&mut self, cut: usize, ratio: f64) {
        self.device_all.observe(ratio);
        let idx = cut.min(self.device.len().saturating_sub(1));
        if idx > 0 {
            self.device[idx].observe(ratio);
            self.suspect |= self.deviates(ratio, self.committed_device[idx]);
        }
        self.observations += 1;
    }

    /// Record a realized cloud stage at `ratio` = realized / base.
    #[inline]
    pub fn observe_cloud(&mut self, ratio: f64) {
        self.cloud.observe(ratio);
        self.suspect |= self.deviates(ratio, self.committed_cloud);
        self.observations += 1;
    }

    /// Record a realized upload: feature `ratio` (the paper's `r` =
    /// bits / link rate, in ms at nominal bandwidth) against the
    /// realized upload time in ms.
    #[inline]
    pub fn observe_upload(&mut self, ratio: f64, realized_ms: f64) {
        self.upload.push(ratio, realized_ms);
        // Residual against the committed line, in prediction space:
        // an undisturbed link predicts its own uploads exactly.
        let pred = self.committed_w0 + self.committed_w1 * ratio;
        self.suspect |= self.deviates(realized_ms, pred);
        self.observations += 1;
    }

    /// Direct tracker for `layer` if it has evidence, else the pooled
    /// tracker, else `None` (nothing observed yet).
    #[inline]
    fn effective_device(&self, layer: usize) -> Option<f64> {
        self.device
            .get(layer)
            .and_then(|e| e.value())
            .or_else(|| self.device_all.value())
    }

    /// Committed per-layer device scales (index 0..=k).
    pub fn device_scales(&self) -> &[f64] {
        &self.committed_device
    }

    /// Committed cloud scale.
    pub fn cloud_scale(&self) -> f64 {
        self.committed_cloud
    }

    /// Committed upload intercept `w0` in ms.
    pub fn setup_ms(&self) -> f64 {
        self.committed_w0
    }

    /// Committed upload slope scale `w1` (base 1).
    pub fn upload_scale(&self) -> f64 {
        self.committed_w1
    }

    #[inline]
    fn moved(&self, est: f64, committed: f64) -> bool {
        let denom = committed.abs().max(1e-9);
        (est - committed).abs() / denom >= GATE
    }

    /// Half-gate deviation test used to arm [`Self::suspect`].
    #[inline]
    fn deviates(&self, sample: f64, committed: f64) -> bool {
        let denom = committed.abs().max(1e-9);
        (sample - committed).abs() / denom >= GATE * 0.5
    }

    /// Would a commit right now change anything? True once [`MIN_OBS`]
    /// observations have arrived and at least one parameter estimate
    /// sits [`GATE`] (relative) away from its committed value. Read-only
    /// and allocation-free — safe on the steady-state serving path.
    pub(crate) fn gate_crossed(&self) -> bool {
        if self.observations < MIN_OBS || !self.suspect {
            return false;
        }
        for layer in 1..self.device.len() {
            if let Some(v) = self.effective_device(layer) {
                if self.moved(v, self.committed_device[layer]) {
                    return true;
                }
            }
        }
        if let Some(v) = self.cloud.value() {
            if self.moved(v, self.committed_cloud) {
                return true;
            }
        }
        if let Some(fit) = self.upload.fit() {
            // Gate the intercept against the base setup scale so a
            // near-zero committed w0 cannot make the test hair-trigger.
            let w0_denom = self.base_setup_ms.abs().max(1e-9);
            if (fit.w0 - self.committed_w0).abs() / w0_denom >= GATE
                || self.moved(fit.w1, self.committed_w1)
            {
                return true;
            }
        }
        false
    }

    /// Fold the current estimates into the committed snapshot if the
    /// gate is crossed. Returns `true` only when something actually
    /// moved; a `false` return means the committed snapshot — and every
    /// plan built from it — is untouched.
    pub fn commit(&mut self) -> bool {
        if !self.gate_crossed() {
            return false;
        }
        for layer in 1..self.device.len() {
            if let Some(v) = self.effective_device(layer) {
                self.committed_device[layer] = v;
            }
        }
        if let Some(v) = self.cloud.value() {
            self.committed_cloud = v;
        }
        if let Some(fit) = self.upload.fit() {
            // A negative intercept is a fit artifact (no channel pays
            // you to open it); clamp rather than propagate.
            self.committed_w0 = fit.w0.max(0.0);
            self.committed_w1 = fit.w1.max(0.0);
        }
        // The estimates just became the committed values; stay cheap
        // until some sample deviates from the new snapshot.
        self.suspect = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_debias_is_exact_from_first_sample() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), None);
        e.observe(4.0);
        // A biased EWMA would report 0.4 here; debiasing recovers 4.
        assert!((e.value().unwrap() - 4.0).abs() < 1e-12);
        for _ in 0..200 {
            e.observe(4.0);
        }
        assert!((e.value().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(e.n, 201);
    }

    #[test]
    fn ewma_tracks_a_step_change() {
        let mut e = Ewma::new(0.2);
        for _ in 0..50 {
            e.observe(1.0);
        }
        for _ in 0..50 {
            e.observe(2.0);
        }
        let v = e.value().unwrap();
        assert!(v > 1.99 && v <= 2.0, "converged to the new level: {v}");
        // Non-finite samples are dropped, not folded.
        e.observe(f64::NAN);
        assert!((e.value().unwrap() - v).abs() < 1e-12);
    }

    #[test]
    fn window_regression_slides_and_refits() {
        let mut w = WindowRegression::new(8);
        assert!(w.fit().is_none());
        // First regime: y = 10 + 2x.
        for i in 0..8 {
            w.push(i as f64, 10.0 + 2.0 * i as f64);
        }
        let r = w.fit().unwrap();
        assert!((r.w1 - 2.0).abs() < 1e-9 && (r.w0 - 10.0).abs() < 1e-9);
        // Second regime: y = 1 + 5x. After 8 more pushes the window
        // holds only the new regime.
        for i in 0..8 {
            w.push(i as f64, 1.0 + 5.0 * i as f64);
        }
        let r = w.fit().unwrap();
        assert!((r.w1 - 5.0).abs() < 1e-9 && (r.w0 - 1.0).abs() < 1e-9);
        assert_eq!(w.buf.len(), 8);
    }

    #[test]
    fn estimator_gates_until_confident_and_moved() {
        let mut est = ProfileEstimator::new(4, 10.0);
        // Large drift but too few observations: gated.
        for _ in 0..4 {
            est.observe_device(4, 1.5);
        }
        assert!(!est.gate_crossed());
        assert!(!est.commit());
        // Enough observations of a sub-gate drift: still gated.
        let mut est2 = ProfileEstimator::new(4, 10.0);
        for _ in 0..20 {
            est2.observe_device(4, 1.02);
        }
        assert!(!est2.gate_crossed(), "2% drift under a 5% gate");
        // Enough observations of a real drift: commit fires once, then
        // the committed value matches and the gate closes again.
        for _ in 0..20 {
            est.observe_device(4, 1.5);
        }
        assert!(est.gate_crossed());
        assert!(est.commit());
        assert!((est.device_scales()[4] - 1.5).abs() < 0.05);
        assert!(!est.commit(), "second commit with no new drift is a no-op");
    }

    #[test]
    fn upload_regression_recovers_link_parameters() {
        let mut est = ProfileEstimator::new(2, 40.0);
        // Link slowed to 80% rate and setup grew to 55 ms: realized
        // t = 55 + r / 0.8.
        for i in 0..32 {
            let r = 5.0 + (i % 7) as f64 * 3.0;
            est.observe_upload(r, 55.0 + r / 0.8);
        }
        assert!(est.gate_crossed());
        assert!(est.commit());
        assert!((est.setup_ms() - 55.0).abs() < 1e-6);
        assert!((est.upload_scale() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn estimator_is_deterministic_and_moves_only_on_commit() {
        let committed = |e: &ProfileEstimator| {
            let scales = e.device_scales().to_vec();
            (scales, e.cloud_scale(), e.setup_ms(), e.upload_scale())
        };
        let mut a = ProfileEstimator::new(3, 10.0);
        let mut b = ProfileEstimator::new(3, 10.0);
        let factory = committed(&a);
        for i in 0..32 {
            let r = 1.3 + (i % 5) as f64 * 0.01;
            a.observe_device(3, r);
            b.observe_device(3, r);
            a.observe_cloud(1.1);
            b.observe_cloud(1.1);
        }
        // Identical streams ⇒ identical estimators, before and after commit.
        assert_eq!(a, b);
        assert_eq!(
            committed(&a),
            factory,
            "observations alone never move the committed scales"
        );
        assert!(a.commit() && b.commit());
        assert_eq!(a, b);
        assert_ne!(committed(&a), factory, "a commit moves them");
    }

    #[test]
    fn config_default_is_sane() {
        const {
            assert!(ALPHA > 0.0 && ALPHA <= 1.0);
            assert!(GATE > 0.0 && GATE < 1.0);
            assert!(MIN_OBS >= 1 && WINDOW >= 2);
        }
        // A fresh estimator runs on the constants: a full-width upload
        // window, and no commit before `MIN_OBS` observations.
        let mut est = ProfileEstimator::new(2, 10.0);
        assert_eq!(est.upload.cap, WINDOW);
        for _ in 1..MIN_OBS {
            est.observe_cloud(2.0);
        }
        assert!(!est.gate_crossed());
        est.observe_cloud(2.0);
        assert!(est.gate_crossed());
    }
}
