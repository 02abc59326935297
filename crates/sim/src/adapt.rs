//! Drift injection for the serving loops: a seeded multiplicative
//! random walk on the *true* device / cloud / link parameters, kept
//! strictly apart from the estimator's view of the world.
//!
//! The serving simulations execute plans against a cost model the
//! planner believes; [`DriftSpec`] makes the believed model wrong in a
//! controlled, reproducible way. Each session owns a `DriftState`
//! whose walks are driven by RNG streams derived from the session seed
//! and a fixed drift seed — never from the session's main RNG — so a run
//! with `DriftSpec::none()` draws exactly the values it drew before
//! drift existed and stays byte-identical to earlier releases.
//!
//! Two streams per state:
//!
//! * the **walk** stream advances the three scales once per burst with
//!   a fixed draw count, so the truth trajectory is identical whether
//!   the session adapts, freezes, or changes its cut mix — adaptive
//!   and frozen runs of the same fleet face the same world;
//! * the **noise** stream draws per-stage jitter, whose draw count may
//!   depend on the executed mix (that is measurement noise, not the
//!   trajectory).

use mcdnn_rng::Rng;

/// Deadline slack of the drift hit metric: a burst hits when its
/// realized makespan is within this multiple of the factory frontier's
/// optimal makespan at the burst's bandwidth.
pub(crate) const DRIFT_SLACK: f64 = 1.5;

/// Drift seed, folded with each session's seed so every session walks
/// its own trajectory.
const DRIFT_SEED: u64 = 0xD21F;

/// Seeded multiplicative random-walk drift on the true platform
/// parameters. All walk magnitudes are per-burst half-widths: a
/// `device_walk` of 0.02 multiplies the true device scale by a factor
/// uniform in `[0.98, 1.02]` each burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// Per-burst half-width of the device-speed walk (0 = no drift).
    pub device_walk: f64,
    /// Per-burst half-width of the cloud-speed walk (0 = no drift).
    pub cloud_walk: f64,
    /// Per-burst half-width of the link-rate walk (0 = no drift).
    pub link_walk: f64,
    /// Per-stage multiplicative measurement jitter half-width
    /// (0 = realized times are exactly base × scale).
    pub jitter: f64,
}

impl DriftSpec {
    /// No drift at all: realized times equal believed times and the
    /// serving loops are bit-identical to their pre-drift behaviour.
    pub fn none() -> Self {
        DriftSpec {
            device_walk: 0.0,
            cloud_walk: 0.0,
            link_walk: 0.0,
            jitter: 0.0,
        }
    }

    /// True when any walk or the jitter is non-zero.
    pub fn is_active(&self) -> bool {
        self.device_walk > 0.0
            || self.cloud_walk > 0.0
            || self.link_walk > 0.0
            || self.jitter > 0.0
    }
}

impl Default for DriftSpec {
    fn default() -> Self {
        DriftSpec::none()
    }
}

/// Check the drift both serving configs carry: walks and jitter finite
/// in `[0, 1)` (the CLI's `--drift` range). Outside it a jitter factor
/// can reach ±inf or NaN. Returns what is wrong.
pub(crate) fn check_drift(drift: &DriftSpec) -> Result<(), &'static str> {
    let walks = [
        drift.device_walk,
        drift.cloud_walk,
        drift.link_walk,
        drift.jitter,
    ];
    if !walks.iter().all(|w| (0.0..1.0).contains(w)) {
        return Err("drift walks and jitter must be finite and in [0, 1)");
    }
    Ok(())
}

/// Truth scales are clamped into this band — a random walk left alone
/// long enough escapes to absurd regimes; real hardware does not run
/// 100× slower than its data sheet.
const SCALE_LO: f64 = 0.25;
const SCALE_HI: f64 = 4.0;

/// One session's true-world state under a [`DriftSpec`]: the current
/// device / cloud / link scales plus the two private RNG streams.
#[derive(Debug, Clone)]
pub(crate) struct DriftState {
    spec: DriftSpec,
    walk_rng: Rng,
    noise_rng: Rng,
    /// True device slowdown factor (multiplies base mobile times).
    pub(crate) device_scale: f64,
    /// True cloud slowdown factor (multiplies base cloud times).
    pub(crate) cloud_scale: f64,
    /// True link rate factor (multiplies nominal bandwidth).
    pub(crate) link_scale: f64,
}

impl DriftState {
    /// Truth state for one session. The two streams are derived from
    /// `(session_seed, DRIFT_SEED)` with distinct tweaks so neither
    /// collides with the session's main RNG nor with each other.
    pub(crate) fn new(spec: &DriftSpec, session_seed: u64) -> Self {
        let base = session_seed ^ DRIFT_SEED.rotate_left(17);
        DriftState {
            spec: *spec,
            walk_rng: Rng::seed_from_u64(base ^ 0xA5A5_5A5A_0D21_F001),
            noise_rng: Rng::seed_from_u64(base ^ 0x5A5A_A5A5_0D21_F002),
            device_scale: 1.0,
            cloud_scale: 1.0,
            link_scale: 1.0,
        }
    }

    /// Advance all three walks by one burst. Exactly three draws from
    /// the walk stream, unconditionally, so the trajectory does not
    /// depend on which parameters are enabled or what the session
    /// decided.
    pub(crate) fn step(&mut self) {
        let walk = |scale: f64, width: f64, rng_draw: f64| -> f64 {
            let step = 1.0 + width * (rng_draw * 2.0 - 1.0);
            (scale * step).clamp(SCALE_LO, SCALE_HI)
        };
        let (d, c, l) = (self.walk_rng.f64(), self.walk_rng.f64(), self.walk_rng.f64());
        self.device_scale = walk(self.device_scale, self.spec.device_walk, d);
        self.cloud_scale = walk(self.cloud_scale, self.spec.cloud_walk, c);
        self.link_scale = walk(self.link_scale, self.spec.link_walk, l);
    }

    /// One multiplicative measurement-noise factor from the noise
    /// stream (1.0 exactly when jitter is disabled — no draw).
    #[inline]
    pub(crate) fn jitter_factor(&mut self) -> f64 {
        if self.spec.jitter <= 0.0 {
            return 1.0;
        }
        1.0 + self.spec.jitter * (self.noise_rng.f64() * 2.0 - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_nonzero_walks_are_active() {
        assert!(!DriftSpec::none().is_active());
        assert!(DriftSpec { device_walk: 0.01, ..DriftSpec::none() }.is_active());
        assert!(DriftSpec { link_walk: 0.02, ..DriftSpec::none() }.is_active());
        assert!(DriftSpec { jitter: 0.05, ..DriftSpec::none() }.is_active());
    }

    #[test]
    fn walk_trajectory_is_seeded_and_clamped() {
        let spec = DriftSpec { device_walk: 0.5, link_walk: 0.5, ..DriftSpec::none() };
        let mut a = DriftState::new(&spec, 42);
        let mut b = DriftState::new(&spec, 42);
        let mut c = DriftState::new(&spec, 43);
        let mut diverged = false;
        for _ in 0..500 {
            a.step();
            b.step();
            c.step();
            assert_eq!(a.device_scale.to_bits(), b.device_scale.to_bits());
            assert_eq!(a.link_scale.to_bits(), b.link_scale.to_bits());
            assert!((SCALE_LO..=SCALE_HI).contains(&a.device_scale));
            assert!((SCALE_LO..=SCALE_HI).contains(&a.link_scale));
            diverged |= a.device_scale.to_bits() != c.device_scale.to_bits();
        }
        assert!(diverged, "different session seeds walk different paths");
        assert_eq!(a.cloud_scale, 1.0, "disabled walk stays pinned at 1");
    }

    #[test]
    fn jitter_disabled_draws_nothing() {
        let spec = DriftSpec { device_walk: 0.1, ..DriftSpec::none() };
        let mut s = DriftState::new(&spec, 7);
        let mut t = DriftState::new(&spec, 7);
        assert_eq!(s.jitter_factor(), 1.0);
        // `s` drew zero values from its noise stream: both states keep
        // stepping identically afterwards.
        for _ in 0..10 {
            s.step();
            t.step();
        }
        assert_eq!(s.device_scale.to_bits(), t.device_scale.to_bits());
        let jittery = DriftSpec { jitter: 0.2, ..DriftSpec::none() };
        let mut j = DriftState::new(&jittery, 7);
        let f = j.jitter_factor();
        assert!((0.8..=1.2).contains(&f));
        assert_eq!(j.spec.jitter, 0.2);
    }
}
