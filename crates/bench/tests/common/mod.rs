//! Helpers shared by the frontier integration tests.

use mcdnn_bench::workload::SETUP_MS;
use mcdnn_partition::RateProfile;
use mcdnn_rng::Rng;

/// Deterministic re-estimates of `base`: seeded per-layer device
/// scales (later layers sped up below earlier ones project onto
/// running-max plateaus), one front-loaded slowdown whose plateau
/// spans most of the model, and shifted upload and setup estimates.
pub fn reestimates(base: &RateProfile, seed: u64) -> Vec<RateProfile> {
    let layers = base.k() + 1;
    let mut rng = Rng::seed_from_u64(seed);
    let seeded: Vec<f64> = (0..layers).map(|_| 0.5 + 1.1 * rng.f64()).collect();
    let front_loaded: Vec<f64> = (0..layers)
        .map(|l| if l == 1 { 3.0 } else { 0.7 })
        .collect();
    vec![
        base.reestimated(&seeded, 1.0, 1.3, SETUP_MS * 0.8),
        base.reestimated(&front_loaded, 1.2, 0.8, SETUP_MS * 1.4),
    ]
}
