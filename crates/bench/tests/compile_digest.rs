//! Pins the exact output of the two compilers behind every serving
//! replan: [`RateFrontier::compile`] and [`LadderFrontier::compile`].
//!
//! One FNV-1a digest folds, for the monotone zoo and a few
//! re-estimated profiles:
//!
//! * every compiled frontier's breakpoint bits, piece structures and
//!   compile probe count, for both JPS strategies and `n ∈ 1..=8` on
//!   [1, 100] Mbps;
//! * every ladder's boundary count and its decision at a dense grid of
//!   rate factors.
//!
//! The re-estimated profiles include running-max plateaus in `f` (a
//! per-layer device scale that speeds up a later layer below an
//! earlier one) — the shape an online estimator's commits produce, and
//! the one that drives the frontier's audit loop hardest. A compiler
//! rewrite must keep this digest byte-equal: it is the oracle that the
//! rewrite changed how the answer is computed, not the answer.

use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_partition::{CutMix, RateFrontier, RateProfile, Strategy};
use mcdnn_rng::{fnv_fold, Rng, FNV_OFFSET};
use mcdnn_sim::{LadderFrontier, LadderLevel};

const LO_MBPS: f64 = 1.0;
const HI_MBPS: f64 = 100.0;
/// Rate-factor grid steps for the ladder decisions.
const LADDER_STEPS: u32 = 1024;

fn fold_mix(h: u64, mix: CutMix) -> u64 {
    match mix {
        CutMix::Uniform { cut } => fnv_fold(fnv_fold(h, 0), cut as u64),
        CutMix::Mix {
            prev,
            star,
            at_prev,
        } => fnv_fold(
            fnv_fold(fnv_fold(fnv_fold(h, 1), prev as u64), star as u64),
            at_prev as u64,
        ),
    }
}

fn level_tag(level: LadderLevel) -> u64 {
    match level {
        LadderLevel::Normal => 0,
        LadderLevel::Replanned => 1,
        LadderLevel::Shifted => 2,
        LadderLevel::MobileOnly => 3,
    }
}

/// Fold one profile's frontiers (both strategies, every `n` in `ns`)
/// and ladders (every `n` in `ns`) into `h`.
fn fold_profile(mut h: u64, rate: &RateProfile, ns: impl Iterator<Item = usize> + Clone) -> u64 {
    for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
        for n in ns.clone() {
            let probes0 = mcdnn_obs::thread_counter_value("frontier.compile_probes");
            let frontier = RateFrontier::compile(rate, strategy, n, LO_MBPS, HI_MBPS)
                .expect("monotone profile compiles");
            let probes = mcdnn_obs::thread_counter_value("frontier.compile_probes") - probes0;
            h = fnv_fold(fnv_fold(h, probes), frontier.num_pieces() as u64);
            for (&start, &mix) in frontier.breakpoints().iter().zip(frontier.pieces()) {
                h = fold_mix(fnv_fold(h, start.to_bits()), mix);
            }
        }
    }
    let at_mid = rate.profile_at((LO_MBPS * HI_MBPS).sqrt());
    for n in ns {
        let ladder = LadderFrontier::compile(&at_mid, 20.0, 0.9, n);
        h = fnv_fold(h, ladder.num_boundaries() as u64);
        for i in 0..=LADDER_STEPS {
            let d = ladder.decide(f64::from(i) / f64::from(LADDER_STEPS));
            h = fnv_fold(fnv_fold(h, level_tag(d.level)), d.cut as u64);
        }
    }
    h
}

/// Deterministic re-estimates of `base`: seeded per-layer device
/// scales (later layers sped up below earlier ones project onto
/// running-max plateaus), one front-loaded slowdown whose plateau
/// spans most of the model, and shifted upload and setup estimates.
fn reestimates(base: &RateProfile, seed: u64) -> Vec<RateProfile> {
    let layers = base.k() + 1;
    let mut rng = Rng::seed_from_u64(seed);
    let seeded: Vec<f64> = (0..layers).map(|_| 0.5 + 1.1 * rng.f64()).collect();
    let front_loaded: Vec<f64> = (0..layers)
        .map(|l| if l == 1 { 3.0 } else { 0.7 })
        .collect();
    vec![
        base.reestimated(&seeded, 1.0, 1.3, SETUP_MS * 0.8)
            .with_generation(1),
        base.reestimated(&front_loaded, 1.2, 0.8, SETUP_MS * 1.4)
            .with_generation(2),
    ]
}

#[test]
fn compiled_frontiers_and_ladders_match_the_pinned_digest() {
    mcdnn_obs::set_enabled(true);
    let zoo = monotone_zoo_rate_profiles(SETUP_MS);
    assert!(zoo.len() >= 8, "the zoo must supply a real fleet");
    let mut h = FNV_OFFSET;
    for rate in &zoo {
        h = fold_profile(h, rate, 1..=8);
    }
    let mut plateaus = 0;
    for (i, base) in zoo.iter().enumerate().step_by(3) {
        for re in reestimates(base, 0xD1F7 + i as u64) {
            assert!(re.check_monotone().is_ok(), "re-estimates stay clustered");
            plateaus += (1..re.k())
                .filter(|&l| re.mobile_ms(l) == re.mobile_ms(l + 1))
                .count();
            h = fold_profile(h, &re, [2usize, 5, 8].into_iter());
        }
    }
    assert!(
        plateaus > 0,
        "the re-estimates must exercise running-max plateaus"
    );
    assert_eq!(h, 0x9e67_690c_8f37_98c4, "compiler output digest");
}
