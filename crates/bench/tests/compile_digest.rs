//! Pins the exact output of the two decision structures behind every
//! serving replan: [`RateFrontier::compile`] and the degradation
//! ladder ([`LadderFrontier`]).
//!
//! Two FNV-1a digests fold, for the monotone zoo and a few
//! re-estimated profiles:
//!
//! * every compiled frontier's breakpoint bits, piece structures and
//!   compile probe count, for both JPS strategies and `n ∈ 1..=8` on
//!   [1, 100] Mbps;
//! * every ladder's decision at a dense grid of rate factors.
//!
//! The re-estimated profiles include running-max plateaus in `f` (a
//! per-layer device scale that speeds up a later layer below an
//! earlier one) — the shape an online estimator's commits produce, and
//! the one that drives the frontier's audit loop hardest. A rewrite
//! must keep both digests byte-equal: they are the oracle that it
//! changed how the answer is computed, not the answer. The ladder
//! digest folds decisions only, so it holds for any ladder
//! representation that decides the same.

use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_flowshop::uniform_makespan;
use mcdnn_partition::{CutMix, RateFrontier, RateProfile, Strategy};
use mcdnn_rng::{fnv_fold, Rng, FNV_OFFSET};
use mcdnn_sim::{ladder_decision, LadderDecision, LadderFrontier, LadderLevel};

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
/// into `h`.
fn fold_frontiers(mut h: u64, rate: &RateProfile, ns: &[usize]) -> u64 {
    for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
        for &n in ns {
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
    h
}

/// Fold one profile's ladder decisions (every `n` in `ns`, at the
/// geometric mid-bandwidth) into `h`.
fn fold_ladders(mut h: u64, rate: &RateProfile, ns: &[usize]) -> u64 {
    let at_mid = rate.profile_at((LO_MBPS * HI_MBPS).sqrt());
    for &n in ns {
        let ladder = LadderFrontier::compile(&at_mid, 20.0, 0.9, n);
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

/// The pinned profile set with the burst sizes each is folded at: the
/// zoo at every `n ∈ 1..=8`, then two re-estimates of every third zoo
/// profile at `n ∈ {2, 5, 8}`.
fn pinned_profiles() -> Vec<(RateProfile, Vec<usize>)> {
    let zoo = monotone_zoo_rate_profiles(SETUP_MS);
    assert!(zoo.len() >= 8, "the zoo must supply a real fleet");
    let mut out: Vec<(RateProfile, Vec<usize>)> = zoo
        .iter()
        .map(|rate| (rate.clone(), (1..=8).collect()))
        .collect();
    let mut plateaus = 0;
    for (i, base) in zoo.iter().enumerate().step_by(3) {
        for re in reestimates(base, 0xD1F7 + i as u64) {
            assert!(re.check_monotone().is_ok(), "re-estimates stay clustered");
            plateaus += (1..re.k())
                .filter(|&l| re.mobile_ms(l) == re.mobile_ms(l + 1))
                .count();
            out.push((re, vec![2, 5, 8]));
        }
    }
    assert!(
        plateaus > 0,
        "the re-estimates must exercise running-max plateaus"
    );
    out
}

#[test]
fn compiled_frontiers_match_the_pinned_digest() {
    mcdnn_obs::set_enabled(true);
    let h = pinned_profiles()
        .iter()
        .fold(FNV_OFFSET, |h, (rate, ns)| fold_frontiers(h, rate, ns));
    assert_eq!(h, 0xfd76_0e03_6ff2_46a9, "frontier compiler output digest");
}

#[test]
fn ladder_decisions_match_the_pinned_digest() {
    let h = pinned_profiles()
        .iter()
        .fold(FNV_OFFSET, |h, (rate, ns)| fold_ladders(h, rate, ns));
    assert_eq!(h, 0x9f1f_33ea_92c6_6d1c, "ladder decision digest");
}

#[test]
fn ladder_decides_like_the_walk_just_below_a_crossing() {
    // AlexNet at 1 Mbps, 20 Hz, ρ 0.9, six jobs per burst. At this
    // factor, a few ulps below a closed-form crossing of the ladder's
    // comparisons, the shifted cut's burst makespan ties the
    // mobile-only bound n·f(k), and the rung-3 guard keeps a tie.
    let alexnet = monotone_zoo_rate_profiles(SETUP_MS)
        .into_iter()
        .find(|rate| rate.name() == "alexnet")
        .expect("AlexNet is in the monotone zoo");
    let profile = alexnet.profile_at(1.0);
    let x = f64::from_bits(0x3feb_2d8b_c5b1_ae32);
    let (f, g, k) = (profile.f_all(), profile.g_all(), profile.k());
    assert_eq!(uniform_makespan(6, f[3], g[3] / x), 6.0 * f[k], "a tie");
    let walked = ladder_decision(&profile, 20.0, 0.9, x, 6);
    assert_eq!(
        walked,
        LadderDecision {
            level: LadderLevel::Shifted,
            cut: 3
        }
    );
    assert_eq!(
        LadderFrontier::compile(&profile, 20.0, 0.9, 6).decide(x),
        walked
    );
}
