//! Pins the decisions of the two structures behind every serving
//! replan — [`RateFrontier`] and the degradation ladder
//! ([`LadderFrontier`]) — and holds the frontier to the planner.
//!
//! Two FNV-1a digests fold decisions only, so they hold for any
//! representation that decides the same:
//!
//! * every compiled frontier's `decide_at` mix at a dense geometric
//!   grid, for the monotone zoo, both JPS strategies and `n ∈ 1..=8` on
//!   [1, 100] Mbps;
//! * every ladder's decision at a dense grid of rate factors, for the
//!   zoo and a few re-estimated profiles.
//!
//! A [`LazyFrontier`] queried in a seeded random order must decide
//! like the compiled frontier at every point the exactness property
//! checks, and compile into it bit for bit.
//!
//! The re-estimated profiles include running-max plateaus in `f` (a
//! per-layer device scale that speeds up a later layer below an
//! earlier one) — the shape an online estimator's commits produce. On
//! a plateau several mixes tie exactly and the planner's own pick
//! flips with float rounding, so those frontiers are held to the
//! equal-or-tied contract on a dense grid rather than pinned. The
//! exactness tests check that contract next to every breakpoint of the
//! zoo frontiers and of seeded random profiles, ulp by ulp, where
//! sampled grids cannot see.

use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_flowshop::uniform_makespan;
use mcdnn_graph::cluster_virtual_blocks;
use mcdnn_models::synthetic::{random_bumpy_line, random_monotone_line};
use mcdnn_partition::{
    binary_search_cut, CutMix, FrontierCursor, LazyFrontier, RateFrontier, RateProfile, Strategy,
};
use mcdnn_profile::{CloudModel, DeviceModel};
use mcdnn_rng::{fnv_fold, Rng, FNV_OFFSET};
use mcdnn_sim::{ladder_decision, LadderDecision, LadderFrontier, LadderLevel};

mod common;
use common::reestimates;

const LO_MBPS: f64 = 1.0;
const HI_MBPS: f64 = 100.0;
/// Rate-factor grid steps for the ladder decisions.
const LADDER_STEPS: u32 = 1024;
/// Geometric grid steps for the frontier decisions.
const DECISION_STEPS: u32 = 4096;
/// Half-width of the ulp window checked around each breakpoint.
const BAND_ULPS: i64 = 2048;
/// Every ulp within this distance of a breakpoint is checked.
const BAND_DENSE: i64 = 64;
/// Beyond `BAND_DENSE`, every `BAND_STRIDE`-th ulp is checked.
const BAND_STRIDE: i64 = 32;
/// Dense-grid samples per re-estimated frontier.
const PLATEAU_SAMPLES: usize = 4096;
/// Seeded random profiles in the exactness property.
const RANDOM_PROFILES: u64 = 10;
/// Geometric grid steps per random frontier, on top of the breakpoints.
const RANDOM_GRID: u32 = 512;
/// Probe ceiling per compile: the event compile needs a few thousand at
/// most, while a lattice audit chasing plateau ties ran to 204,612.
const MAX_COMPILE_PROBES: u64 = 20_000;

/// The `i`-th point of the decision grid on `[LO_MBPS, HI_MBPS]`.
fn decision_mbps(i: u32) -> f64 {
    LO_MBPS * (HI_MBPS / LO_MBPS).powf(f64::from(i) / f64::from(DECISION_STEPS))
}

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

/// The pinned profile set with the burst sizes each is folded at: the
/// zoo's base profiles at every `n ∈ 1..=8`, then their
/// [`pinned_reestimates`].
fn pinned_profiles() -> Vec<(RateProfile, Vec<usize>)> {
    let zoo = monotone_zoo_rate_profiles(SETUP_MS);
    assert!(zoo.len() >= 8, "the zoo must supply a real fleet");
    let mut out: Vec<(RateProfile, Vec<usize>)> = zoo
        .iter()
        .map(|rate| (rate.clone(), (1..=8).collect()))
        .collect();
    out.extend(pinned_reestimates(&zoo));
    out
}

/// Two re-estimates of every third profile of `zoo`, each at `n ∈ {2,
/// 5, 8}`.
fn pinned_reestimates(zoo: &[RateProfile]) -> Vec<(RateProfile, Vec<usize>)> {
    let mut out = Vec::new();
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
fn frontier_decisions_match_the_pinned_digest() {
    let mut h = FNV_OFFSET;
    for rate in monotone_zoo_rate_profiles(SETUP_MS) {
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            for n in 1..=8 {
                let frontier = RateFrontier::compile(&rate, strategy, n, LO_MBPS, HI_MBPS)
                    .expect("monotone profile compiles");
                for i in 0..=DECISION_STEPS {
                    h = fold_mix(h, frontier.decide_at(decision_mbps(i)).mix);
                }
            }
        }
    }
    assert_eq!(h, 0xfa07_9306_8cdc_f168, "frontier decision digest");
}

/// True when `plan_at(b)` is the planner's plan, or ties its makespan
/// to 1e-9 relative.
fn equal_or_tied(frontier: &RateFrontier, b: f64) -> bool {
    let fast = frontier.plan_at(b);
    let slow = frontier
        .strategy()
        .plan(&frontier.profile().profile_at(b), frontier.n());
    fast == slow
        || (fast.makespan_ms - slow.makespan_ms).abs() <= 1e-9 * slow.makespan_ms.abs().max(1.0)
}

#[test]
fn frontier_breakpoints_match_the_planner() {
    // Every ulp within ±BAND_DENSE of each breakpoint, then every
    // BAND_STRIDE-th ulp out to ±BAND_ULPS: a breakpoint placed a few
    // ulps off leaves a band where the frontier answers with the wrong
    // side's decision, and no sampled grid finds it.
    let mut breakpoints = 0;
    let mut failures = Vec::new();
    for rate in monotone_zoo_rate_profiles(SETUP_MS) {
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            for n in 1..=8 {
                let frontier = RateFrontier::compile(&rate, strategy, n, LO_MBPS, HI_MBPS)
                    .expect("monotone profile compiles");
                for &start in &frontier.breakpoints()[1..] {
                    breakpoints += 1;
                    let offsets = (-BAND_ULPS..=BAND_ULPS)
                        .filter(|d: &i64| d.abs() <= BAND_DENSE || d % BAND_STRIDE == 0);
                    let bad = offsets
                        .map(|d| f64::from_bits((start.to_bits() as i64 + d) as u64))
                        .filter(|&b| frontier.covers(b))
                        .find(|&b| !equal_or_tied(&frontier, b));
                    if let Some(b) = bad {
                        failures.push(format!(
                            "{} {strategy:?} n={n} b={b:e} ({:#x})",
                            rate.name(),
                            b.to_bits()
                        ));
                    }
                }
            }
        }
    }
    assert!(breakpoints > 1_000, "only {breakpoints} breakpoints");
    assert!(
        failures.is_empty(),
        "{} of {breakpoints} breakpoints disagree with the planner nearby, e.g. {:?}",
        failures.len(),
        &failures[..failures.len().min(5)]
    );
}

/// A seeded random profile with its burst size and a wide bandwidth
/// range: a monotone line or a clustered bumpy one (k drawn from 2..=40)
/// on the reference device, every third re-estimated by
/// [`reestimates`] so running-max plateaus tie exactly; n in 1..=64, lo
/// in 0.01..1 Mbps and hi up to 10^4 times lo.
fn random_case(seed: u64) -> (RateProfile, usize, f64, f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let k = rng.gen_range(2..=40usize);
    let input_bytes = rng.gen_range(10_000..=4_000_000usize);
    let flops = (1_000_000, 200_000_000);
    let line = if seed.is_multiple_of(2) {
        random_monotone_line(&mut rng, k, input_bytes, flops, (0.3, 0.95))
    } else {
        cluster_virtual_blocks(&random_bumpy_line(&mut rng, k, input_bytes, flops)).0
    };
    let mut rate = RateProfile::evaluate(
        &line,
        &DeviceModel::raspberry_pi4(),
        &CloudModel::Negligible,
        SETUP_MS,
    );
    if seed % 3 == 2 {
        rate = reestimates(&rate, seed).swap_remove(0);
    }
    let n = rng.gen_range(1..=64usize);
    let lo = 0.01 * 100f64.powf(rng.f64());
    let hi = lo * 10f64.powf(0.5 + 3.5 * rng.f64());
    (rate, n, lo, hi)
}

/// The points the exactness property checks on `frontier`: every ulp
/// within ±`BAND_DENSE` of each breakpoint, then the geometric grid,
/// all inside the compiled range.
fn decision_points(frontier: &RateFrontier) -> Vec<f64> {
    let (lo, hi) = frontier.range_mbps();
    let near = frontier.breakpoints()[1..].iter().flat_map(|&start| {
        (-BAND_DENSE..=BAND_DENSE).map(move |d| f64::from_bits((start.to_bits() as i64 + d) as u64))
    });
    let grid =
        (0..=RANDOM_GRID).map(|i| lo * (hi / lo).powf(f64::from(i) / f64::from(RANDOM_GRID)));
    near.chain(grid).filter(|&b| frontier.covers(b)).collect()
}

/// Planner probes this thread has made so far.
fn compile_probes() -> u64 {
    mcdnn_obs::thread_counter_value("frontier.compile_probes")
}

#[test]
fn random_frontiers_match_the_planner_near_every_breakpoint() {
    // The zoo checks above cover a few shapes; the event compile's
    // completeness argument (DESIGN §5g) claims every profile. Every ulp
    // within ±BAND_DENSE of each breakpoint plus a geometric grid must
    // equal or tie the planner, within a bounded probe count.
    mcdnn_obs::set_enabled(true);
    let (mut breakpoints, mut failures) = (0, Vec::new());
    for seed in 0..RANDOM_PROFILES {
        let (rate, n, lo, hi) = random_case(seed);
        assert!(rate.check_monotone().is_ok(), "seed {seed}: not monotone");
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            let probes0 = compile_probes();
            let frontier = RateFrontier::compile(&rate, strategy, n, lo, hi)
                .expect("monotone profile compiles");
            let probes = compile_probes() - probes0;
            assert!(
                probes <= MAX_COMPILE_PROBES,
                "seed {seed} {strategy:?}: {probes} probes"
            );
            breakpoints += frontier.breakpoints().len() - 1;
            let bad = decision_points(&frontier)
                .into_iter()
                .find(|&b| !equal_or_tied(&frontier, b));
            if let Some(b) = bad {
                failures.push(format!("seed {seed} {strategy:?} n={n} b={b:e}"));
            }
        }
    }
    assert!(breakpoints > 100, "only {breakpoints} breakpoints");
    assert!(
        failures.is_empty(),
        "frontier disagrees with the planner: {failures:?}"
    );
}

#[test]
fn lazy_beliefs_decide_and_compile_like_the_eager_frontier() {
    // Every pinned profile and random case, both strategies: a belief
    // queried at the exactness points in a seeded random order walks
    // its regimes out of order, must answer every query with the
    // compiled frontier's mix, and must compile into its pieces bit
    // for bit. Where Alg. 2's l* differs between the range ends there
    // are at least two regimes, so one query walks fewer probes than
    // the eager compile makes.
    mcdnn_obs::set_enabled(true);
    let mut cases: Vec<(RateProfile, Vec<usize>, f64, f64)> = pinned_profiles()
        .into_iter()
        .map(|(rate, ns)| (rate, ns, LO_MBPS, HI_MBPS))
        .collect();
    cases.extend((0..RANDOM_PROFILES).map(|seed| {
        let (rate, n, lo, hi) = random_case(seed);
        (rate, vec![n], lo, hi)
    }));
    let mut rng = Rng::seed_from_u64(0x1A2F);
    let mut multi_regime = 0;
    for (i, (rate, ns, lo, hi)) in cases.iter().enumerate() {
        let l_star = |b: f64| binary_search_cut(&rate.profile_at(b)).l_star;
        let several_regimes = l_star(*lo) != l_star(*hi);
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            for &n in ns {
                let case = format!("case {i} ({}) {strategy:?} n={n}", rate.name());
                let probes0 = compile_probes();
                let eager = RateFrontier::compile(rate, strategy, n, *lo, *hi).expect("compiles");
                let eager_probes = compile_probes() - probes0;
                let mut points = decision_points(&eager);
                rng.shuffle(&mut points);
                let mut lazy =
                    LazyFrontier::new(rate.clone(), strategy, n, *lo, *hi).expect("compiles");
                let mut cursor = FrontierCursor::default();
                let probes0 = compile_probes();
                assert_eq!(
                    lazy.decide_from(&mut cursor, points[0]),
                    eager.decide_at(points[0]).mix,
                    "{case}"
                );
                if several_regimes {
                    multi_regime += 1;
                    let one = compile_probes() - probes0;
                    assert!(one < eager_probes, "{case}: {one} of {eager_probes} probes");
                }
                for &b in &points {
                    let mix = lazy.decide_from(&mut cursor, b);
                    assert_eq!(mix, eager.decide_at(b).mix, "{case} b={b:e}");
                }
                let compiled = lazy.into_frontier();
                let bits = |f: &RateFrontier| -> Vec<u64> {
                    f.breakpoints().iter().map(|b| b.to_bits()).collect()
                };
                assert_eq!(bits(&compiled), bits(&eager), "{case}");
                assert_eq!(compiled.pieces(), eager.pieces(), "{case}");
            }
        }
    }
    assert!(
        multi_regime > 100,
        "only {multi_regime} multi-regime frontiers"
    );
}

#[test]
fn reestimated_frontiers_match_the_planner_on_a_dense_grid() {
    let zoo = monotone_zoo_rate_profiles(SETUP_MS);
    for (i, (rate, ns)) in pinned_reestimates(&zoo).iter().enumerate() {
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            for &n in ns {
                let frontier = RateFrontier::compile(rate, strategy, n, LO_MBPS, HI_MBPS)
                    .expect("re-estimates stay clustered");
                assert_eq!(
                    frontier.audit_against_planner(PLATEAU_SAMPLES),
                    0,
                    "{} re-estimate {i} {strategy:?} n={n}",
                    rate.name()
                );
            }
        }
    }
}

#[test]
fn plateau_profile_compiles_to_few_pieces_and_probes() {
    // A re-estimate with running-max plateaus (f(2) = f(3), f(5) =
    // f(6)). On a plateau several mixes score exactly the same, and
    // float rounding flips the planner's own pick among them; a compile
    // that chases every flip splits the range into hundreds of pieces
    // and spends 100x the probes of a plateau-free profile.
    let rate = RateProfile::from_parts(
        "plateau",
        vec![
            0.0,
            64.90925680678284,
            77.10944330556507,
            77.10944330556507,
            117.31667147505273,
            157.3140327896636,
            157.3140327896636,
        ],
        vec![843_948, 421_974, 140_658, 70_329, 43_956, 7_176, 0],
        10.0,
        None,
    )
    .expect("valid profile");
    let n = 6;
    mcdnn_obs::set_enabled(true);
    let probes0 = mcdnn_obs::thread_counter_value("frontier.compile_probes");
    let frontier = RateFrontier::compile(&rate, Strategy::JpsBestMix, n, LO_MBPS, HI_MBPS)
        .expect("monotone profile compiles");
    let probes = mcdnn_obs::thread_counter_value("frontier.compile_probes") - probes0;
    let bound = rate.k() + 1 + rate.k() * (n + 1);
    assert!(
        frontier.num_pieces() <= bound,
        "{} pieces exceeds the candidate bound {bound}",
        frontier.num_pieces()
    );
    assert!(probes <= 1_000, "{probes} probes");
    assert_eq!(frontier.audit_against_planner(20_000), 0);
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
