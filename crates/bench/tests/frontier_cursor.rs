//! A cursor lookup answers exactly what the plain search answers.
//!
//! [`RateFrontier::decide_from`] tries the piece its cursor last landed
//! on and that piece's neighbour before it binary-searches, and
//! [`LazyFrontier::decide_from`] does the same over a belief's regimes
//! and then the regime's pieces. Each try is the piece's own half-open
//! interval test, so the answer must be the piece `partition_point`
//! finds over the breakpoints whatever the cursor held. This test holds
//! every zoo frontier (both JPS strategies, `n ∈ {2, 5, 8}`) and beliefs
//! of re-estimated zoo profiles to that, bit for bit, along the query
//! sequences serving makes and the ones most likely to break a cursor:
//!
//! * seeded walks of the serving bandwidth law (±25% per step, clamped
//!   into the range), with degraded bursts' jumps to `b × x` and fresh
//!   draws anywhere in the range mixed in;
//! * every breakpoint with its ulp neighbours, approached from below
//!   and from above, so a cursor that took a piece's end for its own
//!   would answer the piece before;
//! * both range ends, and frontiers of a single piece.
//!
//! A compiled frontier merges equal neighbours, so adjacent pieces
//! never share a mix (asserted): a lookup that lands one piece off
//! returns the wrong mix. The unit tests of `mcdnn_partition::frontier`
//! compare the cursor's piece index itself.

use mcdnn_bench::workload::{monotone_zoo_rate_profiles, SETUP_MS};
use mcdnn_partition::{CutMix, FrontierCursor, LazyFrontier, RateFrontier, Strategy};
use mcdnn_rng::Rng;

mod common;
use common::reestimates;

/// The serving range (`ServeConfig::default()`'s `lo_mbps..hi_mbps`).
const LO_MBPS: f64 = 1.0;
const HI_MBPS: f64 = 100.0;
const JOBS: [usize; 3] = [2, 5, 8];
const WALK_STEPS: usize = 3_000;

fn next_up(b: f64) -> f64 {
    f64::from_bits(b.to_bits() + 1)
}

fn next_down(b: f64) -> f64 {
    f64::from_bits(b.to_bits() - 1)
}

/// The queries a serving tenant makes: a multiplicative walk clamped
/// into `[lo, hi]`; one step in five also queries a degraded `b × x`,
/// and one in twenty jumps to a fresh log-uniform draw.
fn walk(lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let draw = |rng: &mut Rng| lo * (hi / lo).powf(rng.f64());
    let mut b = draw(&mut rng);
    let mut out = Vec::with_capacity(WALK_STEPS * 2);
    for _ in 0..WALK_STEPS {
        b = (b * (1.0 + 0.25 * (rng.f64() * 2.0 - 1.0))).clamp(lo, hi);
        out.push(b);
        let roll = rng.f64();
        if roll < 0.2 {
            out.push((b * rng.f64()).clamp(lo, hi));
        } else if roll < 0.25 {
            b = draw(&mut rng);
            out.push(b);
        }
    }
    out
}

/// Every interior breakpoint with its ulp neighbours, crossed upward
/// and back, then approached from above; then both range ends.
fn edges(breakpoints: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let mut out = vec![lo, next_up(lo), hi, next_down(hi), lo];
    for &s in &breakpoints[1..] {
        out.extend([next_down(s), s, next_up(s), s, next_down(s)]);
        out.extend([next_up(s), s]);
    }
    out.extend([hi, lo, hi]);
    out
}

/// The plain search's answer: the mix of the piece `partition_point`
/// finds.
fn searched(frontier: &RateFrontier, b: f64) -> CutMix {
    let piece = frontier.breakpoints().partition_point(|s| *s <= b) - 1;
    assert_eq!(frontier.piece_index_at(b), Some(piece));
    frontier.pieces()[piece]
}

/// Query `frontier` through one cursor along `queries`, holding each
/// answer to the plain search.
fn check_compiled(case: &str, frontier: &RateFrontier, queries: &[f64]) {
    let mut cursor = FrontierCursor::default();
    for &b in queries {
        let mix = frontier.decide_from(&mut cursor, b);
        assert_eq!(
            mix,
            searched(frontier, b),
            "{case} b={b:e} ({:#x})",
            b.to_bits()
        );
    }
}

fn distinct_neighbours(case: &str, frontier: &RateFrontier) {
    let pieces = frontier.pieces();
    assert!(
        pieces.windows(2).all(|w| w[0] != w[1]),
        "{case}: merged pieces"
    );
}

#[test]
fn cursor_lookups_equal_the_plain_search_on_every_zoo_frontier() {
    let zoo = monotone_zoo_rate_profiles(SETUP_MS);
    assert!(zoo.len() >= 8, "the zoo must supply a real fleet");
    let mut seed = 0xC0_5E;
    let mut single = 0;
    for rate in &zoo {
        for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
            for n in JOBS {
                let case = format!("{} {strategy:?} n={n}", rate.name());
                let frontier =
                    RateFrontier::compile(rate, strategy, n, LO_MBPS, HI_MBPS).expect("compiles");
                distinct_neighbours(&case, &frontier);
                seed += 1;
                check_compiled(&case, &frontier, &walk(LO_MBPS, HI_MBPS, seed));
                let crossings = edges(frontier.breakpoints(), LO_MBPS, HI_MBPS);
                check_compiled(&case, &frontier, &crossings);

                // The widest piece alone, compiled on its own range: a
                // frontier of exactly one piece.
                let (starts, mut widest) = (frontier.breakpoints(), (LO_MBPS, LO_MBPS));
                for (i, &s) in starts.iter().enumerate() {
                    let end = starts.get(i + 1).map_or(HI_MBPS, |&e| next_down(e));
                    if end / s > widest.1 / widest.0 {
                        widest = (s, end);
                    }
                }
                let (lo, hi) = widest;
                if lo < hi {
                    let one = RateFrontier::compile(rate, strategy, n, lo, hi).expect("compiles");
                    assert_eq!(one.num_pieces(), 1, "{case} on [{lo:e}, {hi:e}]");
                    let mut queries = edges(one.breakpoints(), lo, hi);
                    queries.extend(walk(lo, hi, seed));
                    check_compiled(&case, &one, &queries);
                    single += 1;
                }
            }
        }
    }
    assert!(
        single > 0,
        "some frontier has a piece wide enough to compile alone"
    );
}

#[test]
fn belief_cursor_lookups_equal_the_compiled_search() {
    let zoo = monotone_zoo_rate_profiles(SETUP_MS);
    let mut seed = 0xBE_11EF;
    for (i, base) in zoo.iter().enumerate() {
        for (j, rate) in reestimates(base, 0x5EED + i as u64).into_iter().enumerate() {
            for strategy in [Strategy::Jps, Strategy::JpsBestMix] {
                for n in JOBS {
                    let case = format!("{} re-estimate {j} {strategy:?} n={n}", rate.name());
                    let eager = RateFrontier::compile(&rate, strategy, n, LO_MBPS, HI_MBPS)
                        .expect("compiles");
                    seed += 1;
                    // A walk first, so regimes are walked in the order the
                    // bandwidth reaches them, then the edges of every piece
                    // on the walked belief.
                    let mut queries = walk(LO_MBPS, HI_MBPS, seed);
                    queries.extend(edges(eager.breakpoints(), LO_MBPS, HI_MBPS));
                    let mut belief = LazyFrontier::new(rate.clone(), strategy, n, LO_MBPS, HI_MBPS)
                        .expect("compiles");
                    let mut cursor = FrontierCursor::default();
                    for &b in &queries {
                        let mix = belief.decide_from(&mut cursor, b);
                        assert_eq!(
                            mix,
                            searched(&eager, b),
                            "{case} b={b:e} ({:#x})",
                            b.to_bits()
                        );
                    }
                }
            }
        }
    }
}
