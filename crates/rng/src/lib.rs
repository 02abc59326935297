//! # mcdnn-rng
//!
//! A tiny, zero-dependency, seedable pseudo-random number generator so
//! the workspace builds hermetically (no registry access). The
//! generator is xoshiro256++ (Blackman & Vigna), seeded by SplitMix64 —
//! the same construction the reference `rand_xoshiro` crate uses — with
//! the handful of sampling helpers the simulators and property tests
//! need: uniform ranges over floats and integers, Bernoulli draws,
//! normal deviates via Box–Muller, and Fisher–Yates shuffles.
//!
//! Determinism is part of the contract: the same seed produces the same
//! stream on every platform, which the discrete-event simulator and the
//! online-adaptation experiments rely on for reproducibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// FNV-1a 64-bit offset basis: the digest of empty input, and the
/// starting value of every digest the workspace folds.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one word into an FNV-1a 64-bit accumulator: `(h ^ v) · prime`.
/// Folding the bytes of an input one at a time from [`FNV_OFFSET`] is
/// standard FNV-1a; the workspace's digests fold whole words (float
/// bits, counts, ids) the same way.
#[inline]
pub fn fnv_fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Seedable xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Seed the generator from a single `u64` by running SplitMix64
    /// four times (never yields the all-zero state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = move || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Rng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a range; supports `a..b` and `a..=b` over
    /// `f64`, `u64`, `u32`, `usize` and `i64`.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw with success probability `p ∈ [0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.f64() < p
    }

    /// Standard normal deviate via Box–Muller (one value per call; the
    /// paired deviate is discarded to keep the stream position simple).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be >= 0");
        // Avoid ln(0) by flipping the first uniform into (0, 1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Unbiased uniform integer in `[0, bound)` (Lemire-style rejection
    /// on the widening multiply).
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection zone keeps the multiply-shift map exactly uniform.
        let zone = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// Element type produced by sampling.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.f64()
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range");
        // The closed endpoint is reachable only up to rounding, which is
        // what the continuous samplers here need.
        a + (b - a) * rng.f64()
    }
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty range");
                let span = (b - a) as u64;
                if span == u64::MAX {
                    return a + rng.next_u64() as $t;
                }
                a + rng.below(span + 1) as $t
            }
        }
    )*};
}

int_range_impls!(u64, usize, u32);

impl SampleRange for std::ops::Range<i64> {
    type Output = i64;
    fn sample(self, rng: &mut Rng) -> i64 {
        assert!(self.start < self.end, "empty range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(rng.below(span) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_fold_over_bytes_is_standard_fnv1a() {
        let fnv1a = |s: &str| s.bytes().fold(FNV_OFFSET, |h, b| fnv_fold(h, b as u64));
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut rng = Rng::seed_from_u64(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let y = rng.gen_range(3u64..=9);
            assert!((3..=9).contains(&y));
            let z = rng.gen_range(5usize..8);
            assert!((5..8).contains(&z));
            let w = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = Rng::seed_from_u64(4);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..=5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = Rng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        let mut rng2 = Rng::seed_from_u64(6);
        assert!((0..100).all(|_| !rng2.gen_bool(0.0)));
        assert!((0..100).all(|_| rng2.gen_bool(1.0)));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(7);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(8);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements never fixed");
        let p = rng.permutation(10);
        let mut q = p.clone();
        q.sort_unstable();
        assert_eq!(q, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5.0..5.0);
    }
}
