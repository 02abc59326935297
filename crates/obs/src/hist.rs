//! Fixed-bucket histograms.
//!
//! Buckets are fixed at compile time — powers of two from 1 µs to
//! ~134 s — so recording reads the bucket off the value's float
//! exponent and updates a few words, and merging or exporting never
//! rebalances anything.
//! Values above the last bound land in an overflow bucket.
//!
//! The registry keeps each histogram as a block of `u64` words in a
//! thread's slab (bucket counts, overflow, count, and the bits of
//! sum/min/max); the crate-private `observe_words`, `merge_words`,
//! `Histogram::from_words` and `Histogram::word` are the one definition
//! of that layout.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of finite buckets; bucket `i` covers values
/// `<= 0.001 * 2^i` ms (1 µs, 2 µs, …, ~134 s).
pub(crate) const BUCKETS: usize = 28;

/// Words one histogram takes in a slab.
pub(crate) const WORDS: usize = BUCKETS + 5;
/// Word offsets after the bucket counts. `OVERFLOW == BUCKETS`, so
/// [`bucket_index`]'s "past every bound" answer indexes it directly.
const OVERFLOW: usize = BUCKETS;
const COUNT: usize = BUCKETS + 1;
const SUM: usize = BUCKETS + 2;
const MIN: usize = BUCKETS + 3;
const MAX: usize = BUCKETS + 4;

/// Initial value of word `k` of an empty histogram: zero, except the
/// min and max bits (±infinity).
pub(crate) fn empty_word(k: usize) -> u64 {
    match k {
        MIN => f64::INFINITY.to_bits(),
        MAX => f64::NEG_INFINITY.to_bits(),
        _ => 0,
    }
}

/// Negative and non-finite observations read as 0 — observability must
/// not panic in production paths.
fn clamp(value_ms: f64) -> f64 {
    if value_ms.is_finite() && value_ms > 0.0 {
        value_ms
    } else {
        0.0
    }
}

/// First finite bucket whose bound covers `v` (`v` clamped), or
/// [`BUCKETS`] — the overflow slot — when none does: `ceil(log2(v *
/// 1000))` read off the float's exponent, clamped. It is exact because
/// `0.001 * 1000` rounds to exactly 1, so each bound times 1000 is
/// exactly its power of two while the next double above a bound lands
/// past it. Both sides are monotone in `v`, so checking every bound and
/// its neighbouring doubles (the `bucket_index_matches_a_linear_scan`
/// test) checks every input.
#[inline]
fn bucket_index(v: f64) -> usize {
    let r = (v * 1000.0).to_bits();
    let exponent = ((r >> 52) & 0x7ff) as i64 - 1023;
    let exact_power = r & ((1 << 52) - 1) == 0;
    (exponent + i64::from(!exact_power)).clamp(0, BUCKETS as i64) as usize
}

/// Record one observation into histogram words owned by the calling
/// thread: a relaxed load and store per word, no read-modify-write.
#[inline]
pub(crate) fn observe_words(w: &[AtomicU64], value_ms: f64) {
    let v = clamp(value_ms);
    let bump = |k: usize| w[k].store(w[k].load(Relaxed) + 1, Relaxed);
    bump(bucket_index(v));
    bump(COUNT);
    let sum = f64::from_bits(w[SUM].load(Relaxed)) + v;
    w[SUM].store(sum.to_bits(), Relaxed);
    if v < f64::from_bits(w[MIN].load(Relaxed)) {
        w[MIN].store(v.to_bits(), Relaxed);
    }
    if v > f64::from_bits(w[MAX].load(Relaxed)) {
        w[MAX].store(v.to_bits(), Relaxed);
    }
}

/// Fold histogram words `src(k)` into `dst` (same layout).
pub(crate) fn merge_words(dst: &mut [u64], src: impl Fn(usize) -> u64) {
    for (k, d) in dst.iter_mut().enumerate().take(COUNT + 1) {
        *d += src(k);
    }
    let f = |bits: u64| f64::from_bits(bits);
    dst[SUM] = (f(dst[SUM]) + f(src(SUM))).to_bits();
    dst[MIN] = f(dst[MIN]).min(f(src(MIN))).to_bits();
    dst[MAX] = f(dst[MAX]).max(f(src(MAX))).to_bits();
}

/// A fixed-bucket histogram of millisecond observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    overflow: u64,
    count: u64,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

/// Upper bound (inclusive) of finite bucket `i`, in ms.
pub(crate) fn bucket_upper_ms(i: usize) -> f64 {
    0.001 * (1u64 << i) as f64
}

/// The 1-based nearest-rank index for quantile `q` over `count`
/// observations: `ceil(q * count)` clamped to `[1, count]`, or 0 when
/// `count` is 0. `q` is clamped to `[0, 1]` (non-finite reads as 1).
/// This is the single source of rank arithmetic for both the bucketed
/// [`Histogram::quantile_ms`] estimate and the exact report
/// percentiles in `mcdnn-sim`, so the two paths can never drift.
pub fn nearest_rank(count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let q = if q.is_finite() { q.clamp(0.0, 1.0) } else { 1.0 };
    ((q * count as f64).ceil() as u64).clamp(1, count)
}

/// Exact nearest-rank percentile over an ascending slice; 0 when
/// empty. Ranks come from [`nearest_rank`], the same arithmetic
/// [`Histogram::quantile_ms`] walks its buckets with.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match nearest_rank(sorted.len() as u64, q) {
        0 => 0.0,
        rank => sorted[rank as usize - 1],
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            overflow: 0,
            count: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: f64::NEG_INFINITY,
        }
    }

    /// A histogram from its slab words (see [`WORDS`]).
    pub(crate) fn from_words(w: &[u64]) -> Histogram {
        let mut counts = [0; BUCKETS];
        counts.copy_from_slice(&w[..BUCKETS]);
        Histogram {
            counts,
            overflow: w[OVERFLOW],
            count: w[COUNT],
            sum_ms: f64::from_bits(w[SUM]),
            min_ms: f64::from_bits(w[MIN]),
            max_ms: f64::from_bits(w[MAX]),
        }
    }

    /// Word `k` of this histogram in slab layout: the inverse of
    /// [`Histogram::from_words`].
    pub(crate) fn word(&self, k: usize) -> u64 {
        match k {
            OVERFLOW => self.overflow,
            COUNT => self.count,
            SUM => self.sum_ms.to_bits(),
            MIN => self.min_ms.to_bits(),
            MAX => self.max_ms.to_bits(),
            i => self.counts[i],
        }
    }

    /// Record one observation (ms). Negative and non-finite values are
    /// clamped to 0 rather than rejected — observability must not
    /// panic in production paths.
    pub fn observe(&mut self, value_ms: f64) {
        let v = clamp(value_ms);
        match bucket_index(v) {
            OVERFLOW => self.overflow += 1,
            i => self.counts[i] += 1,
        }
        self.count += 1;
        self.sum_ms += v;
        self.min_ms = self.min_ms.min(v);
        self.max_ms = self.max_ms.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation, ms (0 when empty).
    pub(crate) fn min_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_ms
        }
    }

    /// Largest observation, ms (0 when empty).
    pub(crate) fn max_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max_ms
        }
    }

    /// Mean observation, ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate, ms: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th observation (`max_ms`
    /// for ranks landing in the overflow bucket, 0 when empty). Bucket
    /// bounds double, so the estimate is exact to within one octave —
    /// good enough for dashboards; exact percentiles belong to the
    /// report that recorded the raw values. `q` is clamped to `[0, 1]`.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(self.count, q);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.counts[i];
            if seen >= rank {
                return bucket_upper_ms(i).min(self.max_ms());
            }
        }
        self.max_ms()
    }

    /// Append this histogram as a JSON object to `out`. Only non-empty
    /// buckets are listed (the bounds are fixed, so sparse output loses
    /// nothing).
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"count\":{},\"sum_ms\":{:.6},\"min_ms\":{:.6},\"max_ms\":{:.6},\"buckets\":[",
            self.count,
            self.sum_ms,
            self.min_ms(),
            self.max_ms()
        );
        let mut first = true;
        for i in 0..BUCKETS {
            if self.counts[i] == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"le_ms\":{:.6},\"count\":{}}}",
                bucket_upper_ms(i),
                self.counts[i]
            );
        }
        let _ = write!(out, "],\"overflow\":{}}}", self.overflow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_double() {
        assert_eq!(bucket_upper_ms(0), 0.001);
        assert_eq!(bucket_upper_ms(10), 1.024);
        assert!(bucket_upper_ms(BUCKETS - 1) > 100_000.0);
    }

    #[test]
    fn slab_words_match_the_plain_histogram() {
        // Two "threads" observe disjoint halves into their own words;
        // the merged words rebuild exactly the histogram one thread
        // observing everything would hold. Dyadic values keep every
        // partial sum exact in either order.
        let values = [
            0.0,
            0.000_976_562_5,
            0.001_953_125,
            0.75,
            3.0,
            1e9,
            -2.0,
            f64::NAN,
            12.5,
        ];
        let slab = |vals: &[f64]| {
            let w: Vec<AtomicU64> = (0..WORDS).map(|k| AtomicU64::new(empty_word(k))).collect();
            for &v in vals {
                observe_words(&w, v);
            }
            w
        };
        let (a, b) = (slab(&values[..4]), slab(&values[4..]));
        let mut merged: Vec<u64> = (0..WORDS).map(empty_word).collect();
        merge_words(&mut merged, |k| a[k].load(Relaxed));
        merge_words(&mut merged, |k| b[k].load(Relaxed));
        let mut plain = Histogram::new();
        for &v in &values {
            plain.observe(v);
        }
        assert_eq!(Histogram::from_words(&merged), plain);
        let words: Vec<u64> = (0..WORDS).map(|k| plain.word(k)).collect();
        assert_eq!(words, merged, "word() reads back the slab layout");
        let empty: Vec<u64> = (0..WORDS).map(empty_word).collect();
        assert_eq!(Histogram::from_words(&empty), Histogram::new());
    }

    #[test]
    fn observe_tracks_stats() {
        let mut h = Histogram::new();
        h.observe(0.5);
        h.observe(2.0);
        h.observe(8.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min_ms(), 0.5);
        assert_eq!(h.max_ms(), 8.0);
        assert!((h.mean_ms() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_matches_a_linear_scan() {
        let scan = |v: f64| {
            (0..BUCKETS)
                .find(|&i| v <= bucket_upper_ms(i))
                .unwrap_or(BUCKETS)
        };
        let mut values = vec![0.0, 1e-300, 5e-324, 1e300, f64::MAX];
        for i in 0..BUCKETS {
            let b = bucket_upper_ms(i);
            let (below, above) = (
                f64::from_bits(b.to_bits() - 1),
                f64::from_bits(b.to_bits() + 1),
            );
            values.extend([b, below, above, b * 0.75, b * 1.5]);
        }
        for k in 0..36_000 {
            values.push(1.0007f64.powi(k) * 1e-4);
        }
        for v in values {
            assert_eq!(bucket_index(v), scan(v), "v={v:e}");
        }
    }

    #[test]
    fn bucket_assignment_is_first_fit() {
        let mut h = Histogram::new();
        h.observe(0.001); // exactly bucket 0's bound
        h.observe(0.0015); // bucket 1 (0.002)
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
    }

    #[test]
    fn overflow_and_degenerate_values() {
        let mut h = Histogram::new();
        h.observe(1e9); // above every bound
        h.observe(-3.0); // clamped to 0, bucket 0
        h.observe(f64::NAN); // clamped to 0
        assert_eq!(h.overflow, 1);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min_ms(), 0.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.observe(0.9); // bucket 10 (<= 1.024)
        }
        for _ in 0..10 {
            h.observe(100.0); // bucket 17 (<= 131.072)
        }
        assert_eq!(h.quantile_ms(0.5), bucket_upper_ms(10));
        assert_eq!(h.quantile_ms(0.9), bucket_upper_ms(10));
        // p99 lands in the tail bucket; capped at max_ms.
        assert_eq!(h.quantile_ms(0.99), 100.0);
        assert_eq!(h.quantile_ms(1.0), 100.0);
        assert_eq!(h.quantile_ms(0.0), bucket_upper_ms(10), "rank clamps to 1");
        assert_eq!(Histogram::new().quantile_ms(0.5), 0.0);

        let mut o = Histogram::new();
        o.observe(1e9); // overflow only
        assert_eq!(o.quantile_ms(0.5), 1e9, "overflow ranks report max_ms");
    }

    #[test]
    fn exact_percentile_and_bucket_quantile_share_the_rank() {
        // The exact helper and the bucketed estimate must pick the same
        // nearest-rank observation: feeding the same values through
        // both, the bucket bound that quantile_ms reports is exactly
        // the bucket holding percentile_sorted's answer.
        let values: Vec<f64> = (1..=97).map(|i| 0.013 * i as f64 * i as f64).collect();
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        for v in &values {
            h.observe(*v);
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = percentile_sorted(&sorted, q);
            let est = h.quantile_ms(q);
            let bucket = (0..BUCKETS)
                .find(|&i| exact <= bucket_upper_ms(i))
                .expect("fixture fits finite buckets");
            assert_eq!(
                est,
                bucket_upper_ms(bucket).min(h.max_ms()),
                "q={q}: estimate must cover the exact rank-{} value {exact}",
                nearest_rank(sorted.len() as u64, q)
            );
            assert!(est >= exact, "q={q}: bucket bound is an upper estimate");
        }
        assert_eq!(nearest_rank(0, 0.5), 0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(100, f64::NAN), 100, "non-finite q reads as 1.0");
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.observe(1.0);
        let mut out = String::new();
        h.write_json(&mut out);
        let parsed = crate::json::parse(&out).expect("valid JSON");
        assert_eq!(parsed.get("count").and_then(|v| v.as_f64()), Some(1.0));
        assert!(parsed.get("buckets").and_then(|v| v.as_array()).is_some());
    }
}
