//! The process-global registry: thread-owned slabs plus a retired
//! total.
//!
//! Whether it records is controlled by the `MCDNN_OBS` environment
//! variable on first use (`0`, `off` or `false` disable it; anything
//! else — or the variable being unset — enables it) and by
//! [`set_enabled`] at runtime, which always wins over the environment.
//!
//! **Write path.** A thread's first record claims one slab of
//! `AtomicU64` words laid out by the catalogue (every counter, then
//! [`crate::hist`]'s words for every histogram) and registers it once.
//! From then on the thread is the slab's only writer: a record is one
//! relaxed load of the enabled flag and the reset epoch, then a relaxed
//! load and store per word — no lock, no lock-prefixed read-modify-write,
//! no clock, no allocation. The live words are padded by a cache line
//! on each side, so no other writer shares their lines.
//!
//! **Reads.** [`snapshot`] and [`counter_value`] sum the live slabs plus
//! the retired total under the registry mutex. A thread that exits folds
//! its slab into the retired total, unregisters it and parks it for the
//! next new thread in one critical section, so reads never lose or
//! double-count it, and short-lived threads do not grow the slab list.
//! Writes made before a join are visible to reads after it, so
//! post-join reads are exact.
//!
//! **Reset.** [`reset`] never writes a slab another thread owns: it
//! bumps an epoch and clears the retired total. Reads skip slabs stamped
//! with an older epoch, and each owner zeroes its own slab on its next
//! record.
//!
//! **Spans** go to a buffer of at most [`SPAN_CAPACITY`] records until
//! [`drain_spans`] takes them; spans past the cap are counted in
//! `obs.spans_dropped` and discarded.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::hist::{self, Histogram};
use crate::metrics::{self, COUNTERS, HISTOGRAMS};

/// One finished span: a named interval on the process monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Category (groups spans onto one trace "thread").
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Start, µs since the span clock's origin (monotonic clock).
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Spans retained between drains; later ones count as
/// `obs.spans_dropped`.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Slab word 0 holds the epoch the slab was last zeroed for.
const COUNTER_BASE: usize = 1;
const HIST_BASE: usize = COUNTER_BASE + metrics::N_COUNTERS;
const WORDS: usize = HIST_BASE + metrics::N_HISTOGRAMS * hist::WORDS;
/// One cache line of padding words on each side of a slab's live words.
const PAD: usize = 8;

/// Initial value of slab word `i` (ignoring the epoch word).
fn empty_word(i: usize) -> u64 {
    if i < HIST_BASE {
        0
    } else {
        hist::empty_word((i - HIST_BASE) % hist::WORDS)
    }
}

fn hist_words(h: usize) -> std::ops::Range<usize> {
    let base = HIST_BASE + h * hist::WORDS;
    base..base + hist::WORDS
}

/// Fold slab words `src(i)` into the totals `dst`.
fn absorb(dst: &mut [u64], src: impl Fn(usize) -> u64) {
    for (i, d) in dst
        .iter_mut()
        .enumerate()
        .take(HIST_BASE)
        .skip(COUNTER_BASE)
    {
        *d += src(i);
    }
    for h in 0..metrics::N_HISTOGRAMS {
        let words = hist_words(h);
        let base = words.start;
        hist::merge_words(&mut dst[words], |k| src(base + k));
    }
}

/// One thread's metric words. Slabs are leaked, never freed: a thread
/// that exits returns its slab to a free list for the next new thread,
/// so there are never more slabs than threads that ever recorded at
/// once, and the record path reads a plain `&'static` reference.
struct Slab {
    words: [AtomicU64; PAD + WORDS + PAD],
}

impl Slab {
    #[inline]
    fn live(&self) -> &[AtomicU64; WORDS] {
        self.words[PAD..PAD + WORDS]
            .try_into()
            .expect("live words span WORDS")
    }

    /// Pairs with the `Release` store in [`Slab::clear`]: a reader that
    /// sees the new epoch also sees the zeroed words.
    fn epoch(&self) -> u64 {
        self.live()[0].load(Ordering::Acquire)
    }

    /// Zero the slab for `epoch`. Only the owning thread calls this
    /// once the slab is registered.
    fn clear(&self, epoch: u64) {
        let live = self.live();
        for (i, w) in live.iter().enumerate().skip(COUNTER_BASE) {
            w.store(empty_word(i), Ordering::Relaxed);
        }
        live[0].store(epoch, Ordering::Release);
    }
}

struct Shared {
    /// The slab of every live recording thread.
    live: Vec<&'static Slab>,
    /// Slabs of exited threads, folded and waiting for a new owner.
    free: Vec<&'static Slab>,
    /// Totals of exited threads since the last reset; empty means all
    /// words are at their initial value.
    retired: Vec<u64>,
}

static SHARED: Mutex<Shared> = Mutex::new(Shared {
    live: Vec::new(),
    free: Vec::new(),
    retired: Vec::new(),
});
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
/// Bumped by [`reset`] (under the [`SHARED`] lock).
static EPOCH: AtomicU64 = AtomicU64::new(0);

const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;
static ENABLED: AtomicU8 = AtomicU8::new(UNSET);

/// Origin of span timestamps, fixed on first use.
pub(crate) fn clock_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Observability must keep working after a panic elsewhere (and the
/// exit hand-back runs in `Drop`), so a poisoned lock is recovered:
/// every update under these locks is a push, a removal or a fold of
/// whole words, which leaves the data valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's claim on a slab.
#[derive(Clone, Copy)]
enum Local {
    /// Nothing recorded yet.
    Unset,
    Live(&'static Slab),
    /// The thread is exiting and has handed its slab back; later
    /// records on it are dropped.
    Gone,
}

/// Hands the thread's slab back when the thread exits.
struct ExitGuard;

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let Local::Live(slab) = LOCAL.replace(Local::Gone) else {
            return;
        };
        let mut shared = lock(&SHARED);
        shared.live.retain(|s| !std::ptr::eq(*s, slab));
        if slab.epoch() == EPOCH.load(Ordering::Relaxed) {
            if shared.retired.is_empty() {
                shared.retired = (0..WORDS).map(empty_word).collect();
            }
            let live = slab.live();
            absorb(&mut shared.retired, |i| live[i].load(Ordering::Relaxed));
        }
        shared.free.push(slab);
    }
}

thread_local! {
    // No destructor, so reading it is a plain thread-local load.
    static LOCAL: Cell<Local> = const { Cell::new(Local::Unset) };
    static EXIT: ExitGuard = const { ExitGuard };
}

/// Claim a slab for the calling thread: a recycled one if any, else a
/// new leaked one. `None` once the thread has started exiting.
#[cold]
fn claim() -> Option<&'static Slab> {
    // Arm the exit hand-back first; this fails during thread teardown.
    EXIT.try_with(|_| ()).ok()?;
    let mut shared = lock(&SHARED);
    let slab = shared.free.pop().unwrap_or_else(|| {
        Box::leak(Box::new(Slab {
            words: [const { AtomicU64::new(0) }; PAD + WORDS + PAD],
        }))
    });
    slab.clear(EPOCH.load(Ordering::Relaxed));
    shared.live.push(slab);
    LOCAL.set(Local::Live(slab));
    Some(slab)
}

fn env_default_enabled() -> bool {
    match std::env::var("MCDNN_OBS") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false")
        }
        Err(_) => true,
    }
}

#[cold]
fn init_enabled() -> bool {
    let state = if env_default_enabled() { ON } else { OFF };
    // A concurrent `set_enabled` wins over the environment.
    let _ = ENABLED.compare_exchange(UNSET, state, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed) == ON
}

/// Is the registry currently recording? One relaxed atomic load — this
/// is the whole cost of disabled instrumentation.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_enabled(),
    }
}

/// Turn recording on or off at runtime (overrides `MCDNN_OBS`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Run `f` on the calling thread's live words, claiming a slab on
/// first use and zeroing it if a reset happened since its last record.
#[inline]
fn with_local(f: impl FnOnce(&[AtomicU64; WORDS])) {
    let slab = match LOCAL.get() {
        Local::Live(slab) => slab,
        Local::Unset => match claim() {
            Some(slab) => slab,
            None => return,
        },
        Local::Gone => return,
    };
    let epoch = EPOCH.load(Ordering::Relaxed);
    let live = slab.live();
    if live[0].load(Ordering::Relaxed) != epoch {
        slab.clear(epoch);
    }
    f(live);
}

#[inline]
pub(crate) fn add(slot: usize, delta: u64) {
    if enabled() {
        with_local(|w| {
            let w = &w[COUNTER_BASE + slot];
            w.store(
                w.load(Ordering::Relaxed).wrapping_add(delta),
                Ordering::Relaxed,
            );
        });
    }
}

#[inline]
pub(crate) fn observe(slot: usize, value: f64) {
    if enabled() {
        with_local(|w| hist::observe_words(&w[hist_words(slot)], value));
    }
}

/// Fold `h` into histogram `slot` of the calling thread's slab.
#[inline]
pub(crate) fn absorb_hist(slot: usize, h: &Histogram) {
    if enabled() {
        with_local(|w| {
            let w = &w[hist_words(slot)];
            let mut merged: [u64; hist::WORDS] =
                std::array::from_fn(|k| w[k].load(Ordering::Relaxed));
            hist::merge_words(&mut merged, |k| h.word(k));
            for (word, m) in w.iter().zip(merged) {
                word.store(m, Ordering::Relaxed);
            }
        });
    }
}

/// Every word summed over the live slabs of the current epoch plus the
/// retired total.
fn totals() -> Vec<u64> {
    let shared = lock(&SHARED);
    let epoch = EPOCH.load(Ordering::Relaxed);
    let mut totals = if shared.retired.is_empty() {
        (0..WORDS).map(empty_word).collect()
    } else {
        shared.retired.clone()
    };
    for slab in shared.live.iter().filter(|s| s.epoch() == epoch) {
        let live = slab.live();
        absorb(&mut totals, |i| live[i].load(Ordering::Relaxed));
    }
    totals
}

/// Current value of a catalogue counter summed over every thread (0
/// for a name the catalogue does not declare).
pub fn counter_value(name: &str) -> u64 {
    metrics::counter_named(name).map_or(0, |c| totals()[COUNTER_BASE + c.slot()])
}

/// Value of a catalogue counter as recorded by the calling thread alone
/// since the last reset. Tests that run their work serially on the test
/// thread read their deltas here, immune to sibling tests.
pub fn thread_counter_value(name: &str) -> u64 {
    let Some(counter) = metrics::counter_named(name) else {
        return 0;
    };
    match LOCAL.get() {
        Local::Live(slab) if slab.epoch() == EPOCH.load(Ordering::Relaxed) => {
            slab.live()[COUNTER_BASE + counter.slot()].load(Ordering::Relaxed)
        }
        _ => 0,
    }
}

pub(crate) fn record_span(record: SpanRecord) {
    let mut spans = lock(&SPANS);
    if spans.len() < SPAN_CAPACITY {
        spans.push(record);
    } else {
        drop(spans);
        metrics::OBS_SPANS_DROPPED.add(1);
    }
}

/// Remove and return every retained span (oldest first).
pub fn drain_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *lock(&SPANS))
}

/// Zero every counter and histogram and drop retained spans (the
/// enabled flag and the span clock are kept). Front ends call this to
/// scope a snapshot to one command. Other threads' slabs are not
/// touched: they read as zero from now on and their owners clear them
/// on their next record.
pub fn reset() {
    {
        let mut shared = lock(&SHARED);
        EPOCH.store(EPOCH.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        shared.retired.clear();
    }
    lock(&SPANS).clear();
}

/// A point-in-time copy of all counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → histogram, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Snapshot every catalogue counter and histogram, zeros included.
pub fn snapshot() -> MetricsSnapshot {
    let totals = totals();
    let mut counters: Vec<(String, u64)> = COUNTERS
        .iter()
        .map(|c| (c.name().to_string(), totals[COUNTER_BASE + c.slot()]))
        .collect();
    counters.sort_unstable();
    let mut histograms: Vec<(String, Histogram)> = HISTOGRAMS
        .iter()
        .map(|h| {
            let hist = Histogram::from_words(&totals[hist_words(h.slot())]);
            (h.name().to_string(), hist)
        })
        .collect();
    histograms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot {
        counters,
        histograms,
    }
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// A histogram in this snapshot.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Render the snapshot as a JSON document:
    /// `{"counters": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", crate::json::escape(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", crate::json::escape(name));
            hist.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        ADAPT_EST_ERR_REL, JOINT_ROUNDS, ONLINE_BURSTS, RUNTIME_POOL_TASKS, SCHED_SLACK_MS,
    };

    // The registry is process-global and the test harness runs tests in
    // parallel, so no test here resets it; each asserts on its own
    // thread's deltas, or on global deltas of a metric no sibling test
    // records.

    #[test]
    fn counters_accumulate() {
        set_enabled(true);
        let before = thread_counter_value("online.bursts");
        ONLINE_BURSTS.add(2);
        ONLINE_BURSTS.add(3);
        assert_eq!(thread_counter_value("online.bursts"), before + 5);
        assert!(counter_value("online.bursts") >= before + 5);
        assert_eq!(counter_value("no.such.metric"), 0);
        assert_eq!(thread_counter_value("no.such.metric"), 0);
    }

    // Disabled-mode semantics live in `tests/disabled.rs` (their own
    // process): toggling the global flag here would race with the other
    // unit tests running in parallel threads.

    #[test]
    fn snapshot_contains_histograms() {
        set_enabled(true);
        ADAPT_EST_ERR_REL.observe(1.5);
        ADAPT_EST_ERR_REL.observe(2.5);
        let snap = snapshot();
        let h = snap.histogram("adapt.est_err_rel").expect("recorded");
        assert!(h.count() >= 2);
        assert!(h.max_ms() >= 2.5);
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names.len(), COUNTERS.len(), "every counter exported");
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted by name");
    }

    #[test]
    fn absorbing_a_histogram_equals_observing_its_values() {
        // Only this test records `sched.slack_ms` in this process.
        // Dyadic values keep the sum exact in any association.
        set_enabled(true);
        SCHED_SLACK_MS.observe(0.5);
        let mut local = Histogram::new();
        for v in [2.0, 0.125, 1e9] {
            local.observe(v);
        }
        SCHED_SLACK_MS.absorb(&local);
        SCHED_SLACK_MS.absorb(&Histogram::new());
        let mut plain = Histogram::new();
        for v in [0.5, 2.0, 0.125, 1e9] {
            plain.observe(v);
        }
        assert_eq!(snapshot().histogram("sched.slack_ms"), Some(&plain));
    }

    #[test]
    fn exited_threads_fold_into_the_retired_total() {
        // Only this test records `runtime.pool.tasks` in this process.
        set_enabled(true);
        let before = counter_value("runtime.pool.tasks");
        let live_slabs = || lock(&SHARED).live.len();
        let workers: Vec<_> = (0..4)
            .map(|i| std::thread::spawn(move || RUNTIME_POOL_TASKS.add(i + 1)))
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        assert_eq!(counter_value("runtime.pool.tasks"), before + 10);
        let slabs = live_slabs();
        for _ in 0..8 {
            std::thread::spawn(|| RUNTIME_POOL_TASKS.add(1))
                .join()
                .expect("worker");
        }
        assert_eq!(counter_value("runtime.pool.tasks"), before + 18);
        // Sibling test threads may register a few slabs meanwhile, but
        // far fewer than the eight that came and went.
        assert!(
            live_slabs() < slabs + 8,
            "exited threads unregister their slabs"
        );
    }

    #[test]
    fn snapshot_json_round_trips() {
        set_enabled(true);
        JOINT_ROUNDS.add(7);
        ADAPT_EST_ERR_REL.observe(0.25);
        let json = snapshot().to_json();
        let parsed = crate::json::parse(&json).expect("valid JSON");
        let counters = parsed.get("counters").expect("counters key");
        assert!(
            counters
                .get("joint.rounds")
                .and_then(|v| v.as_f64())
                .unwrap()
                >= 7.0
        );
        let hists = parsed.get("histograms").expect("histograms key");
        let h = hists.get("adapt.est_err_rel").expect("histogram");
        assert!(h.get("count").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    }

    #[test]
    fn spans_drain_in_order() {
        set_enabled(true);
        record_span(SpanRecord {
            cat: "test",
            name: "drain.a",
            ts_us: 1.0,
            dur_us: 2.0,
        });
        record_span(SpanRecord {
            cat: "test",
            name: "drain.b",
            ts_us: 5.0,
            dur_us: 1.0,
        });
        let drained = drain_spans();
        let ours: Vec<_> = drained
            .iter()
            .filter(|s| s.name.starts_with("drain."))
            .collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].name, "drain.a");
        assert_eq!(ours[1].name, "drain.b");
    }
}
