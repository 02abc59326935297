//! # mcdnn-runtime
//!
//! A zero-dependency parallel sweep executor. The experiment harness
//! evaluates many *independent* scenarios — one per bandwidth, ratio,
//! burst trace or model — and each evaluation is pure CPU work with no
//! shared state, so a scoped-thread work queue gets near-linear speedup
//! without any external crates.
//!
//! Design:
//!
//! * [`parallel_map`] preserves input order in its output, so swapping
//!   it in for `iter().map().collect()` changes nothing downstream.
//! * Work is distributed dynamically through a shared atomic cursor
//!   (a work queue, not static chunking), so skewed per-item costs —
//!   brute-force points next to closed-form points — still balance.
//! * Worker count comes from [`worker_threads`]: the `MCDNN_THREADS`
//!   environment variable when set, else `available_parallelism`, and
//!   never more threads than items.
//! * Panics in workers propagate: the scope joins all threads and
//!   re-raises, so a failing scenario cannot be silently dropped.
//!
//! For steady-state serving loops — many small batches forever, where
//! per-batch thread spawns would dominate — use the persistent
//! [`WorkerPool`] in [`pool`] instead: one task queue under one lock,
//! whose [`WorkerPool::run_indexed`] is the same index-ordered map over
//! long-lived threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::WorkerPool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mcdnn_obs::metrics;

/// Number of worker threads sweeps should use: `MCDNN_THREADS` if set
/// to a positive integer, otherwise the machine's available
/// parallelism, with a floor of 1.
pub fn worker_threads() -> usize {
    if let Ok(v) = std::env::var("MCDNN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Apply `f` to every item of `items` across [`worker_threads`] scoped
/// threads and return the results in input order.
///
/// `f` is called as `f(index, &item)`; the index lets callers thread
/// positional context (seed, scenario id) without capturing it in the
/// item type.
///
/// ```
/// let squares = mcdnn_runtime::parallel_map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = worker_threads().min(items.len());
    if workers <= 1 {
        metrics::RUNTIME_JOBS.add(items.len() as u64);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Read the enabled flag once: per-worker utilization needs two clock
    // reads per item, which the disabled path must not pay.
    let observe = mcdnn_obs::enabled();
    let sweep_span = mcdnn_obs::span("runtime", "parallel_map");
    metrics::RUNTIME_JOBS.add(items.len() as u64);
    let cursor = AtomicUsize::new(0);
    // Preallocated slot table: each worker writes result `i` straight
    // into `slots[i]` (disjoint indices, so every lock is uncontended),
    // making the final ordered collect O(n) moves instead of a sort.
    let slots: Vec<Mutex<Option<R>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let started = observe.then(std::time::Instant::now);
                let mut busy = std::time::Duration::ZERO;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = if started.is_some() {
                        let t0 = std::time::Instant::now();
                        let r = f(i, &items[i]);
                        busy += t0.elapsed();
                        r
                    } else {
                        f(i, &items[i])
                    };
                    *slots[i].lock().expect("slot poisoned") = Some(r);
                }
                if let Some(start) = started {
                    // Fraction of the worker's lifetime spent inside
                    // `f` (vs. queue contention + slot writes).
                    let alive = start.elapsed().as_secs_f64();
                    if alive > 0.0 {
                        metrics::RUNTIME_WORKER_BUSY_FRAC.observe(busy.as_secs_f64() / alive);
                    }
                }
            });
        }
    });
    drop(sweep_span);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("scope joined every worker")
                .expect("cursor visited every index")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn skewed_work_still_completes() {
        // A few expensive items among many cheap ones exercises the
        // dynamic queue (static chunking would serialize the tail).
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |_, &x| {
            let rounds = if x % 16 == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..rounds {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 64);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn results_match_serial() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let serial: Vec<f64> = items.iter().map(|x| x.sin() * x.cos()).collect();
        let par = parallel_map(&items, |_, x| x.sin() * x.cos());
        assert_eq!(serial, par, "bit-identical to the serial map");
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }
}
