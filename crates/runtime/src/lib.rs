//! # mcdnn-runtime
//!
//! A zero-dependency worker pool: the one parallel map of the
//! workspace. The experiment sweeps, the chaos grid and the serving
//! loops all fan out through [`WorkerPool::run_indexed`], which returns
//! results in index order, so swapping it in for `iter().map().collect()`
//! changes nothing downstream.
//!
//! A caller builds one pool and hands it to everything that fans out:
//! an `Engine` owns one, and each bench binary builds one in `main`.
//! Its width comes from [`worker_threads`]: the `MCDNN_THREADS`
//! environment variable when set, else `available_parallelism`. A pool
//! of width 1 runs every task on the calling thread, so
//! `MCDNN_THREADS=1` is the serial path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::WorkerPool;

/// Number of worker threads a pool should have: `MCDNN_THREADS` if set
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }
}
