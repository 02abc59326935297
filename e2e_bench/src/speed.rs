//! The host-speed reference the timing metrics are scaled by.
//!
//! On a shared host the same call can take twice as long in one minute
//! as in the next, for two reasons. Other tenants slow the cores, their
//! caches and memory; and the hypervisor takes whole slices of time
//! from the virtual CPUs ("steal"). Both are corrected here:
//!
//! - A fixed kernel of this file's own code, run by the client between
//!   every two calls, slows with the cores. Its on-CPU time, which holds
//!   no stolen time, is the host's speed. Each call's wall time is
//!   scaled by `REF_NS` over the mean of the kernel runs just before and
//!   just after it, i.e. to a host on which the kernel takes exactly
//!   1 ms. The kernel never runs inside a timed span, and it does the
//!   same work whatever the program does.
//! - The share of the vCPUs' time stolen over a pass, from `/proc/stat`,
//!   is taken off every call of the pass. A 1 ms kernel cannot sample
//!   steal: in runs where a third of the vCPU time was stolen, the calls
//!   took 40% longer and the kernel's wall time did not move.
//!
//! The kernel runs on as many threads at once as the engine has pool
//! workers, and its time is the mean of theirs, so it samples every core
//! the calls use. Run on the client thread alone it tracked only the
//! core it landed on: in three 15-second runs of serve-steady and of
//! slo-shallow in one noisy period, the per-run median call time ranged
//! over 9-15% scaled by a one-thread kernel and over 4-5% scaled by a
//! two-thread one.
//!
//! The kernel mixes what the program does most: small allocations,
//! sorting floats and ordered-map inserts. Of the kernels tried (a
//! dependent floating-point chain, a pointer chase over 4 MiB, a
//! cross-core ping-pong and this mix), this one tracked the calls' slow
//! periods best on every workload.

#![allow(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};

/// The kernel's time on the reference host, ns.
pub const REF_NS: f64 = 1e6;

/// One run of the reference kernel on each of `threads` threads at
/// once; returns their mean on-CPU time, ns.
pub fn kernel_ns(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(kernel_run)).collect();
        runs.into_iter()
            .map(|r| r.join().expect("the reference kernel does not panic"))
            .sum()
    });
    total / threads as f64
}

/// One run of the reference kernel on this thread; returns its on-CPU
/// time, ns.
fn kernel_run() -> f64 {
    let started = thread_cpu_ns();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut kept: VecDeque<Vec<f64>> = VecDeque::with_capacity(65);
    let mut acc = 0.0;
    for _ in 0..250 {
        let n = 16 + (next() % 240) as usize;
        let mut v: Vec<f64> = (0..n).map(|_| (next() >> 11) as f64).collect();
        v.sort_by(f64::total_cmp);
        acc += v[n / 2];
        kept.push_back(v);
        if kept.len() > 64 {
            kept.pop_front();
        }
    }
    let mut map = BTreeMap::new();
    for i in 0..1250u64 {
        map.insert(next() % 100_000, i);
    }
    std::hint::black_box((acc, map.len(), kept.len()));
    (thread_cpu_ns() - started) as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// On-CPU time of the calling thread, ns. The standard library has no
/// thread CPU clock, and `/proc/thread-self/schedstat` lags the running
/// thread by up to a scheduler tick, too coarse for a 1 ms kernel.
fn thread_cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, as `Timespec` is laid out) through the
    // pointer, which points at a live, writable local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "Linux always has a thread CPU clock");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// `/proc/stat` counts in this unit: `USER_HZ`, 100 on Linux.
const TICK_NS: f64 = 1e7;

/// Time stolen from this machine's vCPUs so far, summed over them, ns,
/// and the number of vCPUs: the `steal` field of `/proc/stat`'s `cpu`
/// line, and its `cpuN` lines.
pub fn stolen() -> Result<(f64, usize), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|f| f.parse::<f64>().ok())
        .ok_or("/proc/stat: no steal field on the cpu line")?;
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    Ok((ticks * TICK_NS, cpus.max(1)))
}

/// Share of the vCPUs' time stolen between two [`stolen`] readings
/// taken `wall_s` apart, at most 0.9.
pub fn steal_share(before: (f64, usize), after: (f64, usize), wall_s: f64) -> f64 {
    let capacity = after.1 as f64 * wall_s * 1e9;
    if capacity > 0.0 {
        ((after.0 - before.0) / capacity).clamp(0.0, 0.9)
    } else {
        0.0
    }
}

/// `wall` scaled to the reference host, given the kernel's time just
/// before and just after it.
pub fn scaled(wall: f64, before_ns: f64, after_ns: f64) -> f64 {
    wall * REF_NS * 2.0 / (before_ns + after_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_identity_at_reference_speed() {
        assert_eq!(scaled(25.0, REF_NS, REF_NS), 25.0);
        assert_eq!(scaled(25.0, 2.0 * REF_NS, 2.0 * REF_NS), 12.5);
        assert_eq!(scaled(25.0, 0.5 * REF_NS, 1.5 * REF_NS), 25.0);
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(kernel_ns(1) > 0.0);
        assert!(kernel_ns(2) > 0.0);
    }

    #[test]
    fn steal_share_is_stolen_time_over_capacity() {
        let s = steal_share((1e9, 2), (1.5e9, 2), 1.0);
        assert!((s - 0.25).abs() < 1e-12, "{s}");
        assert_eq!(steal_share((5e9, 2), (5e9, 2), 2.0), 0.0);
        assert_eq!(steal_share((0.0, 2), (1e12, 2), 1.0), 0.9);
        assert_eq!(steal_share((0.0, 2), (0.0, 2), 0.0), 0.0);
        let (ns, cpus) = stolen().unwrap();
        assert!(ns >= 0.0 && cpus >= 1);
    }
}
