//! Set-up, the closed loop of timed calls, the heap pass, and the order
//! statistics the end-to-end metrics are read from.

use std::time::{Duration, Instant};

use mcdnn::{Engine, EngineConfig, Error};
use mcdnn_partition::RateProfile;

use crate::speed;
use crate::workload::{ratio, Input, Quality, Report, Workload, EPISODE_CALLS, FLEETS};

/// Index of the first set-up call. A multiple of [`FLEETS`], so set-up
/// call `f` serves mix `f`, and far from every pass's calls, so no
/// timed call repeats a set-up call's traces.
const WARMUP_FIRST: u64 = FLEETS << 44;

/// VmHWM is read once this many timed calls have run, so it covers a
/// fixed amount of work rather than the run's length.
const RSS_AFTER_CALLS: u64 = 64;

/// The quality metrics and the digest cover this many first calls of
/// a pass, so they depend on the seed alone.
pub const QUALITY_CALLS: u64 = 256;

/// Every pass makes at least this many calls, whatever its budget.
const MIN_CALLS: u64 = 3;

/// A warm engine and the profiles its fleets draw from.
pub struct Setup {
    pub engine: Engine,
    pub profiles: Vec<RateProfile>,
    /// The set-up calls' reports, which every set-up of a seed repeats.
    pub warm: Vec<Report>,
    /// Wall time of this set-up, s.
    pub wall_s: f64,
    /// The same, scaled to the reference host by the kernel runs just
    /// before and just after it.
    pub scaled_s: f64,
}

/// Reference-kernel runs on each side of a set-up; a process's first
/// run is slow, so their median is used.
const SETUP_KERNELS: usize = 3;

/// The fleet of call `i`: its mix from the call's slot, its traces from
/// the call's own seed.
pub fn input_of(w: Workload, seed: u64, profiles: &[RateProfile], i: u64) -> Input {
    w.input(profiles, w.slot(i), w.call_seed(seed, i))
}

/// A timed [`build`], with reference-kernel runs on each side.
pub fn setup(w: Workload, seed: u64, threads: usize) -> Result<Setup, Error> {
    let mut kernels: Vec<f64> = (0..SETUP_KERNELS)
        .map(|_| speed::kernel_ns(threads))
        .collect();
    let started = Instant::now();
    let mut setup = build(w, seed, threads)?;
    setup.wall_s = started.elapsed().as_secs_f64();
    kernels.extend((0..SETUP_KERNELS).map(|_| speed::kernel_ns(threads)));
    let kernel_ns = percentile(&sorted(&kernels), 0.5);
    setup.scaled_s = speed::scaled(setup.wall_s, kernel_ns, kernel_ns);
    Ok(setup)
}

/// Evaluate the zoo profiles, build an engine of `threads` workers and
/// make one cold-cache call per fleet mix (one call for serve-drift).
fn build(w: Workload, seed: u64, threads: usize) -> Result<Setup, Error> {
    let profiles = w.profiles();
    let engine = EngineConfig::new().threads(threads).build();
    let warm = warm(w, seed, &profiles, &engine)?;
    Ok(Setup {
        engine,
        profiles,
        warm,
        wall_s: 0.0,
        scaled_s: 0.0,
    })
}

/// The set-up calls on `engine`: one per fleet mix, or one.
pub fn warm(
    w: Workload,
    seed: u64,
    profiles: &[RateProfile],
    engine: &Engine,
) -> Result<Vec<Report>, Error> {
    let reports = (WARMUP_FIRST..WARMUP_FIRST + w.warmup_calls())
        .map(|i| input_of(w, seed, profiles, i).call(engine))
        .collect();
    mcdnn_obs::drain_spans();
    reports
}

/// What one closed-loop pass saw.
#[derive(Default)]
pub struct Pass {
    /// Wall time of every successful call, ms, in call order.
    pub walls_ms: Vec<f64>,
    /// The same, scaled to the reference host and with the pass's
    /// stolen share taken off.
    pub scaled_ms: Vec<f64>,
    /// Share of the vCPUs' time stolen during the pass.
    pub steal_share: f64,
    /// Every reference-kernel run of the pass, ns.
    pub kernel_ns: Vec<f64>,
    /// Work units served by the successful calls.
    pub units: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Registry spans the program recorded, drained after every call.
    pub spans: u64,
    /// VmHWM after [`RSS_AFTER_CALLS`] calls, MiB.
    pub rss_mib: f64,
    /// Quality and digests of the first [`QUALITY_CALLS`] calls.
    pub quality: Quality,
    pub digests: Vec<u64>,
    /// First and last successful call, for the serial reference check.
    pub first: Option<(u64, Report)>,
    pub last: Option<(u64, Report)>,
}

impl Pass {
    pub fn calls(&self) -> u64 {
        self.walls_ms.len() as u64
    }

    /// Work units per second of scaled call time, over every call.
    pub fn throughput(&self) -> f64 {
        ratio(self.units as f64, self.scaled_ms.iter().sum::<f64>() / 1e3)
    }

    fn add_quality(&mut self, report: &Report) {
        if (self.digests.len() as u64) < QUALITY_CALLS {
            self.quality.add(report);
            self.digests.push(report.digest());
        }
    }

    fn read_rss(&mut self, w: Workload) {
        match peak_rss_mib() {
            Ok(mib) => self.rss_mib = mib,
            Err(e) => self.failures.push(format!("{}: {e}", w.name())),
        }
    }
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Run calls `first, first + 1, ...` one at a time on `engine` until
/// `budget` has passed, and at least [`MIN_CALLS`]. The reference
/// kernel runs between every two calls. Only the `call` itself is
/// timed; inputs are generated and reports checked outside the timed
/// span.
pub fn run_pass(
    w: Workload,
    seed: u64,
    setup: &Setup,
    engine: &Engine,
    first: u64,
    budget: Duration,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let stolen = speed::stolen();
    let mut before = speed::kernel_ns(engine.threads());
    let mut i = first;
    while pass.attempted < MIN_CALLS || started.elapsed() < budget {
        if w.episodes() && pass.attempted > 0 && pass.attempted % EPISODE_CALLS == 0 {
            // The next episode starts where a set-up ends.
            engine.invalidate_profiles();
            match warm(w, seed, &setup.profiles, engine) {
                Ok(r) if r == setup.warm => {}
                Ok(_) => pass
                    .failures
                    .push(format!("{}: episode warm-up differs from set-up", w.name())),
                Err(e) => pass
                    .failures
                    .push(format!("{}: episode warm-up: {e}", w.name())),
            }
            before = speed::kernel_ns(engine.threads());
        }
        let input = input_of(w, seed, &setup.profiles, i);
        let t = Instant::now();
        let result = input.call(engine);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        pass.spans += mcdnn_obs::drain_spans().len() as u64;
        let after = speed::kernel_ns(engine.threads());
        pass.kernel_ns.push(before);
        pass.attempted += 1;
        match result
            .map_err(|e| e.to_string())
            .and_then(|r| r.check().map(|()| r))
        {
            Ok(report) => {
                pass.walls_ms.push(wall_ms);
                pass.scaled_ms.push(speed::scaled(wall_ms, before, after));
                pass.units += report.units();
                pass.add_quality(&report);
                if pass.first.is_none() {
                    pass.first = Some((i, report));
                } else {
                    pass.last = Some((i, report));
                }
            }
            Err(e) => pass.failures.push(format!("{}: call {i}: {e}", w.name())),
        }
        if pass.attempted == RSS_AFTER_CALLS {
            pass.read_rss(w);
        }
        before = after;
        i += 1;
    }
    if pass.attempted < RSS_AFTER_CALLS {
        pass.read_rss(w);
    }
    match stolen.and_then(|s0| {
        Ok(speed::steal_share(
            s0,
            speed::stolen()?,
            started.elapsed().as_secs_f64(),
        ))
    }) {
        Ok(share) => pass.steal_share = share,
        Err(e) => pass.failures.push(format!("{}: {e}", w.name())),
    }
    for ms in &mut pass.scaled_ms {
        *ms *= 1.0 - pass.steal_share;
    }
    pass
}

/// Complete the pass's quality set with untimed calls when the pass
/// made fewer than [`QUALITY_CALLS`], so the quality metrics never
/// depend on the host's speed.
pub fn complete_quality(w: Workload, seed: u64, setup: &Setup, pass: &mut Pass) {
    let Some((first, _)) = pass.first else {
        return;
    };
    let made = pass.digests.len() as u64;
    for i in first + made..first + QUALITY_CALLS {
        match input_of(w, seed, &setup.profiles, i).call(&setup.engine) {
            Ok(report) => pass.add_quality(&report),
            Err(e) => pass
                .failures
                .push(format!("{}: quality call {i}: {e}", w.name())),
        }
        mcdnn_obs::drain_spans();
    }
}

/// Check the pass's first and last call against the serial,
/// single-lock reference; returns the mismatches.
pub fn check_against_serial(w: Workload, seed: u64, setup: &Setup, pass: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, report) in pass.first.iter().chain(&pass.last) {
        match input_of(w, seed, &setup.profiles, *i).serial() {
            Ok(serial) if serial == *report => {}
            Ok(_) => failures.push(format!("{}: call {i} differs from serial", w.name())),
            Err(e) => failures.push(format!("{}: serial call {i}: {e}", w.name())),
        }
    }
    failures
}

/// A fresh, untimed set-up and its first `calls` calls; [`EPISODE_CALLS`]
/// calls make one serve-drift episode.
pub fn fresh_episode(w: Workload, seed: u64, threads: usize, calls: u64) -> Result<Setup, Error> {
    let setup = build(w, seed, threads)?;
    for i in 0..calls {
        input_of(w, seed, &setup.profiles, i).call(&setup.engine)?;
        mcdnn_obs::drain_spans();
    }
    Ok(setup)
}

/// Live-heap high-water mark of a [`fresh_episode`], the client's inputs
/// included, with the allocator counting: MiB above the heap's level
/// when the pass began. Untimed, because counting slows
/// allocation-heavy calls.
pub fn heap_pass(w: Workload, seed: u64, threads: usize, calls: u64) -> Result<f64, Error> {
    crate::alloc::start();
    let episode = fresh_episode(w, seed, threads, calls);
    let mib = crate::alloc::stop();
    episode.map(|_| mib)
}

/// `VmHWM` of this process: its resident-set high-water mark, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    mcdnn_obs::percentile_sorted(sorted, q)
}

/// Percentiles worth reporting, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.975, 0.95, 0.9, 0.5];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// of `n` samples beyond its rank; `None` when not even the median does
/// (fewer than 20 samples).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n as u64 - mcdnn_obs::nearest_rank(n as u64, q) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 200.0);
        assert_eq!(percentile(&v, 0.95), 380.0);
        assert_eq!(percentile(&v, 1.0), 400.0);
        assert_eq!(percentile(&v[..3], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(400), Some(0.975));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in 20..2000 {
            let q = tail_quantile(n).unwrap();
            assert!(
                n as u64 - mcdnn_obs::nearest_rank(n as u64, q) >= 10,
                "n={n}"
            );
        }
    }

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let before = peak_rss_mib().unwrap();
        let block = std::hint::black_box(vec![1u8; 32 << 20]);
        assert!(peak_rss_mib().unwrap() >= before.max(32.0), "{before}");
        drop(block);
    }
}
