//! Online operation under drifting bandwidth.
//!
//! The paper plans one batch against a known bandwidth; a deployed
//! system faces a link that drifts between bursts (user moves, cell
//! congestion). This module simulates burst-by-burst operation:
//!
//! * a [`BandwidthTrace`] produces the true uplink bandwidth per burst;
//! * a [`ReplanPolicy`] decides which bandwidth estimate the planner
//!   sees — the initial value forever (`Static`), the truth
//!   (`Oracle`), or a regression fit over the previous burst's observed
//!   uploads (`Estimated`, the paper's own `t = w0 + w1·r` estimator);
//! * each burst's plan is then *executed* under the true bandwidth.
//!
//! The gap `Static ≥ Estimated ≥ Oracle` quantifies the value of the
//! paper's lightweight online profiling loop.

use mcdnn_graph::LineDnn;
use mcdnn_obs::metrics;
use mcdnn_partition::{CutMix, PlanCache, PlanError, RateProfile, Strategy};
use mcdnn_profile::measure::{fit_comm_model, measure_uploads};
use mcdnn_profile::{CloudModel, DeviceModel, NetworkModel};
use mcdnn_rng::Rng;

/// True uplink bandwidth as a function of the burst index.
#[derive(Debug, Clone)]
pub enum BandwidthTrace {
    /// Constant bandwidth.
    Constant(f64),
    /// Sinusoidal drift: `mid + amp·sin(2π·i/period)`.
    Sine {
        /// Centre bandwidth, Mbps.
        mid: f64,
        /// Amplitude, Mbps (must stay below `mid`).
        amp: f64,
        /// Period in bursts.
        period: f64,
    },
    /// Two-state Gilbert–Elliott channel: good/bad bandwidth with a
    /// per-burst switch probability.
    GilbertElliott {
        /// Bandwidth in the good state, Mbps.
        good: f64,
        /// Bandwidth in the bad state, Mbps.
        bad: f64,
        /// Probability of switching state between bursts.
        switch_prob: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Explicit per-burst samples (cycled when exhausted).
    Samples(Vec<f64>),
}

impl BandwidthTrace {
    /// Materialise the first `bursts` bandwidths.
    pub(crate) fn realize(&self, bursts: usize) -> Vec<f64> {
        match self {
            BandwidthTrace::Constant(b) => vec![*b; bursts],
            BandwidthTrace::Sine { mid, amp, period } => {
                assert!(amp < mid, "amplitude must keep bandwidth positive");
                (0..bursts)
                    .map(|i| mid + amp * (2.0 * std::f64::consts::PI * i as f64 / period).sin())
                    .collect()
            }
            BandwidthTrace::GilbertElliott {
                good,
                bad,
                switch_prob,
                seed,
            } => {
                let mut rng = Rng::seed_from_u64(*seed);
                let mut in_good = true;
                (0..bursts)
                    .map(|_| {
                        if rng.gen_bool(*switch_prob) {
                            in_good = !in_good;
                        }
                        if in_good {
                            *good
                        } else {
                            *bad
                        }
                    })
                    .collect()
            }
            BandwidthTrace::Samples(v) => {
                assert!(!v.is_empty(), "need at least one sample");
                (0..bursts).map(|i| v[i % v.len()]).collect()
            }
        }
    }
}

/// How the planner learns the bandwidth before each burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanPolicy {
    /// Plan once with the first burst's bandwidth; never adapt.
    Static,
    /// Re-plan each burst with the true bandwidth (upper bound).
    Oracle,
    /// Re-plan each burst with a bandwidth estimated by fitting the
    /// paper's `t = w0 + w1·r` regression to noisy timed uploads from
    /// the *previous* burst's conditions.
    Estimated {
        /// Relative measurement noise on the timed uploads.
        noise_frac: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// Result of an online run.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// Makespan actually paid per burst (under the true bandwidth), ms.
    pub burst_makespans_ms: Vec<f64>,
    /// Bandwidth the planner believed per burst, Mbps.
    pub believed_mbps: Vec<f64>,
}

impl OnlineResult {
    /// Total time across bursts.
    pub fn total_ms(&self) -> f64 {
        self.burst_makespans_ms.iter().sum()
    }
}

/// Simulate `bursts` bursts of `jobs_per_burst` jobs of `line` under
/// `trace`, replanning per `policy`. `setup_ms` is the channel setup
/// latency of the link.
///
/// Replanning goes through the process-wide
/// [`PlanCache`]: the bandwidth frontier of
/// `(line, mobile, jobs_per_burst)` is compiled once (or fetched from
/// the cache when a previous run already compiled it), after which each
/// burst is an O(log B) breakpoint lookup plus an O(1) kernel pricing
/// at the true bandwidth. An input the frontier cannot compile (no
/// jobs, a non-positive bandwidth, a non-monotone profile) is the
/// frontier's typed error, as in [`Strategy::try_plan`]; zero bursts
/// is an empty result.
pub fn run_online(
    line: &LineDnn,
    mobile: &DeviceModel,
    trace: &BandwidthTrace,
    bursts: usize,
    jobs_per_burst: usize,
    setup_ms: f64,
    policy: ReplanPolicy,
) -> Result<OnlineResult, PlanError> {
    let _span = mcdnn_obs::span("sim", "run_online");
    let truth = trace.realize(bursts);
    let mut burst_makespans_ms = Vec::with_capacity(bursts);
    let mut believed_mbps = Vec::with_capacity(bursts);
    if truth.is_empty() {
        return Ok(OnlineResult {
            burst_makespans_ms,
            believed_mbps,
        });
    }
    // Frontier range: the realized truth padded 4x both ways, so the
    // Estimated policy's noisy beliefs stay in range (out-of-range
    // lookups still answer exactly, via the direct-planning fallback).
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for &b in &truth {
        lo = lo.min(b);
        hi = hi.max(b);
    }
    let rate = RateProfile::evaluate(line, mobile, &CloudModel::Negligible, setup_ms);
    let frontier = PlanCache::global().frontier(
        &rate,
        Strategy::JpsBestMix,
        jobs_per_burst,
        lo / 4.0,
        hi * 4.0,
    )?;
    let mut prev_mix: Option<CutMix> = None;
    let mut est_rng = match policy {
        ReplanPolicy::Estimated { seed, .. } => Some(Rng::seed_from_u64(seed)),
        _ => None,
    };

    for &true_bw in &truth {
        let believed = match policy {
            ReplanPolicy::Static => truth[0],
            ReplanPolicy::Oracle => true_bw,
            ReplanPolicy::Estimated { noise_frac, .. } => {
                // Probe the *current* conditions with a few timed
                // uploads (the paper's estimator runs continuously, so
                // by burst time it has samples at the current state).
                let rng = est_rng.as_mut().expect("estimated policy has rng");
                let net = NetworkModel::new(true_bw, setup_ms);
                let sizes: Vec<usize> = (1..=12).map(|k| k * 50_000).collect();
                let unit = NetworkModel::new(1.0, 0.0);
                let samples: Vec<(f64, f64)> = measure_uploads(rng, &net, &sizes, noise_frac)
                    .into_iter()
                    .zip(&sizes)
                    .map(|((_, t), &s)| (unit.ratio(s), t))
                    .collect();
                match fit_comm_model(&samples) {
                    Some(fit) if fit.w1 > 0.0 => 1.0 / fit.w1,
                    _ => truth[0],
                }
            }
        };
        believed_mbps.push(believed);
        metrics::ONLINE_BURSTS.add(1);

        // Plan against the believed bandwidth, pay the true one: an
        // O(log B) decision and O(1) pricing. (For Static, `believed`
        // is truth[0] every burst, so the decision is constant without
        // a special case.)
        let mix = frontier.decide(believed);
        // A replan event is a burst whose cut decision actually
        // changed — mix equality is cut-vector equality.
        if prev_mix.is_some_and(|prev| prev != mix) {
            metrics::ONLINE_REPLANS.add(1);
        }
        prev_mix = Some(mix);
        let paid_ms = frontier
            .profile()
            .mix_makespan(jobs_per_burst, mix, true_bw);
        metrics::ONLINE_BURST_MAKESPAN_MS.observe(paid_ms);
        burst_makespans_ms.push(paid_ms);
    }
    Ok(OnlineResult {
        burst_makespans_ms,
        believed_mbps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_graph::LineLayer;
    use mcdnn_profile::CostProfile;

    fn line() -> LineDnn {
        LineDnn::from_parts(
            "online-test",
            600_000,
            (1..=6)
                .map(|i| LineLayer {
                    name: format!("l{i}"),
                    flops: 200_000_000,
                    out_bytes: 600_000 >> i,
                    nodes: vec![],
                })
                .collect(),
        )
    }

    fn mobile() -> DeviceModel {
        DeviceModel::new("m", 2e9, 0.2)
    }

    #[test]
    fn traces_realize_expected_shapes() {
        assert_eq!(BandwidthTrace::Constant(5.0).realize(3), vec![5.0; 3]);
        let sine = BandwidthTrace::Sine {
            mid: 10.0,
            amp: 5.0,
            period: 8.0,
        }
        .realize(16);
        assert!(sine.iter().all(|&b| (5.0..=15.0).contains(&b)));
        assert!(sine.iter().any(|&b| b > 12.0) && sine.iter().any(|&b| b < 8.0));
        let ge = BandwidthTrace::GilbertElliott {
            good: 20.0,
            bad: 2.0,
            switch_prob: 0.3,
            seed: 1,
        }
        .realize(50);
        assert!(ge.iter().all(|&b| b == 20.0 || b == 2.0));
        assert!(ge.contains(&20.0) && ge.contains(&2.0));
        let s = BandwidthTrace::Samples(vec![1.0, 2.0]).realize(5);
        assert_eq!(s, vec![1.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn oracle_never_loses_to_static() {
        let trace = BandwidthTrace::Sine {
            mid: 10.0,
            amp: 8.0,
            period: 6.0,
        };
        let l = line();
        let m = mobile();
        let oracle = run_online(&l, &m, &trace, 12, 8, 10.0, ReplanPolicy::Oracle).unwrap();
        let fixed = run_online(&l, &m, &trace, 12, 8, 10.0, ReplanPolicy::Static).unwrap();
        assert!(
            oracle.total_ms() <= fixed.total_ms() + 1e-6,
            "oracle {} vs static {}",
            oracle.total_ms(),
            fixed.total_ms()
        );
        // On this strongly drifting trace the gap must be real.
        assert!(oracle.total_ms() < fixed.total_ms() * 0.99);
    }

    #[test]
    fn estimated_lands_between_static_and_oracle() {
        let trace = BandwidthTrace::GilbertElliott {
            good: 20.0,
            bad: 1.5,
            switch_prob: 0.4,
            seed: 3,
        };
        let l = line();
        let m = mobile();
        let oracle = run_online(&l, &m, &trace, 20, 6, 10.0, ReplanPolicy::Oracle).unwrap();
        let fixed = run_online(&l, &m, &trace, 20, 6, 10.0, ReplanPolicy::Static).unwrap();
        let est = run_online(
            &l,
            &m,
            &trace,
            20,
            6,
            10.0,
            ReplanPolicy::Estimated {
                noise_frac: 0.08,
                seed: 7,
            },
        )
        .unwrap();
        assert!(est.total_ms() <= fixed.total_ms() * 1.001);
        assert!(est.total_ms() >= oracle.total_ms() * 0.999);
        // Estimation should recover most of the oracle's advantage.
        let recovered =
            (fixed.total_ms() - est.total_ms()) / (fixed.total_ms() - oracle.total_ms());
        assert!(recovered > 0.8, "only recovered {recovered:.2} of the gap");
    }

    #[test]
    fn believed_bandwidth_tracks_truth_for_estimated() {
        let trace = BandwidthTrace::Samples(vec![18.0, 4.0, 18.0]);
        let est = run_online(
            &line(),
            &mobile(),
            &trace,
            3,
            4,
            10.0,
            ReplanPolicy::Estimated {
                noise_frac: 0.05,
                seed: 11,
            },
        )
        .unwrap();
        for (believed, truth) in est.believed_mbps.iter().zip([18.0, 4.0, 18.0]) {
            assert!(
                (believed - truth).abs() / truth < 0.2,
                "believed {believed} vs truth {truth}"
            );
        }
    }

    #[test]
    fn frontier_path_pays_what_the_direct_planner_would() {
        let trace = BandwidthTrace::Sine {
            mid: 10.0,
            amp: 8.0,
            period: 6.0,
        };
        let l = line();
        let m = mobile();
        let truth = trace.realize(12);
        let oracle = run_online(&l, &m, &trace, 12, 8, 10.0, ReplanPolicy::Oracle).unwrap();
        for (i, &bw) in truth.iter().enumerate() {
            let net = NetworkModel::new(bw, 10.0);
            let p = CostProfile::evaluate(&l, &m, &net, &CloudModel::Negligible);
            let direct = Strategy::JpsBestMix.plan(&p, 8);
            let rel = (oracle.burst_makespans_ms[i] - direct.makespan_ms).abs()
                / direct.makespan_ms.max(1.0);
            assert!(
                rel <= 1e-9,
                "burst {i} at {bw} Mbps: frontier paid {} vs planner {}",
                oracle.burst_makespans_ms[i],
                direct.makespan_ms
            );
        }
    }

    #[test]
    fn rejected_inputs_are_typed_errors_and_zero_bursts_is_empty() {
        let trace = BandwidthTrace::Constant(8.0);
        let (l, m) = (line(), mobile());
        let empty = run_online(&l, &m, &trace, 0, 4, 10.0, ReplanPolicy::Static).unwrap();
        assert!(empty.burst_makespans_ms.is_empty() && empty.believed_mbps.is_empty());
        let no_jobs = run_online(&l, &m, &trace, 5, 0, 10.0, ReplanPolicy::Static);
        assert!(matches!(no_jobs, Err(PlanError::BadInput { .. })));
        let dead = BandwidthTrace::Constant(0.0);
        let dead_link = run_online(&l, &m, &dead, 5, 4, 10.0, ReplanPolicy::Oracle);
        assert!(matches!(dead_link, Err(PlanError::BadInput { .. })));
        // Growing activations: uploading later costs more, which the
        // JPS theory does not admit.
        let growing = LineDnn::from_parts(
            "growing",
            100_000,
            (1..=3)
                .map(|i| LineLayer {
                    name: format!("l{i}"),
                    flops: 200_000_000,
                    out_bytes: 100_000 << i,
                    nodes: vec![],
                })
                .collect(),
        );
        let bumpy = run_online(&growing, &m, &trace, 5, 4, 10.0, ReplanPolicy::Oracle);
        assert!(matches!(bumpy, Err(PlanError::NonMonotoneG { .. })));
    }

    #[test]
    fn constant_trace_makes_all_policies_equal() {
        let trace = BandwidthTrace::Constant(8.0);
        let l = line();
        let m = mobile();
        let a = run_online(&l, &m, &trace, 5, 4, 10.0, ReplanPolicy::Static).unwrap();
        let b = run_online(&l, &m, &trace, 5, 4, 10.0, ReplanPolicy::Oracle).unwrap();
        assert!((a.total_ms() - b.total_ms()).abs() < 1e-9);
    }
}
