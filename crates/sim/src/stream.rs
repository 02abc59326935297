//! Steady-state streaming analysis: a camera produces frames forever.
//!
//! The paper optimises one batch's makespan; a deployed pipeline cares
//! about *sustained* operation — can the chosen cut keep up with the
//! frame rate, and what latency does each frame see once queues reach
//! steady state? The mobile CPU and the uplink form a two-node tandem
//! queue fed by (possibly jittered) periodic arrivals; the Lindley
//! recursion gives exact per-frame sojourn times.
//!
//! Key quantities per cut:
//! * **saturation rate** `1000 / max(f, g)` Hz — the paper's pipeline
//!   bottleneck bound (§4.2's `max(Σf, Σg)/n` in rate form);
//! * **utilisation** `ρ = max(f, g) / period` — above 1, queues grow
//!   without bound;
//! * **sojourn distribution** — release-to-completion latency once the
//!   warm-up frames are discarded.
//!
//! [`best_cut_for_rate`] picks the cut that sustains a target rate with
//! the lowest per-frame latency — the streaming analogue of JPS.

use mcdnn_profile::CostProfile;
use mcdnn_rng::Rng;

/// Streaming workload description.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Frame inter-arrival period, ms.
    pub period_ms: f64,
    /// Relative jitter on arrival times (0 = strictly periodic).
    pub arrival_jitter: f64,
    /// Frames to simulate.
    pub frames: usize,
    /// Frames discarded as warm-up before statistics.
    pub warmup: usize,
    /// RNG seed for jitter.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            period_ms: 33.3,
            arrival_jitter: 0.0,
            frames: 500,
            warmup: 50,
            seed: 0,
        }
    }
}

/// Steady-state statistics of one streamed cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Mean frame sojourn (release → completion), ms.
    pub mean_sojourn_ms: f64,
    /// 95th percentile sojourn, ms.
    pub p95_sojourn_ms: f64,
    /// Worst sojourn, ms.
    pub max_sojourn_ms: f64,
    /// CPU utilisation `f / period`.
    pub rho_cpu: f64,
    /// Uplink utilisation `g / period`.
    pub rho_link: f64,
    /// True when the bottleneck utilisation exceeds 1 (sojourns grow
    /// without bound; the reported statistics describe the transient).
    pub saturated: bool,
}

/// Exact tandem-queue simulation of homogeneous frames with stage
/// durations `(f_ms, g_ms)` under `config` arrivals.
pub fn simulate_stream(f_ms: f64, g_ms: f64, config: &StreamConfig) -> StreamStats {
    assert!(f_ms >= 0.0 && g_ms >= 0.0, "stage times must be >= 0");
    assert!(config.period_ms > 0.0, "period must be positive");
    assert!(config.period_ms.is_finite(), "period must be finite");
    assert!(config.frames > config.warmup, "need frames beyond warm-up");
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut arrival = 0.0f64;
    let mut cpu_free = 0.0f64;
    let mut link_free = 0.0f64;
    let mut sojourns: Vec<f64> = Vec::with_capacity(config.frames - config.warmup);
    for i in 0..config.frames {
        let gap = if config.arrival_jitter > 0.0 {
            let u: f64 = rng.gen_range(-1.0..1.0);
            (config.period_ms * (1.0 + config.arrival_jitter * u)).max(0.0)
        } else {
            config.period_ms
        };
        if i > 0 {
            arrival += gap;
        }
        // Lindley across the tandem: CPU stage, then link stage.
        let cpu_start = arrival.max(cpu_free);
        cpu_free = cpu_start + f_ms;
        let done = if g_ms > 0.0 {
            let link_start = cpu_free.max(link_free);
            link_free = link_start + g_ms;
            link_free
        } else {
            cpu_free
        };
        if i >= config.warmup {
            sojourns.push(done - arrival);
        }
    }
    sojourns.sort_by(f64::total_cmp);
    let n = sojourns.len();
    let mean = sojourns.iter().sum::<f64>() / n as f64;
    let p95 = sojourns[((n as f64 * 0.95) as usize).min(n - 1)];
    let rho_cpu = f_ms / config.period_ms;
    let rho_link = g_ms / config.period_ms;
    StreamStats {
        mean_sojourn_ms: mean,
        p95_sojourn_ms: p95,
        max_sojourn_ms: *sojourns.last().expect("frames > warmup"),
        rho_cpu,
        rho_link,
        saturated: rho_cpu.max(rho_link) > 1.0,
    }
}

/// Maximum sustainable frame rate of a cut, Hz.
pub fn saturation_rate_hz(f_ms: f64, g_ms: f64) -> f64 {
    let bottleneck = f_ms.max(g_ms);
    if bottleneck <= 0.0 {
        f64::INFINITY
    } else {
        1000.0 / bottleneck
    }
}

/// The streaming planner: among cuts that sustain `rate_hz` (bottleneck
/// utilisation < `rho_limit`), pick the one with the smallest per-frame
/// latency `f + g`.
///
/// # `None` contract
///
/// Returns `None` **iff** every cut `l` fails the strict feasibility
/// test `max(f(l), g(l)) < rho_limit * period` (with
/// `period = 1000 / rate_hz` ms) — i.e. the requested rate is at or
/// above `rho_limit ·` [`saturation_rate_hz`] for *every* cut. The
/// comparison is deliberately strict: a cut whose bottleneck exactly
/// equals the derated period runs at utilisation `rho_limit` with zero
/// slack, so queues never drain after any perturbation. Requesting
/// exactly the (derated) saturation rate therefore yields `None`;
/// callers should treat `None` as "lower the frame rate or raise
/// `rho_limit`", not as an error.
///
/// # Complexity
///
/// One pass over the `k + 1` cuts. Clustered profiles have a handful
/// of cut points, so a search over the feasible interval would save
/// nothing: checking that the profile is monotone enough for one is
/// itself a full pass.
pub fn best_cut_for_rate(profile: &CostProfile, rate_hz: f64, rho_limit: f64) -> Option<usize> {
    best_cut_in(profile.f_all(), profile.g_all(), 1.0, rate_hz, rho_limit)
}

/// [`best_cut_for_rate`] over borrowed stage slices `f`, `g` of equal
/// length `k + 1`, with the link at rate factor `x ∈ (0, 1]`: every
/// upload time is read as `g(l) / x`, so the degradation ladder decides
/// on a degraded link without materializing its upload curve. `x = 1`
/// divides exactly.
pub(crate) fn best_cut_in(
    f: &[f64],
    g: &[f64],
    x: f64,
    rate_hz: f64,
    rho_limit: f64,
) -> Option<usize> {
    assert!(rate_hz > 0.0 && rho_limit > 0.0);
    let period = 1000.0 / rate_hz;
    let budget = rho_limit * period;
    let k = f.len() - 1;
    let g = |l: usize| g[l] / x;
    (0..=k)
        .filter(|&l| f[l].max(g(l)) < budget)
        .min_by(|&a, &b| {
            let la = f[a] + g(a);
            let lb = f[b] + g(b);
            la.total_cmp(&lb).then(a.cmp(&b))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underloaded_stream_has_no_queueing() {
        // f + g well under the period: sojourn = f + g exactly.
        let s = simulate_stream(5.0, 4.0, &StreamConfig::default());
        assert!((s.mean_sojourn_ms - 9.0).abs() < 1e-9);
        assert!(!s.saturated);
        assert!((s.rho_cpu - 5.0 / 33.3).abs() < 1e-9);
    }

    #[test]
    fn saturated_stream_detected_and_grows() {
        let cfg = StreamConfig {
            period_ms: 10.0,
            frames: 400,
            warmup: 10,
            arrival_jitter: 0.0,
            seed: 0,
        };
        let s = simulate_stream(12.0, 2.0, &cfg);
        assert!(s.saturated);
        // Backlog grows ~2 ms per frame: max sojourn far above mean of
        // an unsaturated system.
        assert!(s.max_sojourn_ms > 400.0);
        // Doubling the horizon roughly doubles the worst sojourn.
        let s2 = simulate_stream(
            12.0,
            2.0,
            &StreamConfig {
                frames: 800,
                ..cfg
            },
        );
        assert!(s2.max_sojourn_ms > 1.8 * s.max_sojourn_ms / 2.0 * 1.5);
    }

    #[test]
    fn stable_queue_statistics_converge() {
        // ρ < 1 with jitter: doubling the horizon keeps mean sojourn
        // essentially unchanged (stationarity).
        let base = StreamConfig {
            period_ms: 20.0,
            arrival_jitter: 0.4,
            frames: 2000,
            warmup: 200,
            seed: 3,
        };
        let a = simulate_stream(14.0, 9.0, &base);
        let b = simulate_stream(
            14.0,
            9.0,
            &StreamConfig {
                frames: 4000,
                ..base
            },
        );
        assert!(!a.saturated);
        assert!(
            (a.mean_sojourn_ms - b.mean_sojourn_ms).abs() / a.mean_sojourn_ms < 0.1,
            "{} vs {}",
            a.mean_sojourn_ms,
            b.mean_sojourn_ms
        );
    }

    #[test]
    fn jitter_increases_waiting() {
        let base = StreamConfig {
            period_ms: 16.0,
            frames: 3000,
            warmup: 300,
            seed: 5,
            ..StreamConfig::default()
        };
        let smooth = simulate_stream(12.0, 10.0, &base);
        let bursty = simulate_stream(
            12.0,
            10.0,
            &StreamConfig {
                arrival_jitter: 0.8,
                ..base
            },
        );
        assert!(
            bursty.mean_sojourn_ms > smooth.mean_sojourn_ms,
            "jitter must add queueing: {} vs {}",
            bursty.mean_sojourn_ms,
            smooth.mean_sojourn_ms
        );
    }

    #[test]
    fn saturation_rate() {
        assert!((saturation_rate_hz(10.0, 25.0) - 40.0).abs() < 1e-9);
        assert_eq!(saturation_rate_hz(0.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn best_cut_for_rate_picks_feasible_minimum_latency() {
        let p = CostProfile::from_vectors(
            "s",
            vec![0.0, 10.0, 40.0, 120.0],
            vec![200.0, 60.0, 20.0, 0.0],
            None,
        );
        // 20 Hz -> 50 ms period; feasible cuts need max(f,g) < 45.
        // Cut 2: max(40, 20) = 40 feasible, latency 60.
        // Cut 1: max(10, 60) = 60 infeasible; cut 3: 120 infeasible;
        // cut 0: 200 infeasible.
        assert_eq!(best_cut_for_rate(&p, 20.0, 0.9), Some(2));
        // 5 Hz -> 200 ms period; now cut 1 (latency 70) also feasible
        // and beats cut 2 (60)? latency cut2 = 60 < 70 -> still cut 2.
        assert_eq!(best_cut_for_rate(&p, 5.0, 0.9), Some(2));
        // Absurd rate: nothing keeps up.
        assert_eq!(best_cut_for_rate(&p, 1000.0, 0.9), None);
    }

    #[test]
    fn exactly_saturation_rate_returns_none() {
        // One non-trivial profile where every cut bottlenecks at 50 ms:
        // saturation_rate_hz = 20 Hz at both cuts.
        let p = CostProfile::from_vectors("s", vec![0.0, 50.0], vec![50.0, 0.0], None);
        assert!((saturation_rate_hz(p.f(0), p.g(0)) - 20.0).abs() < 1e-12);
        assert!((saturation_rate_hz(p.f(1), p.g(1)) - 20.0).abs() < 1e-12);
        // Exactly the saturation rate (rho_limit = 1): utilisation would
        // be exactly 1 with zero slack, so the strict filter rejects
        // every cut -> None, per the documented contract.
        assert_eq!(best_cut_for_rate(&p, 20.0, 1.0), None);
        // Any slack at all makes the stream sustainable again.
        assert_eq!(best_cut_for_rate(&p, 19.99, 1.0), Some(0));
        // Derating shifts the boundary: at rho_limit = 0.9 the cutoff is
        // 18 Hz, again excluded exactly at the boundary.
        assert_eq!(best_cut_for_rate(&p, 18.0, 0.9), None);
        assert_eq!(best_cut_for_rate(&p, 17.99, 0.9), Some(0));
    }

    #[test]
    fn chosen_cut_actually_sustains_the_rate() {
        let p = CostProfile::from_vectors(
            "s",
            vec![0.0, 10.0, 40.0, 120.0],
            vec![200.0, 60.0, 20.0, 0.0],
            None,
        );
        let cut = best_cut_for_rate(&p, 20.0, 0.9).unwrap();
        let stats = simulate_stream(
            p.f(cut),
            p.g(cut),
            &StreamConfig {
                period_ms: 50.0,
                frames: 1000,
                warmup: 100,
                ..StreamConfig::default()
            },
        );
        assert!(!stats.saturated);
        assert!(stats.p95_sojourn_ms < 5.0 * (p.f(cut) + p.g(cut)));
    }
}
