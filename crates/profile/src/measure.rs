//! Synthetic measurement generation.
//!
//! The paper's profiler measures real hardware: PyTorch Profiler for
//! compute, timed gRPC round-trips for communication (§6.1). We have no
//! hardware, so this module *generates* measurements from the analytic
//! models plus multiplicative Gaussian-ish noise — exercising the same
//! estimation pipeline (measure → average into lookup table / fit
//! regression → schedule) the paper runs.

use mcdnn_graph::LineDnn;
use mcdnn_rng::Rng;

use crate::device::DeviceModel;
use crate::network::NetworkModel;
use crate::regression::LinearRegression;

/// One simulated measurement of the full `f` vector of a model:
/// per-cut mobile compute times with `noise_frac` relative jitter.
pub fn measure_f(
    rng: &mut Rng,
    line: &LineDnn,
    device: &DeviceModel,
    noise_frac: f64,
) -> Vec<f64> {
    assert!((0.0..1.0).contains(&noise_frac), "noise fraction in [0,1)");
    (0..=line.k())
        .map(|cut| {
            let t = device.time_ms(line.mobile_flops(cut), cut);
            jitter(rng, t, noise_frac)
        })
        .collect()
}

/// Simulated timed-upload samples `(ratio r = s/b, measured ms)` for
/// random message sizes, as the paper's gRPC timing loop would produce.
pub fn measure_uploads(
    rng: &mut Rng,
    network: &NetworkModel,
    sizes: &[usize],
    noise_frac: f64,
) -> Vec<(f64, f64)> {
    sizes
        .iter()
        .map(|&s| {
            let r = network.ratio(s);
            let t = jitter(rng, network.upload_ms(s), noise_frac);
            (r, t)
        })
        .collect()
}

/// Fit the paper's communication regression `t = w0 + w1·r` from timed
/// samples. Returns `None` for degenerate sample sets.
pub fn fit_comm_model(samples: &[(f64, f64)]) -> Option<LinearRegression> {
    LinearRegression::fit(samples)
}

fn jitter(rng: &mut Rng, value: f64, frac: f64) -> f64 {
    if frac == 0.0 || value == 0.0 {
        return value;
    }
    // Sum of uniforms ≈ normal; cheap, no extra deps, bounded support.
    let u: f64 = (0..4).map(|_| rng.gen_range(-0.5..0.5)).sum::<f64>() / 2.0;
    (value * (1.0 + frac * u)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_graph::LineLayer;

    fn line() -> LineDnn {
        LineDnn::from_parts(
            "t",
            1 << 20,
            (1..=6)
                .map(|i| LineLayer {
                    name: format!("l{i}"),
                    flops: 10_000_000,
                    out_bytes: (1 << 20) >> i,
                    nodes: vec![],
                })
                .collect(),
        )
    }

    #[test]
    fn noiseless_measure_matches_model() {
        let mut rng = Rng::seed_from_u64(1);
        let dev = DeviceModel::new("d", 1e9, 0.5);
        let f = measure_f(&mut rng, &line(), &dev, 0.0);
        assert_eq!(f.len(), 7);
        assert_eq!(f[0], 0.0);
        assert!((f[3] - dev.time_ms(30_000_000, 3)).abs() < 1e-12);
    }

    #[test]
    fn noisy_measure_is_close_and_nonnegative() {
        let mut rng = Rng::seed_from_u64(2);
        let dev = DeviceModel::new("d", 1e9, 0.0);
        for _ in 0..50 {
            let f = measure_f(&mut rng, &line(), &dev, 0.1);
            for (cut, v) in f.iter().enumerate() {
                let truth = dev.time_ms(line().mobile_flops(cut), cut);
                assert!(*v >= 0.0);
                assert!((v - truth).abs() <= truth * 0.15 + 1e-9);
            }
        }
    }

    #[test]
    fn regression_recovers_network_parameters() {
        let mut rng = Rng::seed_from_u64(3);
        let net = NetworkModel::new(10.0, 25.0);
        let sizes: Vec<usize> = (1..=40).map(|i| i * 25_000).collect();
        let samples = measure_uploads(&mut rng, &net, &sizes, 0.05);
        let fit = fit_comm_model(&samples).unwrap();
        // w0 ≈ setup latency, w1 ≈ 1 (ratio already in ms units).
        assert!((fit.w0 - 25.0).abs() < 8.0, "w0 = {}", fit.w0);
        assert!((fit.w1 - 1.0).abs() < 0.05, "w1 = {}", fit.w1);
    }

    #[test]
    fn averaged_noisy_runs_converge_to_truth() {
        let mut rng = Rng::seed_from_u64(4);
        let dev = DeviceModel::new("d", 1e9, 0.0);
        let l = line();
        let runs: Vec<Vec<f64>> = (0..200).map(|_| measure_f(&mut rng, &l, &dev, 0.2)).collect();
        let mut table = crate::lookup::LookupTable::new();
        table.insert_averaged("t", &runs);
        let truth = dev.time_ms(l.mobile_flops(6), 6);
        let est = table.f("t", 6).unwrap();
        assert!((est - truth).abs() < truth * 0.02, "est {est} vs {truth}");
    }
}
