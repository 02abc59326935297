//! Synthetic DNNs: the paper's AlexNet′ (Fig. 11) and parametric line
//! generators used by property tests and ablation benches.
//!
//! The paper observes (§3.2) that for typical line DNNs the computation
//! workload grows ≈ linearly with the cut depth while the offload volume
//! decays ≈ exponentially. AlexNet′ is AlexNet with its communication
//! curve replaced by samples from the fitted exponential — on it, the
//! continuous-domain optimality conditions of Theorem 5.2 hold almost
//! exactly, which is why the paper uses it to validate JPS against brute
//! force.

use mcdnn_graph::{cluster_virtual_blocks, LineDnn, LineLayer};
use mcdnn_rng::Rng;

use crate::alexnet;

/// Fit `log(y) = a + b·x` by least squares and return `(a, b)`.
///
/// Points with `y == 0` are skipped (log undefined); at least two valid
/// points are required.
pub(crate) fn fit_log_linear(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let valid: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, y)| y > 0.0)
        .map(|&(x, y)| (x, y.ln()))
        .collect();
    if valid.len() < 2 {
        return None;
    }
    let n = valid.len() as f64;
    let sx: f64 = valid.iter().map(|p| p.0).sum();
    let sy: f64 = valid.iter().map(|p| p.1).sum();
    let sxx: f64 = valid.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = valid.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    Some((a, b))
}

/// AlexNet′: AlexNet (clustered) with every interior offload volume
/// replaced by the fitted exponential `exp(a + b·l)` (paper Fig. 11).
pub(crate) fn alexnet_prime() -> LineDnn {
    let base = alexnet::line().expect("alexnet is a line");
    let (clustered, _) = cluster_virtual_blocks(&base);
    let points: Vec<(f64, f64)> = (1..clustered.k())
        .map(|l| (l as f64, clustered.offload_bytes(l) as f64))
        .collect();
    let (a, b) = fit_log_linear(&points).expect("alexnet volume curve is fittable");
    let layers: Vec<LineLayer> = clustered
        .layers()
        .iter()
        .enumerate()
        .map(|(idx, layer)| {
            let l = idx + 1;
            let out_bytes = if l == clustered.k() {
                layer.out_bytes
            } else {
                (a + b * l as f64).exp().round().max(1.0) as usize
            };
            LineLayer {
                name: layer.name.clone(),
                flops: layer.flops,
                out_bytes,
                nodes: layer.nodes.clone(),
            }
        })
        .collect();
    LineDnn::from_parts("alexnet_prime", clustered.input_bytes(), layers)
}

/// Random line DNN with non-increasing offload volume — the post-
/// clustering form every partition algorithm consumes. FLOPs per layer
/// are drawn from `flops_range`; volumes shrink by a random factor in
/// `shrink_range` per layer.
pub fn random_monotone_line(
    rng: &mut Rng,
    k: usize,
    input_bytes: usize,
    flops_range: (u64, u64),
    shrink_range: (f64, f64),
) -> LineDnn {
    assert!(k >= 1);
    assert!(shrink_range.0 > 0.0 && shrink_range.1 < 1.0 && shrink_range.0 <= shrink_range.1);
    let mut volume = input_bytes as f64;
    let layers = (1..=k)
        .map(|l| {
            volume *= rng.gen_range(shrink_range.0..=shrink_range.1);
            LineLayer {
                name: format!("r{l}"),
                flops: rng.gen_range(flops_range.0..=flops_range.1),
                out_bytes: volume.round().max(1.0) as usize,
                nodes: vec![],
            }
        })
        .collect();
    LineDnn::from_parts("random_line", input_bytes, layers)
}

/// Random line DNN with *arbitrary* (possibly locally increasing) offload
/// volumes — exercises the clustering path.
pub fn random_bumpy_line(
    rng: &mut Rng,
    k: usize,
    input_bytes: usize,
    flops_range: (u64, u64),
) -> LineDnn {
    assert!(k >= 1);
    let layers = (1..=k)
        .map(|l| LineLayer {
            name: format!("b{l}"),
            flops: rng.gen_range(flops_range.0..=flops_range.1),
            out_bytes: rng.gen_range(1..=2 * input_bytes.max(2)),
            nodes: vec![],
        })
        .collect();
    LineDnn::from_parts("bumpy_line", input_bytes, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_linear_fit_recovers_exact_exponential() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| (i as f64, (5.0 - 0.7 * i as f64).exp()))
            .collect();
        let (a, b) = fit_log_linear(&pts).unwrap();
        assert!((a - 5.0).abs() < 1e-9, "a = {a}");
        assert!((b + 0.7).abs() < 1e-9, "b = {b}");
    }

    #[test]
    fn log_linear_fit_rejects_degenerate_input() {
        assert!(fit_log_linear(&[(1.0, 2.0)]).is_none());
        assert!(fit_log_linear(&[(1.0, 0.0), (2.0, 0.0)]).is_none());
        // Same x for all points -> singular.
        assert!(fit_log_linear(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn alexnet_prime_volume_is_monotone_exponential() {
        let p = alexnet_prime();
        for l in 2..p.k() {
            assert!(
                p.offload_bytes(l) < p.offload_bytes(l - 1),
                "volume must decrease at {l}"
            );
        }
        // Ratio between consecutive interior volumes is constant (within
        // rounding): the signature of an exact exponential.
        let r1 = p.offload_bytes(2) as f64 / p.offload_bytes(1) as f64;
        let r2 = p.offload_bytes(3) as f64 / p.offload_bytes(2) as f64;
        assert!((r1 - r2).abs() < 0.02, "ratios {r1} vs {r2}");
    }

    #[test]
    fn alexnet_prime_keeps_compute() {
        let p = alexnet_prime();
        let (clustered, _) =
            mcdnn_graph::cluster_virtual_blocks(&alexnet::line().unwrap());
        assert_eq!(p.total_flops(), clustered.total_flops());
        assert_eq!(p.k(), clustered.k());
    }

    #[test]
    fn random_monotone_line_is_monotone() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..20 {
            let l = random_monotone_line(&mut rng, 12, 1 << 16, (100, 10_000), (0.3, 0.9));
            assert!(mcdnn_graph::cluster::is_strictly_decreasing_volume(&l));
        }
    }

    #[test]
    fn bumpy_line_clusters_clean() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..20 {
            let l = random_bumpy_line(&mut rng, 15, 4096, (10, 1000));
            let (c, _) = mcdnn_graph::cluster_virtual_blocks(&l);
            assert!(mcdnn_graph::cluster::is_strictly_decreasing_volume(&c));
            assert_eq!(c.total_flops(), l.total_flops());
        }
    }
}
