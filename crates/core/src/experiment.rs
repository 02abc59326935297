//! Experiment harness: one function per table/figure of the paper's
//! evaluation (§6), shared by the bench binaries and integration tests.
//!
//! Every function returns plain data rows; [`to_csv`] renders them.
//! The bench crate wraps each in a binary that prints the regenerated
//! table/figure series (see `EXPERIMENTS.md`).
//!
//! Sweep points are independent, so the grid-shaped experiments
//! (strategy comparison, bandwidth sweep, ratio sweep, BF comparison)
//! fan out across cores with [`mcdnn_runtime::parallel_map`] — output
//! order is preserved, so rows land exactly as the serial loops
//! produced them. Set `MCDNN_THREADS=1` to force serial execution.

use std::fmt::Write as _;

use mcdnn_models::Model;
use mcdnn_partition::{binary_search_cut, Strategy};
use mcdnn_profile::{CloudModel, CostProfile, DeviceModel, NetworkModel};

use crate::scenario::Scenario;

/// A labelled network preset.
#[derive(Debug, Clone, Copy)]
pub struct NetworkPreset {
    /// Display label ("3G", "4G", "Wi-Fi").
    pub label: &'static str,
    /// Bandwidth in Mbps.
    pub bandwidth_mbps: f64,
}

/// The paper's three network presets (§6.3, from Hu et al. (DADS, INFOCOM'19)).
pub const PAPER_NETWORKS: [NetworkPreset; 3] = [
    NetworkPreset {
        label: "3G",
        bandwidth_mbps: 1.1,
    },
    NetworkPreset {
        label: "4G",
        bandwidth_mbps: 5.85,
    },
    NetworkPreset {
        label: "Wi-Fi",
        bandwidth_mbps: 18.88,
    },
];

impl NetworkPreset {
    /// Instantiate the network model (setup latency scaled with the
    /// technology, as in the profile crate presets).
    pub fn model(&self) -> NetworkModel {
        match self.label {
            "3G" => NetworkModel::three_g(),
            "4G" => NetworkModel::four_g(),
            "Wi-Fi" => NetworkModel::wifi(),
            _ => NetworkModel::new(self.bandwidth_mbps, 20.0),
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 4 — per-layer time consumption of AlexNet.
// ---------------------------------------------------------------------

/// One row of the Fig. 4 per-layer breakdown.
#[derive(Debug, Clone)]
pub struct LayerTimeRow {
    /// 1-based layer (virtual block) index.
    pub layer: usize,
    /// Block name.
    pub name: String,
    /// Mobile time of this block alone, ms.
    pub mobile_ms: f64,
    /// Upload time when cutting after this block, ms.
    pub comm_ms: f64,
    /// Cloud time for the remainder after this block, ms.
    pub cloud_ms: f64,
}

/// Per-layer mobile/comm/cloud times for a model (paper Fig. 4).
pub fn layer_time_table(model: Model, network: NetworkModel) -> Vec<LayerTimeRow> {
    let line = model.line().expect("zoo model");
    let mobile = DeviceModel::raspberry_pi4();
    let cloud = CloudModel::Device(DeviceModel::cloud_gtx1080());
    let profile = CostProfile::evaluate(&line, &mobile, &network, &cloud);
    (1..=line.k())
        .map(|l| LayerTimeRow {
            layer: l,
            name: line.layer(l).name.clone(),
            mobile_ms: profile.f(l) - profile.f(l - 1),
            comm_ms: profile.g(l),
            cloud_ms: profile.cloud(l),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 12(a-c) + Table 1 — strategy comparison per model × network.
// ---------------------------------------------------------------------

/// One measurement in the strategy comparison.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Model evaluated.
    pub model: Model,
    /// Network label.
    pub network: &'static str,
    /// Strategy evaluated.
    pub strategy: Strategy,
    /// Makespan of `n` jobs, ms.
    pub makespan_ms: f64,
    /// Makespan per job (`makespan / n`, the Fig. 12 y-axis), ms.
    pub per_job_ms: f64,
}

/// Fig. 12(a–c): per-job latency of each strategy for every model at
/// every paper network, with `n` jobs.
pub fn latency_comparison(models: &[Model], n: usize) -> Vec<LatencyRow> {
    let strategies = [
        Strategy::CloudOnly,
        Strategy::LocalOnly,
        Strategy::PartitionOnly,
        Strategy::Jps,
    ];
    let grid: Vec<(NetworkPreset, Model)> = PAPER_NETWORKS
        .iter()
        .flat_map(|&preset| models.iter().map(move |&m| (preset, m)))
        .collect();
    let groups = mcdnn_runtime::parallel_map(&grid, |_, &(preset, model)| {
        let scenario = Scenario::paper_default(model, preset.model());
        strategies
            .iter()
            .map(|&s| {
                let plan = scenario.plan(s, n);
                LatencyRow {
                    model,
                    network: preset.label,
                    strategy: s,
                    makespan_ms: plan.makespan_ms,
                    per_job_ms: plan.average_makespan_ms(),
                }
            })
            .collect::<Vec<_>>()
    });
    groups.into_iter().flatten().collect()
}

/// One Table 1 cell pair: latency reduction (%) of PO and JPS vs LO.
#[derive(Debug, Clone)]
pub struct ReductionRow {
    /// Model evaluated.
    pub model: Model,
    /// Network label.
    pub network: &'static str,
    /// PO reduction vs LO, percent (clamped at 0 like the paper).
    pub po_reduction_pct: f64,
    /// JPS reduction vs LO, percent.
    pub jps_reduction_pct: f64,
}

/// Table 1: latency reduction ratio compared with LO (%).
pub fn reduction_table(models: &[Model], n: usize) -> Vec<ReductionRow> {
    let grid: Vec<(NetworkPreset, Model)> = PAPER_NETWORKS
        .iter()
        .flat_map(|&preset| models.iter().map(move |&m| (preset, m)))
        .collect();
    mcdnn_runtime::parallel_map(&grid, |_, &(preset, model)| {
        let scenario = Scenario::paper_default(model, preset.model());
        let lo = scenario.plan(Strategy::LocalOnly, n).makespan_ms;
        let po = scenario.plan(Strategy::PartitionOnly, n).makespan_ms;
        let jps = scenario.plan(Strategy::Jps, n).makespan_ms;
        let pct = |x: f64| ((1.0 - x / lo) * 100.0).max(0.0);
        ReductionRow {
            model,
            network: preset.label,
            po_reduction_pct: pct(po),
            jps_reduction_pct: pct(jps),
        }
    })
}

// ---------------------------------------------------------------------
// Fig. 13 — latency vs bandwidth sweep.
// ---------------------------------------------------------------------

/// One sweep point: per-job latency of each strategy at one bandwidth.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Uplink bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// LO per-job latency (bandwidth-independent), ms.
    pub lo_ms: f64,
    /// CO per-job latency, ms.
    pub co_ms: f64,
    /// PO per-job latency, ms.
    pub po_ms: f64,
    /// JPS per-job latency, ms.
    pub jps_ms: f64,
}

/// Fig. 13: per-job latency under bandwidths `mbps` for `n` jobs.
/// Sweep points are evaluated in parallel (order preserved).
pub fn bandwidth_sweep(model: Model, mbps: &[f64], n: usize) -> Vec<BandwidthRow> {
    let base = Scenario::paper_default(model, NetworkModel::wifi());
    mcdnn_runtime::parallel_map(mbps, |_, &b| {
        let s = base.with_network(NetworkModel::new(b, NetworkModel::wifi().setup_ms));
        BandwidthRow {
            bandwidth_mbps: b,
            lo_ms: s.plan(Strategy::LocalOnly, n).average_makespan_ms(),
            co_ms: s.plan(Strategy::CloudOnly, n).average_makespan_ms(),
            po_ms: s.plan(Strategy::PartitionOnly, n).average_makespan_ms(),
            jps_ms: s.plan(Strategy::Jps, n).average_makespan_ms(),
        }
    })
}

/// The benefit range of JPS (paper §6.3, Fig. 13): bandwidths where JPS
/// strictly beats *both* LO and CO.
pub fn benefit_range(rows: &[BandwidthRow], tol: f64) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.jps_ms < r.lo_ms - tol && r.jps_ms < r.co_ms - tol)
        .map(|r| r.bandwidth_mbps)
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 14 — impact of the computation/communication-heavy job ratio.
// ---------------------------------------------------------------------

/// One ratio-sweep point.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Ratio `#computation-heavy / #communication-heavy`.
    pub ratio: f64,
    /// Jobs cut at `l*` (computation-heavy side).
    pub comp_heavy_jobs: usize,
    /// Jobs cut at `l*−1` (communication-heavy side).
    pub comm_heavy_jobs: usize,
    /// Makespan of the mix, ms.
    pub makespan_ms: f64,
}

/// Fig. 14: makespan of `n` jobs as the mix between the two adjacent
/// cut types varies, at each bandwidth. Bandwidth points are evaluated
/// in parallel (order preserved).
pub fn ratio_sweep(model: Model, mbps: &[f64], ratios: &[f64], n: usize) -> Vec<RatioRow> {
    let base = Scenario::paper_default(model, NetworkModel::wifi());
    let groups = mcdnn_runtime::parallel_map(mbps, |_, &b| {
        let s = base.with_network(NetworkModel::new(b, NetworkModel::wifi().setup_ms));
        let profile = s.profile();
        let search = binary_search_cut(profile);
        let (prev, star) = match search.l_prev {
            Some(p) => (p, search.l_star),
            None => (search.l_star, search.l_star),
        };
        ratios
            .iter()
            .map(|&r| {
                assert!(r > 0.0, "ratio must be positive");
                // ratio = comp/comm -> comm share = n / (1 + r).
                let comm = ((n as f64) / (1.0 + r)).round() as usize;
                let comm = comm.min(n);
                let comp = n - comm;
                let mut cuts = vec![prev; comm];
                cuts.extend(std::iter::repeat_n(star, comp));
                let plan =
                    mcdnn_partition::Plan::from_cuts(Strategy::Jps, profile, cuts);
                RatioRow {
                    bandwidth_mbps: b,
                    ratio: r,
                    comp_heavy_jobs: comp,
                    comm_heavy_jobs: comm,
                    makespan_ms: plan.makespan_ms,
                }
            })
            .collect::<Vec<_>>()
    });
    groups.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------
// Fig. 11 — JPS vs brute force.
// ---------------------------------------------------------------------

/// One Fig. 11 point: JPS and BF makespans for `n` jobs.
#[derive(Debug, Clone)]
pub struct BfCompareRow {
    /// Model evaluated.
    pub model: Model,
    /// Number of jobs.
    pub n: usize,
    /// JPS makespan, ms.
    pub jps_ms: f64,
    /// Exact optimum, ms (`None` where BF is infeasible).
    pub bf_ms: Option<f64>,
}

/// Fig. 11: JPS vs the exact joint optimum on AlexNet / AlexNet′.
///
/// BF enumerates `C(n + k, k)` cut multisets; it is skipped where that
/// exceeds the guard (the paper likewise only runs BF on small inputs).
pub fn bf_comparison(model: Model, ns: &[usize], network: NetworkModel) -> Vec<BfCompareRow> {
    let scenario = Scenario::paper_default(model, network);
    let k = scenario.profile().k();
    // BF points grow combinatorially with n while JPS points stay
    // trivial — exactly the skewed workload the dynamic work queue
    // balances.
    mcdnn_runtime::parallel_map(ns, |_, &n| {
        let jps = scenario.plan(Strategy::Jps, n).makespan_ms;
        let feasible = binomial_le(n + k, k, 2_000_000);
        let bf = feasible.then(|| scenario.plan(Strategy::BruteForce, n).makespan_ms);
        BfCompareRow {
            model,
            n,
            jps_ms: jps,
            bf_ms: bf,
        }
    })
}

fn binomial_le(n: usize, k: usize, limit: u128) -> bool {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > limit {
            return false;
        }
    }
    acc <= limit
}

// ---------------------------------------------------------------------
// Rendering helpers.
// ---------------------------------------------------------------------

/// Render rows as CSV with the given header line.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_shapes() {
        let rows = layer_time_table(Model::AlexNet, NetworkModel::wifi());
        assert!(rows.len() >= 5);
        // Mobile per-block times in Fig. 4's magnitude band (single to
        // low-hundreds of ms per block on a Pi-class device).
        for r in &rows {
            assert!(r.mobile_ms > 0.0 && r.mobile_ms < 500.0, "{r:?}");
            // Fig. 4(a): cloud compute is negligible vs communication.
            assert!(r.cloud_ms < 10.0);
        }
        // Comm time decreases down the network (monotone trend,
        // Fig. 4(b)), except the forced 0 at the last cut.
        for w in rows.windows(2) {
            if w[1].layer < rows.len() {
                assert!(w[1].comm_ms <= w[0].comm_ms + 1e-9);
            }
        }
    }

    #[test]
    fn latency_comparison_covers_grid() {
        let rows = latency_comparison(&[Model::AlexNet, Model::ResNet18], 10);
        // 2 models × 3 networks × 4 strategies.
        assert_eq!(rows.len(), 24);
        // JPS never loses.
        for net in ["3G", "4G", "Wi-Fi"] {
            for model in [Model::AlexNet, Model::ResNet18] {
                let of = |s: Strategy| {
                    rows.iter()
                        .find(|r| r.network == net && r.model == model && r.strategy == s)
                        .unwrap()
                        .per_job_ms
                };
                let jps = of(Strategy::Jps);
                assert!(jps <= of(Strategy::LocalOnly) + 1e-9);
                assert!(jps <= of(Strategy::PartitionOnly) + 1e-9);
            }
        }
    }

    #[test]
    fn co_is_catastrophic_at_3g() {
        // Paper: CO at 3G costs > 4000 ms per job for every model.
        let rows = latency_comparison(&[Model::AlexNet], 10);
        let co_3g = rows
            .iter()
            .find(|r| r.network == "3G" && r.strategy == Strategy::CloudOnly)
            .unwrap();
        assert!(co_3g.per_job_ms > 4000.0, "CO at 3G = {}", co_3g.per_job_ms);
    }

    #[test]
    fn reduction_table_bounds() {
        let rows = reduction_table(&Model::EVALUATED, 20);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!((0.0..=100.0).contains(&r.po_reduction_pct), "{r:?}");
            assert!((0.0..=100.0).contains(&r.jps_reduction_pct), "{r:?}");
            assert!(
                r.jps_reduction_pct >= r.po_reduction_pct - 1e-9,
                "JPS must dominate PO: {r:?}"
            );
        }
    }

    #[test]
    fn bandwidth_sweep_shapes() {
        let mbps: Vec<f64> = (1..=16).map(|i| i as f64 * 5.0).collect();
        let rows = bandwidth_sweep(Model::AlexNet, &mbps, 10);
        // LO flat; CO and JPS non-increasing with bandwidth.
        for w in rows.windows(2) {
            assert!((w[0].lo_ms - w[1].lo_ms).abs() < 1e-9);
            assert!(w[1].co_ms <= w[0].co_ms + 1e-9);
            assert!(w[1].jps_ms <= w[0].jps_ms + 1e-9);
        }
        // JPS bounded by min(LO, CO) everywhere.
        for r in &rows {
            assert!(r.jps_ms <= r.lo_ms.min(r.co_ms) + 1e-9, "{r:?}");
        }
    }

    #[test]
    fn benefit_range_covers_paper_band() {
        // Paper: JPS speeds up AlexNet across [1, 20] Mbps at least.
        let mbps: Vec<f64> = (1..=40).map(|i| i as f64 * 2.0).collect();
        let rows = bandwidth_sweep(Model::AlexNet, &mbps, 50);
        let range = benefit_range(&rows, 1e-6);
        assert!(range.contains(&2.0));
        assert!(range.contains(&20.0));
    }

    #[test]
    fn ratio_sweep_has_interior_optimum_structure() {
        let ratios: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let rows = ratio_sweep(Model::ResNet18, &[9.0, 10.0, 11.0], &ratios, 60);
        assert_eq!(rows.len(), 27);
        for r in &rows {
            assert_eq!(r.comp_heavy_jobs + r.comm_heavy_jobs, 60);
            assert!(r.makespan_ms > 0.0);
        }
    }

    #[test]
    fn bf_comparison_jps_close_to_optimal() {
        let rows = bf_comparison(Model::AlexNetPrime, &[2, 4, 8], NetworkModel::wifi());
        for r in &rows {
            let bf = r.bf_ms.expect("BF feasible for tiny n");
            assert!(r.jps_ms >= bf - 1e-9);
            // Paper Fig. 11: JPS is optimal on AlexNet′ (fitted curve).
            assert!(
                (r.jps_ms - bf) / bf < 0.05,
                "JPS {} vs BF {} at n={}",
                r.jps_ms,
                bf,
                r.n
            );
        }
    }

    #[test]
    fn render_helpers() {
        let csv = to_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "a,b\n1,2\n");
    }
}
