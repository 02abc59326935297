//! Render the paper's evaluation figures as SVG files under
//! `results/figures/` using the dependency-free `mcdnn-viz` charts:
//!
//! * `fig12_{3g,4g,wifi}.svg` — grouped bars, per-job latency per
//!   strategy per model (CO omitted where off-chart, as in the paper);
//! * `fig13_{alexnet,mobilenet_v2}.svg` — log-y latency vs bandwidth;
//! * `fig14_{resnet18,googlenet}.svg` — makespan vs job-type ratio.

use std::fs;
use std::path::Path;

use mcdnn::experiment::{
    bandwidth_sweep, latency_comparison, ratio_sweep, PAPER_NETWORKS,
};
use mcdnn::prelude::*;
use mcdnn_bench::banner;
use mcdnn_runtime::{worker_threads, WorkerPool};
use mcdnn_viz::{BarChart, LineChart, Series};

fn main() {
    banner(
        "Figures (SVG render of Figs. 12-14)",
        "write results/figures/*.svg",
    );
    let dir = Path::new("results/figures");
    fs::create_dir_all(dir).expect("create results/figures");

    // Fig. 12: one bar chart per network.
    let n = 100;
    let pool = WorkerPool::new(worker_threads());
    let rows = latency_comparison(&pool, &Model::EVALUATED, n);
    for preset in PAPER_NETWORKS {
        let mut chart = BarChart::new(
            format!(
                "Fig. 12 — per-job latency at {} ({} Mbps), n = {n}",
                preset.label, preset.bandwidth_mbps
            ),
            "time per job (ms)".to_string(),
        )
        .with_groups(
            Model::EVALUATED
                .iter()
                .map(|m| m.name().to_string())
                .collect(),
        );
        for strat in [
            Strategy::CloudOnly,
            Strategy::LocalOnly,
            Strategy::PartitionOnly,
            Strategy::Jps,
        ] {
            let values: Vec<Option<f64>> = Model::EVALUATED
                .iter()
                .map(|&m| {
                    let v = rows
                        .iter()
                        .find(|r| {
                            r.network == preset.label && r.model == m && r.strategy == strat
                        })
                        .expect("grid complete")
                        .per_job_ms;
                    // The paper drops CO at 3G as off-chart.
                    (v <= 4000.0).then_some(v)
                })
                .collect();
            chart = chart.with_series(strat.label(), values);
        }
        let file = dir.join(format!(
            "fig12_{}.svg",
            preset.label.to_lowercase().replace('-', "")
        ));
        fs::write(&file, chart.to_svg()).expect("write svg");
        println!("wrote {}", file.display());
    }

    // Fig. 13: log-y bandwidth sweeps.
    let mbps: Vec<f64> = (1..=80).map(|b| b as f64).collect();
    for model in [Model::AlexNet, Model::MobileNetV2] {
        let rows = bandwidth_sweep(&pool, model, &mbps, n);
        let series_of = |label: &str, f: fn(&mcdnn::experiment::BandwidthRow) -> f64| {
            Series::new(
                label,
                rows.iter().map(|r| (r.bandwidth_mbps, f(r))).collect(),
            )
        };
        let chart = LineChart::new(
            format!("Fig. 13 — {model}: latency vs bandwidth, n = {n}"),
            "bandwidth (Mbps)",
            "time per job (ms, log)",
        )
        .with_log_y()
        .with_series(series_of("LO", |r| r.lo_ms))
        .with_series(series_of("CO", |r| r.co_ms))
        .with_series(series_of("PO", |r| r.po_ms))
        .with_series(series_of("JPS", |r| r.jps_ms));
        let file = dir.join(format!("fig13_{model}.svg"));
        fs::write(&file, chart.to_svg()).expect("write svg");
        println!("wrote {}", file.display());
    }

    // Fig. 14: ratio sweeps at 9/10/11 Mbps.
    let cases = [
        (Model::ResNet18, (1..=9).map(|i| i as f64).collect::<Vec<_>>()),
        (
            Model::GoogLeNet,
            (2..=10).map(|i| i as f64 / 10.0).collect::<Vec<_>>(),
        ),
    ];
    for (model, ratios) in cases {
        let bandwidths = [9.0, 10.0, 11.0];
        let rows = ratio_sweep(&pool, model, &bandwidths, &ratios, n);
        let mut chart = LineChart::new(
            format!("Fig. 14 — {model}: makespan vs comp/comm job ratio, n = {n}"),
            "ratio (computation-heavy / communication-heavy)",
            "makespan (s)",
        );
        for b in bandwidths {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.bandwidth_mbps == b)
                .map(|r| (r.ratio, r.makespan_ms / 1e3))
                .collect();
            chart = chart.with_series(Series::new(format!("{b} Mbps"), pts));
        }
        let file = dir.join(format!("fig14_{model}.svg"));
        fs::write(&file, chart.to_svg()).expect("write svg");
        println!("wrote {}", file.display());
    }
}
