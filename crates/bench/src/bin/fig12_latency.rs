//! Fig. 12(a–c) — total inference latency (per job) of CO/LO/PO/JPS on
//! AlexNet, GoogLeNet, MobileNet-v2 and ResNet-18 at the paper's 3G /
//! 4G / Wi-Fi bandwidths, with 100 repeated jobs.
//!
//! Paper claims: JPS best everywhere; CO unusable at 3G (> 4 s);
//! ResNet barely improves at 3G; PO wastes the 3G→4G bandwidth gain on
//! ResNet while JPS exploits it.

use mcdnn::experiment::{latency_comparison, PAPER_NETWORKS};
use mcdnn::prelude::*;
use mcdnn_bench::{banner, fmt_ms};
use mcdnn_runtime::{worker_threads, WorkerPool};

fn main() {
    banner(
        "Fig. 12(a-c) (strategy comparison)",
        "JPS <= PO <= LO for every model and network; CO catastrophic at 3G",
    );

    let n = 100;
    let models = Model::EVALUATED;
    let pool = WorkerPool::new(worker_threads());
    let rows = latency_comparison(&pool, &models, n);
    // CSV artifact.
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                r.network.to_string(),
                r.strategy.label().to_string(),
                format!("{:.3}", r.makespan_ms),
                format!("{:.3}", r.per_job_ms),
            ]
        })
        .collect();
    let csv = mcdnn::experiment::to_csv(
        &["model", "network", "strategy", "makespan_ms", "per_job_ms"],
        &csv_rows,
    );
    std::fs::create_dir_all("results/csv").ok();
    if std::fs::write("results/csv/fig12.csv", csv).is_ok() {
        eprintln!("wrote results/csv/fig12.csv");
    }
    for preset in PAPER_NETWORKS {
        println!(
            "### {} ({} Mbps), n = {n} jobs — per-job latency (makespan / n, ms)\n",
            preset.label, preset.bandwidth_mbps
        );
        println!("| model | CO | LO | PO | JPS | JPS vs PO |");
        println!("|---|---|---|---|---|---|");
        for model in models {
            let of = |s: Strategy| {
                rows.iter()
                    .find(|r| r.network == preset.label && r.model == model && r.strategy == s)
                    .expect("grid complete")
                    .per_job_ms
            };
            let (co, lo, po, jps) = (
                of(Strategy::CloudOnly),
                of(Strategy::LocalOnly),
                of(Strategy::PartitionOnly),
                of(Strategy::Jps),
            );
            println!(
                "| {model} | {} | {} | {} | {} | -{:.1}% |",
                if co > 4000.0 {
                    format!("{} (off chart)", fmt_ms(co))
                } else {
                    fmt_ms(co)
                },
                fmt_ms(lo),
                fmt_ms(po),
                fmt_ms(jps),
                (1.0 - jps / po) * 100.0
            );
        }
        println!();
    }
}
