//! Fig. 13 — inference latency of LO/CO/PO/JPS under uplink bandwidths
//! 1–80 Mbps for AlexNet and MobileNet-v2.
//!
//! Paper claims: JPS speeds up both models across at least [1, 20]
//! Mbps; AlexNet's benefit range is wider (still useful beyond 50
//! Mbps); at high bandwidth CO converges to JPS.

use mcdnn::experiment::{bandwidth_sweep, benefit_range};
use mcdnn::prelude::*;
use mcdnn_bench::{banner, fmt_ms};
use mcdnn_runtime::{worker_threads, WorkerPool};

fn main() {
    banner(
        "Fig. 13 (latency vs bandwidth)",
        "JPS helps across [1,20] Mbps for both; AlexNet's benefit range is wider",
    );

    let mbps: Vec<f64> = (1..=80).map(|b| b as f64).collect();
    let n = 100;
    let pool = WorkerPool::new(worker_threads());
    std::fs::create_dir_all("results/csv").ok();
    for model in [Model::AlexNet, Model::MobileNetV2] {
        let rows = bandwidth_sweep(&pool, model, &mbps, n);
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.bandwidth_mbps),
                    format!("{:.3}", r.lo_ms),
                    format!("{:.3}", r.co_ms),
                    format!("{:.3}", r.po_ms),
                    format!("{:.3}", r.jps_ms),
                ]
            })
            .collect();
        let csv = mcdnn::experiment::to_csv(
            &["bandwidth_mbps", "lo_ms", "co_ms", "po_ms", "jps_ms"],
            &csv_rows,
        );
        if std::fs::write(format!("results/csv/fig13_{model}.csv"), csv).is_ok() {
            eprintln!("wrote results/csv/fig13_{model}.csv");
        }
        println!("### {model} — per-job latency (ms)\n");
        println!("| Mbps | LO | CO | PO | JPS |");
        println!("|---|---|---|---|---|");
        for r in rows.iter().step_by(5) {
            println!(
                "| {} | {} | {} | {} | {} |",
                r.bandwidth_mbps,
                fmt_ms(r.lo_ms),
                fmt_ms(r.co_ms),
                fmt_ms(r.po_ms),
                fmt_ms(r.jps_ms),
            );
        }
        let range = benefit_range(&rows, 1e-6);
        match (range.first(), range.last()) {
            (Some(lo), Some(hi)) => println!(
                "\nbenefit range (JPS strictly beats LO and CO): [{lo}, {hi}] Mbps ({} of {} sampled points)\n",
                range.len(),
                rows.len()
            ),
            _ => println!("\nno benefit range at sampled bandwidths\n"),
        }
    }
}
