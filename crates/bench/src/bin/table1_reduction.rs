//! Table 1 — latency reduction ratio (%) of PO and JPS compared with
//! LO, per model × network.
//!
//! Paper claims (shape): JPS ≥ PO in every cell; reductions grow with
//! bandwidth; ResNet ≈ 0 at 3G; at Wi-Fi PO and JPS converge for
//! ResNet (58.52 / 58.52 in the paper).

use mcdnn::experiment::{reduction_table, PAPER_NETWORKS};
use mcdnn::prelude::*;
use mcdnn_bench::banner;
use mcdnn_runtime::{worker_threads, WorkerPool};

fn main() {
    banner(
        "Table 1 (latency reduction vs LO, %)",
        "JPS >= PO everywhere; reductions grow with bandwidth; ResNet ~0 at 3G",
    );

    let pool = WorkerPool::new(worker_threads());
    let rows = reduction_table(&pool, &Model::EVALUATED, 100);
    std::fs::create_dir_all("results/csv").ok();
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                r.network.to_string(),
                format!("{:.2}", r.po_reduction_pct),
                format!("{:.2}", r.jps_reduction_pct),
            ]
        })
        .collect();
    let csv = mcdnn::experiment::to_csv(
        &["model", "network", "po_reduction_pct", "jps_reduction_pct"],
        &csv_rows,
    );
    if std::fs::write("results/csv/table1.csv", csv).is_ok() {
        eprintln!("wrote results/csv/table1.csv");
    }
    println!("| model | 3G PO | 3G JPS | 4G PO | 4G JPS | Wi-Fi PO | Wi-Fi JPS |");
    println!("|---|---|---|---|---|---|---|");
    for model in Model::EVALUATED {
        let cell = |net: &str| {
            let r = rows
                .iter()
                .find(|r| r.model == model && r.network == net)
                .expect("grid complete");
            (r.po_reduction_pct, r.jps_reduction_pct)
        };
        let mut line = format!("| {model} |");
        for preset in PAPER_NETWORKS {
            let (po, jps) = cell(preset.label);
            line.push_str(&format!(" {po:.2} | {jps:.2} |"));
        }
        println!("{line}");
    }
}
