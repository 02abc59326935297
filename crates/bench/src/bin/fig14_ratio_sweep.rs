//! Fig. 14 — the impact of the ratio between computation-heavy and
//! communication-heavy jobs on the makespan, at 9/10/11 Mbps for
//! ResNet-18 and GoogLeNet.
//!
//! Paper claims: the optimal ratio is not 1 and shifts with the
//! bandwidth configuration.

use mcdnn::experiment::ratio_sweep;
use mcdnn::prelude::*;
use mcdnn_bench::banner;
use mcdnn_runtime::{worker_threads, WorkerPool};

fn main() {
    banner(
        "Fig. 14 (computation/communication-heavy job ratio)",
        "the optimal ratio differs from 1 and shifts with bandwidth",
    );

    let n = 100;
    let pool = WorkerPool::new(worker_threads());
    let bandwidths = [9.0, 10.0, 11.0];
    let cases = [
        (Model::ResNet18, (1..=9).map(|i| i as f64).collect::<Vec<_>>()),
        (
            Model::GoogLeNet,
            (2..=10).map(|i| i as f64 / 10.0).collect::<Vec<_>>(),
        ),
    ];
    for (model, ratios) in cases {
        println!("### {model} — makespan of {n} jobs (s)\n");
        print!("| ratio |");
        for b in bandwidths {
            print!(" {b} Mbps |");
        }
        println!();
        println!("|---|---|---|---|");
        let rows = ratio_sweep(&pool, model, &bandwidths, &ratios, n);
        std::fs::create_dir_all("results/csv").ok();
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.bandwidth_mbps),
                    format!("{}", r.ratio),
                    format!("{:.3}", r.makespan_ms),
                ]
            })
            .collect();
        let csv = mcdnn::experiment::to_csv(
            &["bandwidth_mbps", "ratio", "makespan_ms"],
            &csv_rows,
        );
        if std::fs::write(format!("results/csv/fig14_{model}.csv"), csv).is_ok() {
            eprintln!("wrote results/csv/fig14_{model}.csv");
        }
        for &r in &ratios {
            print!("| {r} |");
            for b in bandwidths {
                let row = rows
                    .iter()
                    .find(|x| x.bandwidth_mbps == b && x.ratio == r)
                    .expect("grid complete");
                print!(" {:.3} |", row.makespan_ms / 1000.0);
            }
            println!();
        }
        // Report per-bandwidth optima to show the shift.
        print!("\noptimal ratio per bandwidth:");
        for b in bandwidths {
            let best = rows
                .iter()
                .filter(|x| x.bandwidth_mbps == b)
                .min_by(|a, c| a.makespan_ms.total_cmp(&c.makespan_ms))
                .expect("non-empty");
            print!("  {b} Mbps -> {}", best.ratio);
        }
        println!("\n");
    }
}
