//! Fig. 11 — JPS vs the exact joint optimum (brute force) on AlexNet
//! and the synthetic AlexNet′ (communication volumes resampled from the
//! fitted exponential curve), over growing job counts.
//!
//! Paper claims: on AlexNet, JPS is optimal for small job counts; on
//! AlexNet′ (whose profile satisfies the theorems' smoothness
//! conditions) JPS always finds the optimal schedule.

use mcdnn::experiment::bf_comparison;
use mcdnn::prelude::*;
use mcdnn_bench::{banner, fmt_ms, fmt_opt_ms};
use mcdnn_runtime::{worker_threads, WorkerPool};

fn main() {
    banner(
        "Fig. 11 (JPS vs brute force)",
        "JPS matches BF on AlexNet' everywhere and on AlexNet for small n",
    );

    // Powers of two as on the paper's x-axis; BF is skipped where the
    // multiset enumeration exceeds the guard.
    let ns = [2usize, 4, 8, 16, 32, 128, 512];
    let pool = WorkerPool::new(worker_threads());
    for model in [Model::AlexNet, Model::AlexNetPrime] {
        println!("### {model}\n");
        println!("| n | JPS ms | BF ms | gap % |");
        println!("|---|---|---|---|");
        for row in bf_comparison(&pool, model, &ns, NetworkModel::wifi()) {
            let gap = row
                .bf_ms
                .map(|bf| format!("{:.2}", (row.jps_ms / bf - 1.0) * 100.0))
                .unwrap_or_else(|| "—".to_string());
            println!(
                "| {} | {} | {} | {} |",
                row.n,
                fmt_ms(row.jps_ms),
                fmt_opt_ms(row.bf_ms),
                gap
            );
        }
        println!();
    }
}
