//! Extension experiment: burst-by-burst operation under a drifting
//! uplink. Quantifies the value of the paper's lightweight online
//! profiling loop (re-fit `t = w0 + w1·r`, re-run JPS) versus planning
//! once, with the true-bandwidth oracle as the upper bound.

use mcdnn::prelude::*;
use mcdnn_bench::banner;
use mcdnn_runtime::{worker_threads, WorkerPool};
use mcdnn_sim::{run_online, BandwidthTrace, ReplanPolicy};

fn main() {
    banner(
        "Extension (online adaptation)",
        "re-fitting the comm regression per burst recovers most of the oracle gap",
    );

    let bursts = 30;
    let jobs = 8;
    let setup_ms = 10.0;
    let traces: [(&str, BandwidthTrace); 3] = [
        (
            "sine 10±8 Mbps",
            BandwidthTrace::Sine {
                mid: 10.0,
                amp: 8.0,
                period: 10.0,
            },
        ),
        (
            "Gilbert-Elliott 20/1.5 Mbps",
            BandwidthTrace::GilbertElliott {
                good: 20.0,
                bad: 1.5,
                switch_prob: 0.35,
                seed: 42,
            },
        ),
        ("constant 10 Mbps", BandwidthTrace::Constant(10.0)),
    ];

    println!("| model | trace | static (s) | estimated (s) | oracle (s) | gap recovered |");
    println!("|---|---|---|---|---|---|");
    let mut grid = Vec::new();
    for model in [Model::AlexNet, Model::MobileNetV2] {
        for (label, trace) in &traces {
            grid.push((model, *label, trace.clone()));
        }
    }
    // Each (model, trace, policy) run is independent: fan the grid out
    // over the worker pool and print the finished rows in grid order.
    let pool = WorkerPool::new(worker_threads());
    let rows = pool.run_indexed(grid.len(), move |i| {
        let (model, label, trace) = &grid[i];
        let line = model.line().expect("zoo model");
        let mobile = DeviceModel::raspberry_pi4();
        let run = |policy| {
            run_online(&line, &mobile, trace, bursts, jobs, setup_ms, policy)
                .expect("zoo models pass the frontier's monotonicity check")
        };
        let fixed = run(ReplanPolicy::Static);
        let est = run(ReplanPolicy::Estimated {
            noise_frac: 0.08,
            seed: 7,
        });
        let oracle = run(ReplanPolicy::Oracle);
        let gap = fixed.total_ms() - oracle.total_ms();
        let recovered = if gap > 1e-6 {
            format!("{:.0}%", (fixed.total_ms() - est.total_ms()) / gap * 100.0)
        } else {
            "—".to_string()
        };
        format!(
            "| {model} | {label} | {:.2} | {:.2} | {:.2} | {recovered} |",
            fixed.total_ms() / 1e3,
            est.total_ms() / 1e3,
            oracle.total_ms() / 1e3,
        )
    });
    for row in rows {
        println!("{row}");
    }
}
