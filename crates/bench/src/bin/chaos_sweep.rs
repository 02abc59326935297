//! Extension experiment: makespan degradation under injected link
//! faults, per degradation policy.
//!
//! Sweeps the standard chaos scenario grid (healthy control, shallow
//! and deep rate collapses, a mid-stream blackout, a flapping link, a
//! downward ramp, a dead link) over every degradation policy for a
//! handful of model × network platforms, and reports each policy's
//! total makespan relative to the oracle that knew the fault schedule
//! in advance (the ladder replanning on current-truth factors). The
//! headline claims this reproduces:
//!
//! * the ladder never does worse than mobile-only under *any* injected
//!   scenario (its last rung), and
//! * detection lag (`lagged-ladder`) costs real makespan on flapping
//!   links but nothing in steady state.
//!
//! Ends with one seeded chaos drill per platform: the DES replay of a
//! random fault plan, its event count, and the FNV-1a digest of the
//! canonical event log — the same artifact the determinism CI job
//! diffs across repeated runs.

use mcdnn::prelude::*;
use mcdnn_bench::{banner, fmt_ms};
use mcdnn_runtime::{worker_threads, WorkerPool};
use mcdnn_sim::DegradePolicy;

fn main() {
    banner(
        "Extension (chaos sweep)",
        "graceful degradation bounds fault damage at mobile-only, at zero healthy cost",
    );

    let platforms = [
        (Model::AlexNet, "Wi-Fi", NetworkModel::wifi()),
        (Model::AlexNet, "4G", NetworkModel::four_g()),
        (Model::MobileNetV2, "Wi-Fi", NetworkModel::wifi()),
        (Model::ResNet18, "4G", NetworkModel::four_g()),
    ];
    let config = ChaosConfig {
        jobs_per_burst: 8,
        bursts: 12,
        target_hz: 15.0,
        seed: 2021,
        ..ChaosConfig::default()
    };

    println!("| model | net | scenario | frozen | ladder | lagged | mobile-only | ladder vs oracle |");
    println!("|---|---|---|---|---|---|---|---|");
    // Platforms run in order, each fanning its scenario grid out on
    // the pool (a pool task must not submit a batch of its own).
    let pool = WorkerPool::new(worker_threads());
    let reports: Vec<(String, String, ChaosReport)> = platforms
        .iter()
        .map(|(model, label, net)| {
            let s = Scenario::paper_default(*model, *net);
            let report = chaos_report(&pool, &s, &config).expect("valid chaos config");
            (model.to_string(), label.to_string(), report)
        })
        .collect();
    for (model, label, report) in &reports {
        let scenarios: Vec<&str> = {
            let mut names: Vec<&str> = Vec::new();
            for r in &report.rows {
                if !names.contains(&r.scenario.as_str()) {
                    names.push(&r.scenario);
                }
            }
            names
        };
        for name in scenarios {
            let cell = |policy: DegradePolicy| {
                report
                    .rows
                    .iter()
                    .find(|r| r.scenario == name && r.policy == policy)
                    .expect("grid row")
            };
            let ladder = cell(DegradePolicy::Ladder);
            println!(
                "| {model} | {label} | {name} | {} | {} | {} | {} | {:.3} |",
                fmt_ms(cell(DegradePolicy::Frozen).total_ms),
                fmt_ms(ladder.total_ms),
                fmt_ms(cell(DegradePolicy::LaggedLadder).total_ms),
                fmt_ms(cell(DegradePolicy::MobileOnly).total_ms),
                ladder.vs_oracle,
            );
        }
    }

    println!("\nseeded drills (seed {}):", config.seed);
    println!("| model | net | healthy cut | makespan | fault events | log digest |");
    println!("|---|---|---|---|---|---|");
    for (model, label, report) in &reports {
        println!(
            "| {model} | {label} | {} | {} | {} | {:016x} |",
            report.cut,
            fmt_ms(report.drill.result.makespan_ms),
            report.drill.result.events.len(),
            report.drill.digest,
        );
    }
}
