//! Ablation study for the design choices DESIGN.md calls out:
//!
//! 1. **Scheduling alone** — Johnson's rule vs FIFO vs reversed order
//!    on fixed JPS cuts (what Alg. 1 contributes).
//! 2. **Partition restriction** — one common cut vs two adjacent cut
//!    types (ratio and best-mix) vs the exact optimum (what Theorem
//!    5.3's restriction costs).
//! 3. **Virtual-block clustering** — candidate cut count with and
//!    without the §3.2 dominance reduction.
//! 4. **Negligible-cloud reduction** — 2-stage vs 3-stage makespan with
//!    the cloud stage explicitly simulated.

use mcdnn::prelude::*;
use mcdnn_bench::{banner, fmt_ms};
use mcdnn_flowshop::makespan_three_stage;
use mcdnn_graph::cluster_virtual_blocks;
use mcdnn_partition::Strategy;
use mcdnn_runtime::{worker_threads, WorkerPool};
use mcdnn_sim::{simulate, DesConfig};

fn main() {
    let pool = WorkerPool::new(worker_threads());
    scheduling_ablation(&pool);
    partition_ablation(&pool);
    clustering_ablation();
    cloud_stage_audit(&pool);
}

fn scheduling_ablation(pool: &WorkerPool) {
    banner(
        "Ablation 1 (scheduling)",
        "Johnson's rule vs FIFO vs reversed on identical cuts",
    );
    println!("| model | net | Johnson | FIFO | reversed | Johnson gain vs worst |");
    println!("|---|---|---|---|---|---|");
    let mut grid = Vec::new();
    for model in Model::EVALUATED {
        for (label, net) in [("4G", NetworkModel::four_g()), ("Wi-Fi", NetworkModel::wifi())] {
            grid.push((model, label, net));
        }
    }
    let rows = pool.run_indexed(grid.len(), move |i| {
        let (model, label, net) = grid[i];
        let s = Scenario::paper_default(model, net);
        let plan = Strategy::JpsBestMix.plan(s.profile(), 100);
        let jobs = plan.jobs(s.profile());
        let johnson = plan.makespan_ms;
        let fifo_order: Vec<usize> = (0..jobs.len()).collect();
        let fifo = makespan(&jobs, &fifo_order);
        let mut rev = plan.order.clone();
        rev.reverse();
        let reversed = makespan(&jobs, &rev);
        let worst = fifo.max(reversed);
        format!(
            "| {model} | {label} | {} | {} | {} | -{:.1}% |",
            fmt_ms(johnson),
            fmt_ms(fifo),
            fmt_ms(reversed),
            (1.0 - johnson / worst) * 100.0
        )
    });
    for row in rows {
        println!("{row}");
    }
}

fn partition_ablation(pool: &WorkerPool) {
    banner(
        "Ablation 2 (partition restriction)",
        "common cut vs ratio mix vs best mix vs exact optimum (n = 6)",
    );
    println!("| model | best common cut | JPS (ratio) | JPS* (best mix) | BF exact |");
    println!("|---|---|---|---|---|");
    let n = 6;
    let models = [Model::AlexNet, Model::AlexNetPrime, Model::MobileNetV2];
    let rows = pool.run_indexed(models.len(), move |i| {
        let model = models[i];
        let s = Scenario::paper_default(model, NetworkModel::wifi());
        let p = s.profile();
        let common = (0..=p.k())
            .map(|l| mcdnn_partition::Plan::from_cuts(Strategy::Jps, p, vec![l; n]).makespan_ms)
            .fold(f64::INFINITY, f64::min);
        let ratio = Strategy::Jps.plan(p, n).makespan_ms;
        let best = Strategy::JpsBestMix.plan(p, n).makespan_ms;
        let bf = Strategy::BruteForce.plan(p, n).makespan_ms;
        format!(
            "| {model} | {} | {} | {} | {} |",
            fmt_ms(common),
            fmt_ms(ratio),
            fmt_ms(best),
            fmt_ms(bf)
        )
    });
    for row in rows {
        println!("{row}");
    }
}

fn clustering_ablation() {
    banner(
        "Ablation 3 (virtual-block clustering)",
        "dominated cut positions removed without losing the optimum",
    );
    println!("| model | raw layers | clustered cut candidates |");
    println!("|---|---|---|");
    for model in [Model::AlexNet, Model::Vgg16, Model::TinyYoloV2, Model::Nin] {
        let raw = mcdnn_graph::LineDnn::from_graph(&model.graph()).expect("line model");
        let (clustered, _) = cluster_virtual_blocks(&raw);
        println!("| {model} | {} | {} |", raw.k(), clustered.k());
    }
}

fn cloud_stage_audit(pool: &WorkerPool) {
    banner(
        "Ablation 4 (negligible-cloud reduction)",
        "2-stage model error vs explicit 3-stage simulation",
    );
    println!("| model | net | 2-stage ms | 3-stage (1 slot) ms | 3-stage (8 slots, DES) ms | error % |");
    println!("|---|---|---|---|---|---|");
    let mut grid = Vec::new();
    for model in Model::EVALUATED {
        for (label, net) in [("3G", NetworkModel::three_g()), ("Wi-Fi", NetworkModel::wifi())] {
            grid.push((model, label, net));
        }
    }
    let rows = pool.run_indexed(grid.len(), move |i| {
        let (model, label, net) = grid[i];
        let s = Scenario::paper_default(model, net);
        let plan = s.plan(Strategy::Jps, 100);
        let jobs = plan.jobs(s.profile());
        let two = plan.makespan_ms;
        let three = makespan_three_stage(&jobs, &plan.order);
        let des8 = simulate(
            &jobs,
            &plan.order,
            &DesConfig {
                cloud_slots: 8,
                ..DesConfig::default()
            },
        )
        .makespan_ms;
        format!(
            "| {model} | {label} | {} | {} | {} | {:.3}% |",
            fmt_ms(two),
            fmt_ms(three),
            fmt_ms(des8),
            (three / two - 1.0) * 100.0
        )
    });
    for row in rows {
        println!("{row}");
    }
}
