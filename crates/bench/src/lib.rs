//! # mcdnn-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation section, plus a dependency-free planner micro-benchmark
//! (`planner_bench`). Run everything with:
//!
//! ```text
//! cargo run -p mcdnn-bench --release --bin fig04_alexnet_layers
//! cargo run -p mcdnn-bench --release --bin fig11_bf_compare
//! cargo run -p mcdnn-bench --release --bin fig12_latency
//! cargo run -p mcdnn-bench --release --bin fig12d_overhead
//! cargo run -p mcdnn-bench --release --bin fig13_bandwidth_sweep
//! cargo run -p mcdnn-bench --release --bin fig14_ratio_sweep
//! cargo run -p mcdnn-bench --release --bin table1_reduction
//! cargo run -p mcdnn-bench --release --bin fig02_toy
//! cargo run -p mcdnn-bench --release --bin planner_bench
//! ```
//!
//! Each binary prints the regenerated rows/series in markdown and notes
//! the paper's qualitative claim it reproduces; `EXPERIMENTS.md` at the
//! repo root records paper-vs-measured per experiment. `planner_bench`
//! times the O(1)-kernel planner hot path against the pre-refactor
//! reference implementation and writes `BENCH_planner.json` at the repo
//! root. Sweep-style binaries build one
//! [`WorkerPool`](mcdnn_runtime::WorkerPool) of
//! [`worker_threads`](mcdnn_runtime::worker_threads) in `main` and fan
//! their scenario grids out on it; set `MCDNN_THREADS=1` for fully
//! serial runs.

pub mod workload;

/// Format a millisecond value compactly for tables.
pub fn fmt_ms(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1}s", v / 1000.0)
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Format an optional millisecond value.
pub fn fmt_opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), fmt_ms)
}

/// Print a section banner matching the figure/table id.
pub fn banner(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("paper claim: {claim}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(3.17), "3.2");
        assert_eq!(fmt_ms(250.4), "250");
        assert_eq!(fmt_ms(12_345.0), "12.3s");
        assert_eq!(fmt_opt_ms(None), "—");
        assert_eq!(fmt_opt_ms(Some(5.0)), "5.0");
    }
}
