//! `e2e_bench`: end-to-end benchmark of the serving engine, with
//! per-layer attribution.
//!
//! One client drives the public `Engine` front door in a closed loop
//! (one call in flight) over one of four workloads, on an engine with
//! obs at its `MCDNN_OBS` default and the engine's default pool width
//! (`MCDNN_THREADS`, else the host's parallelism), capped at 4 workers.
//! Call and set-up times are corrected for the host's speed and for
//! stolen vCPU time (see `speed`). With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it runs the attribution passes
//! and reports the per-layer metrics instead. Every run checks the
//! program's outputs and exits non-zero if any check fails.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] \
//!     [--out PATH] [--trace-dir DIR]
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a child
//! process of its own, so the obs registry, the thread-local frontier
//! memo and the resident-set high-water mark never leak between
//! workloads. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

#![deny(unsafe_code)]

mod alloc;
mod attrib;
mod measure;
mod metrics;
mod speed;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mcdnn_obs::json::{escape, parse, Json};

use crate::measure::{check_against_serial, percentile, run_pass, sorted, tail_quantile, Setup};
use crate::metrics::{render, result_line, Values, END_TO_END, PER_LAYER};
use crate::workload::{Workload, EPISODE_CALLS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: e2e_bench [--workload serve-steady|serve-drift|slo-shallow|slo-deep] \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out PATH] [--trace-dir DIR]";

/// An e2e run sets up for at least this long, and at least
/// [`MIN_SETUPS`] times; `setup_s` is the median set-up. A serve-drift
/// set-up takes about 70 ms, so it gets many more tries than the others.
const SETUP_SECONDS: f64 = 2.0;
const MIN_SETUPS: usize = 3;

/// At most this many pool workers, whatever the host has.
const MAX_WORKERS: usize = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: None,
        trace_dir: PathBuf::from("target/e2e_bench"),
    };
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("need an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("need seconds in (0, 600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("need 0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) => run_one(w, &args, epoch),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pool width of the measured engine: the engine's own default, capped.
fn workers() -> usize {
    mcdnn_runtime::worker_threads().min(MAX_WORKERS)
}

/// The widest pool the host can run, for `pool.scaling`.
fn full_width() -> usize {
    nproc().min(MAX_WORKERS)
}

/// One workload in this process: set-up, then the e2e pass or the
/// attribution passes. Returns whether every check passed.
fn run_one(w: Workload, args: &Args, epoch: Instant) -> bool {
    let threads = workers();
    let seconds = if args.quick {
        (args.seconds * 0.1).max(0.5)
    } else {
        args.seconds
    };
    let (min_reps, setup_budget) = if args.quick || args.trace {
        (1, 0.0)
    } else {
        (MIN_SETUPS, SETUP_SECONDS)
    };
    println!(
        "# e2e_bench workload={} seed={} seconds={seconds} trace={} threads={threads} nproc={} \
         comparable={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        nproc(),
        !args.quick,
    );

    let mut failures = Vec::new();
    let (mut setup_wall, mut setup_scaled) = (Vec::new(), Vec::new());
    let mut setup: Option<Setup> = None;
    let started = Instant::now();
    let stolen = speed::stolen();
    for rep in 0.. {
        if rep >= min_reps && started.elapsed().as_secs_f64() >= setup_budget {
            break;
        }
        match measure::setup(w, args.seed, threads) {
            Ok(s) => {
                let same = setup.as_ref().is_none_or(|prev| prev.warm == s.warm);
                if !same {
                    failures.push(format!(
                        "{}: set-up {rep} reports differ from set-up 0",
                        w.name()
                    ));
                }
                setup_wall.push(s.wall_s);
                setup_scaled.push(s.scaled_s);
                setup = Some(s);
            }
            Err(e) => {
                failures.push(format!("{}: set-up: {e}", w.name()));
                break;
            }
        }
    }
    let setup_steal = stolen
        .and_then(|s0| {
            Ok(speed::steal_share(
                s0,
                speed::stolen()?,
                started.elapsed().as_secs_f64(),
            ))
        })
        .unwrap_or_else(|e| {
            failures.push(format!("{}: {e}", w.name()));
            0.0
        });
    let Some(setup) = setup.filter(|_| failures.is_empty()) else {
        return finish(w, args, &Run::failed(failures));
    };

    let run = if args.trace {
        let a = attrib::attribute(
            w,
            args.seed,
            &setup,
            seconds,
            full_width(),
            &args.trace_dir,
            epoch,
        );
        failures.extend(a.failures);
        let total: f64 = a.self_ms.values().sum();
        for (layer, ms) in &a.self_ms {
            let share = workload::ratio(*ms, total) * 100.0;
            println!("# {} self {layer} {ms:.3} ms ({share:.1}%)", w.name());
        }
        Run {
            catalogue: &PER_LAYER,
            values: a.values,
            attempted: a.attempted,
            failures,
            notes: vec![("self_time_ms", object(&a.self_ms))],
        }
    } else {
        let budget = Duration::from_secs_f64(seconds);
        let mut pass = run_pass(w, args.seed, &setup, &setup.engine, 0, budget);
        if !args.quick {
            measure::complete_quality(w, args.seed, &setup, &mut pass);
        }
        failures.extend(pass.failures.iter().cloned());
        failures.extend(check_against_serial(w, args.seed, &setup, &pass));
        // The heap pass builds an engine of its own; this one goes first,
        // so none of its memory is freed while the allocator counts.
        drop(setup);
        let heap_calls = if args.quick {
            EPISODE_CALLS / 8
        } else {
            EPISODE_CALLS
        };
        let heap_mib = measure::heap_pass(w, args.seed, threads, heap_calls).unwrap_or_else(|e| {
            failures.push(format!("{}: heap pass: {e}", w.name()));
            0.0
        });

        let scaled = sorted(&pass.scaled_ms);
        let walls = sorted(&pass.walls_ms);
        let kernel_ns = percentile(&sorted(&pass.kernel_ns), 0.5);
        let setup_wall_s = percentile(&sorted(&setup_wall), 0.5);
        let mut values = Values::new();
        values.insert(
            "setup_s",
            percentile(&sorted(&setup_scaled), 0.5) * (1.0 - setup_steal),
        );
        values.insert("throughput_rps", pass.throughput());
        values.insert("call_p50_ms", percentile(&scaled, 0.5));
        values.insert("call_p75_ms", percentile(&scaled, 0.75));
        values.insert("hit_rate", pass.quality.hit_rate());
        values.insert("virtual_mean_ms", pass.quality.virtual_mean_ms());
        // A failed check counts as a failed call, as in the result line.
        let failed = (failures.len() as u64).min(pass.attempted);
        values.insert(
            "success_rate",
            1.0 - workload::ratio(failed as f64, pass.attempted as f64),
        );
        values.insert("peak_heap_mib", heap_mib);

        let digest = pass
            .digests
            .iter()
            .fold(FNV_OFFSET, |h, d| (h ^ d).wrapping_mul(FNV_PRIME));
        // What the host's own clock saw, for the reader; the metrics are
        // scaled to the reference host (see `speed`).
        let wall_rps = workload::ratio(pass.units as f64, pass.walls_ms.iter().sum::<f64>() / 1e3);
        let kernel_ms = kernel_ns / 1e6;
        // The highest percentile the sample supports; it is left out of
        // the metrics because it moves with the call count.
        let tail = tail_quantile(walls.len()).unwrap_or(1.0);
        println!(
            "# {} calls {} digest {digest:#018x} reference kernel {kernel_ms} ms",
            w.name(),
            walls.len(),
        );
        println!(
            "# {} scaled p95 {} ms, p{} {} ms",
            w.name(),
            percentile(&scaled, 0.95),
            tail * 100.0,
            percentile(&scaled, tail),
        );
        println!(
            "# {} unscaled: setup {setup_wall_s} s, call p50 {} ms, p75 {} ms, {wall_rps} req/s",
            w.name(),
            percentile(&walls, 0.5),
            percentile(&walls, 0.75),
        );
        let list = |v: &[f64]| {
            let v: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("[{}]", v.join(", "))
        };
        Run {
            catalogue: &END_TO_END,
            values,
            attempted: pass.attempted,
            failures,
            notes: vec![
                ("calls", pass.calls().to_string()),
                ("digest", format!("\"{digest:#018x}\"")),
                ("reference_kernel_ms", kernel_ms.to_string()),
                ("setup_wall_s", list(&setup_wall)),
                ("call_p95_ms", percentile(&scaled, 0.95).to_string()),
                ("wall_p50_ms", percentile(&walls, 0.5).to_string()),
                ("wall_p75_ms", percentile(&walls, 0.75).to_string()),
                ("wall_throughput_rps", wall_rps.to_string()),
                ("vm_hwm_mib", pass.rss_mib.to_string()),
                ("steal_share", pass.steal_share.to_string()),
                ("setup_steal_share", setup_steal.to_string()),
            ],
        }
    };
    finish(w, args, &run)
}

/// What one workload run produced.
struct Run {
    catalogue: &'static [metrics::Metric],
    values: Values,
    attempted: u64,
    failures: Vec<String>,
    /// Extra fields for the `--out` document: key and JSON value.
    notes: Vec<(&'static str, String)>,
}

impl Run {
    fn failed(failures: Vec<String>) -> Run {
        Run {
            catalogue: &END_TO_END,
            values: Values::new(),
            attempted: 1,
            failures,
            notes: Vec::new(),
        }
    }
}

/// Print the metric lines and the result line, write `--out`.
fn finish(w: Workload, args: &Args, run: &Run) -> bool {
    let mut failures = run.failures.clone();
    let metrics = match render(run.catalogue, &run.values) {
        Ok(m) => m,
        Err(e) => {
            failures.push(format!("{}: {e}", w.name()));
            "{}".to_string()
        }
    };
    for (name, unit) in run.catalogue {
        if let Some(v) = run.values.get(name) {
            println!("{} {name} {v} {unit}", w.name());
        }
    }
    let default_out = format!(
        "{}{}.json",
        w.name(),
        if args.trace { ".layers" } else { "" }
    );
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.trace_dir.join(default_out));
    let mut doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"comparable\": {}, \"threads\": {}, \"nproc\": {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        !args.quick,
        workers(),
        nproc(),
    );
    for (key, value) in &run.notes {
        let _ = write!(doc, ", \"{key}\": {value}");
    }
    let listed: Vec<String> = failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let _ = writeln!(
        doc,
        ", \"failures\": [{}], \"metrics\": {metrics}}}",
        listed.join(", ")
    );
    if let Err(e) = write_file(&out, &doc) {
        failures.push(format!("{}: --out {}: {e}", w.name(), out.display()));
    }
    for f in &failures {
        eprintln!("e2e_bench: FAILED {f}");
    }
    let failed = (failures.len() as u64).min(run.attempted);
    let correct = failures.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            run.attempted,
            failed.max(u64::from(!correct)),
            &metrics
        )
    );
    correct
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, text).map_err(|e| e.to_string())
}

/// `{"key": value, ...}` for a map of numbers.
fn object(map: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every workload in turn, each in a child process; one process
/// generates load at a time.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e_bench: cannot find own executable: {e}");
            return false;
        }
    };
    let (mut ok, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&args.trace_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if args.quick {
            cmd.arg("--quick");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2e_bench: {}: cannot run child: {e}", w.name());
                return false;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let field = |doc: &Json, key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        match parse(last) {
            Ok(doc) => {
                ok &= output.status.success() && doc.get("correct") == Some(&Json::Bool(true));
                attempted += field(&doc, "attempted");
                failed += field(&doc, "failed");
                results.push(format!("\"{}\": {last}", w.name()));
            }
            Err(e) => {
                eprintln!("e2e_bench: {}: no result line ({e})", w.name());
                ok = false;
                failed += 1;
            }
        }
    }
    let doc = format!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.trace_dir.join("result.json"));
    if let Err(e) = write_file(&out, &format!("{doc}\n")) {
        eprintln!("e2e_bench: --out {}: {e}", out.display());
        ok = false;
    }
    println!("{doc}");
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let a = args(&[
            "--workload",
            "slo-deep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::SloDeep));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
        let d = args(&["--quick"]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.trace, d.quick),
            (None, 1, false, true)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
