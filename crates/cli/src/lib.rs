//! # mcdnn-cli
//!
//! Command-line front end for the planner. All logic lives in this
//! library (returning strings) so it is fully unit-testable; `main.rs`
//! only forwards `std::env::args`.
//!
//! ```text
//! mcdnn models
//! mcdnn profile --model alexnet --bandwidth 18.88
//! mcdnn plan    --model alexnet --bandwidth 18.88 --jobs 10 [--strategy jps]
//! mcdnn compare --model resnet18 --bandwidth 5.85 --jobs 100
//! mcdnn sweep   --model mobilenet_v2 --from 1 --to 40 --steps 8 --jobs 50
//! mcdnn dot     --model squeezenet1_1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use mcdnn::prelude::*;

/// CLI error: message already formatted for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parse a float flag value, rejecting NaN and ±inf: every float flag
/// is a rate, time or ratio that the planners assert finite.
fn finite_f64(key: &str, raw: &str) -> Result<f64, CliError> {
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(err(format!("--{key} must be finite, got '{raw}'"))),
        Err(_) => Err(err(format!("--{key} expects a number, got '{raw}'"))),
    }
}

/// Flags that stand alone — present or absent, never followed by a
/// value. Everything else keeps the strict `--key value` grammar.
const BOOL_FLAGS: &[&str] = &["slo", "adapt"];

/// Parsed flag set: `--key value` pairs after the subcommand.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(err(format!("unexpected argument '{a}' (flags are --key value)")));
            };
            if BOOL_FLAGS.contains(&key) {
                pairs.push((key, "true"));
                continue;
            }
            let Some(value) = it.next() else {
                return Err(err(format!("flag --{key} is missing its value")));
            };
            pairs.push((key, value.as_str()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| err(format!("missing required flag --{key}")))
    }

    fn parse_f64(&self, key: &str) -> Result<f64, CliError> {
        finite_f64(key, self.require(key)?)
    }

    fn parse_f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        self.get(key)
            .map_or(Ok(default), |raw| finite_f64(key, raw))
    }

    fn parse_usize(&self, key: &str) -> Result<usize, CliError> {
        let raw = self.require(key)?;
        raw.parse()
            .map_err(|_| err(format!("--{key} expects an integer, got '{raw}'")))
    }

    fn parse_usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| err(format!("--{key} expects an integer, got '{raw}'"))),
        }
    }

    fn parse_u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| err(format!("--{key} expects an integer, got '{raw}'"))),
        }
    }

    fn model(&self) -> Result<Model, CliError> {
        let raw = self.require("model")?;
        raw.parse().map_err(|e: String| err(e))
    }

    fn strategy_or(&self, default: Strategy) -> Result<Strategy, CliError> {
        match self.get("strategy") {
            None => Ok(default),
            // All strategy-name parsing flows through the one FromStr
            // impl on `Strategy`.
            Some(raw) => raw.parse().map_err(|e: mcdnn::partition::ParseStrategyError| {
                err(e.to_string())
            }),
        }
    }
}

/// The uplink `--bandwidth` and `--setup-ms` describe, checked the way
/// [`NetworkModel::new`] asserts: bandwidth > 0, setup >= 0.
fn network(flags: &Flags) -> Result<NetworkModel, CliError> {
    let bandwidth = flags.parse_f64("bandwidth")?;
    if bandwidth <= 0.0 {
        return Err(err("--bandwidth must be positive"));
    }
    let setup = flags.parse_f64_or("setup-ms", 10.0)?;
    if setup < 0.0 {
        return Err(err("--setup-ms must not be negative"));
    }
    Ok(NetworkModel::new(bandwidth, setup))
}

/// Reject a profile with a stage time that is not finite: at a
/// subnormal bandwidth every upload takes forever, and the planners
/// assert finite jobs.
fn finite_profile(profile: &CostProfile, net: &NetworkModel) -> Result<(), CliError> {
    let finite = |stage: &[f64]| stage.iter().all(|v| v.is_finite());
    if finite(profile.f_all()) && finite(profile.g_all()) {
        return Ok(());
    }
    let bandwidth = net.bandwidth_mbps;
    Err(err(format!(
        "--bandwidth {bandwidth:e} is too small: its upload times are not finite"
    )))
}

/// The paper's platform for `model` on `net`, with finite stage times.
fn paper_scenario(model: Model, net: NetworkModel) -> Result<Scenario, CliError> {
    let s = Scenario::paper_default(model, net);
    finite_profile(s.profile(), &net)?;
    Ok(s)
}

fn scenario(flags: &Flags) -> Result<(Model, Scenario), CliError> {
    let model = flags.model()?;
    Ok((model, paper_scenario(model, network(flags)?)?))
}

/// Usage text.
pub const USAGE: &str = "\
mcdnn — joint DNN partition and scheduling planner (ICPP'21 reproduction)

USAGE:
  mcdnn models
  mcdnn profile --model <name> --bandwidth <Mbps> [--setup-ms <ms>]
  mcdnn plan    --model <name> --bandwidth <Mbps> --jobs <n>
                [--strategy lo|co|po|jps|jps*|bf] [--setup-ms <ms>]
  mcdnn compare --model <name> --bandwidth <Mbps> --jobs <n> [--setup-ms <ms>]
  mcdnn sweep   --model <name> --from <Mbps> --to <Mbps> --steps <k> --jobs <n>
  mcdnn pareto  --model <name> --bandwidth <Mbps> --jobs <n>
  mcdnn load    --file <model.dnn> --bandwidth <Mbps> --jobs <n>
  mcdnn inspect --model <name>
  mcdnn stream  --model <name> --bandwidth <Mbps> --fps <rate>
  mcdnn hetero  --models <a,b,..> --counts <n1,n2,..> --bandwidth <Mbps>
  mcdnn chaos   --model <name> --bandwidth <Mbps> [--jobs <n>] [--bursts <k>]
                [--fps <rate>] [--rho <frac>] [--seed <s>] [--setup-ms <ms>]
  mcdnn serve   [--users <n>] [--bursts <k>] [--from <Mbps>] [--to <Mbps>]
                [--fault-every <k>] [--seed <s>] [--setup-ms <ms>]
                [--drift <w>] [--adapt]
  mcdnn serve --slo [--users <n>] [--bursts <k>] [--overload <x>]
                [--queue <n>] [--from <Mbps>] [--to <Mbps>] [--seed <s>]
                [--cloud-servers <C>] [--drift <w>] [--adapt]
  mcdnn dot     --model <name>

`plan` also accepts --svg <path> (SVG Gantt chart), --trace <path>
(Chrome trace-event JSON, viewable in Perfetto), --emit-trace <path>
(unified Chrome trace: schedule rows plus recorded planner/executor
spans) and --emit-metrics <path> (JSON snapshot of planner candidate
counts and per-stage busy/wait histograms).

`chaos` fault-sweeps the model: a scenario × degradation-policy grid
(total makespan vs the oracle that knew the fault schedule), then one
seeded random fault drill whose event log and FNV-1a digest are
deterministic in --seed. The grid runs on the worker pool, and the
output is the same whatever MCDNN_THREADS says. It accepts
--emit-trace <path> (Chrome trace of the drill: stage rows, fault
windows, one flag per fault/recovery event) and --emit-metrics <path>
(JSON snapshot including fault.* / degrade.* / recovery.* counters).

`serve` runs a multi-tenant fleet — users drawn round-robin from the
model zoo, each with its own seeded bandwidth walk — through the
persistent worker pool and the shared plan cache. Output is
deterministic in --seed (no wall times), whatever MCDNN_THREADS says.
It accepts --emit-metrics <path> (JSON snapshot including serve.* /
frontier.cache.* / runtime.pool.* counters).

`serve --slo` attaches an SLO class (deadline + priority) to every
request and runs the same seeded tenant fleet under both front-end
queue disciplines — fifo (unbounded arrival-order baseline) and
edf-degrade (earliest-deadline-first with weighted fair queueing, a
bounded queue, and degradation-ladder fallback before shedding) — then
reports deadline hit-rates side by side. Virtual time keeps the output
deterministic in --seed at any MCDNN_THREADS. --overload scales the
offered uplink load (2 = twice link capacity); --emit-metrics adds the
sched.* queue/slack/shed counters to the snapshot.

`serve --slo --cloud-servers C` makes the cloud a finite shared pool of
C servers under deterministic processor-sharing: each tenant holds a
static share and its cloud stages stretch accordingly. The run then
compares three schedulers — fifo, contention-oblivious edf-degrade
(frontier cuts + equal shares), and edf-degrade with the joint
cut/share allocator (water-filling + best-response over the bandwidth
frontier) — and reports the joint-vs-oblivious hit-rate gap. Adds the
sched.cloud.* counters to --emit-metrics snapshots.

Both serve modes accept --drift <w> and --adapt. --drift w puts the
*true* device speed, cloud speed and uplink on a seeded multiplicative
random walk of half-width w (link w/2, timing jitter w/4) while the
planner keeps executing its beliefs; --adapt closes the loop with the
online profile estimator (debiased EWMA per layer + sliding-window
upload regression), which re-estimates the profile, bumps its version
and replans on it at deterministic commit boundaries. Adds
the adapt.* counters to --emit-metrics snapshots. With --drift 0,
--adapt is byte-identical to a non-adaptive run.
";

/// Run the CLI on the given arguments (excluding the program name),
/// returning the full stdout text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(err(USAGE));
    };
    if rest.iter().any(|a| a == "--help") {
        return Ok(USAGE.to_string());
    }
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "models" => cmd_models(),
        "profile" => cmd_profile(&flags),
        "plan" => cmd_plan(&flags),
        "compare" => cmd_compare(&flags),
        "sweep" => cmd_sweep(&flags),
        "pareto" => cmd_pareto(&flags),
        "load" => cmd_load(&flags),
        "inspect" => cmd_inspect(&flags),
        "stream" => cmd_stream(&flags),
        "hetero" => cmd_hetero(&flags),
        "chaos" => cmd_chaos(&flags),
        "serve" => cmd_serve(&flags),
        "dot" => cmd_dot(&flags),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

fn cmd_models() -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| model | structure | layers | GFLOPs | params (M) | cut candidates |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for m in Model::ALL {
        let g = m.graph();
        let line = m.line().map_err(|e| err(e.to_string()))?;
        let _ = writeln!(
            out,
            "| {m} | {} | {} | {:.2} | {:.2} | {} |",
            if m.is_general() { "general" } else { "line" },
            g.len(),
            g.total_flops() as f64 / 1e9,
            g.total_params() as f64 / 1e6,
            line.k() + 1,
        );
    }
    Ok(out)
}

fn cmd_profile(flags: &Flags) -> Result<String, CliError> {
    let (model, s) = scenario(flags)?;
    let p = s.profile();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{model} at {} Mbps — cut cost table (f = mobile ms, g = upload ms)",
        s.network().bandwidth_mbps
    );
    let _ = writeln!(out, "| cut | f (ms) | g (ms) | cloud (ms) | f>=g |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for l in 0..=p.k() {
        let _ = writeln!(
            out,
            "| {l} | {:.1} | {:.1} | {:.2} | {} |",
            p.f(l),
            p.g(l),
            p.cloud(l),
            if p.f(l) >= p.g(l) { "*" } else { "" }
        );
    }
    Ok(out)
}

fn cmd_plan(flags: &Flags) -> Result<String, CliError> {
    let (model, s) = scenario(flags)?;
    let n = flags.parse_usize("jobs")?;
    let strategy = flags.strategy_or(Strategy::Jps)?;
    let emit_trace = flags.get("emit-trace");
    let emit_metrics = flags.get("emit-metrics");
    let observing = emit_trace.is_some() || emit_metrics.is_some();
    if observing {
        // Start the registry from a clean slate so the exported data
        // describes exactly this invocation.
        mcdnn_obs::set_enabled(true);
        mcdnn_obs::reset();
    }
    let started = std::time::Instant::now();
    let plan = s
        .try_plan(strategy, n)
        .map_err(|e| err(format!("planning failed: {e}")))?;
    let decision_time = started.elapsed();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{model}, {n} jobs at {} Mbps, strategy {}",
        s.network().bandwidth_mbps,
        strategy.label()
    );
    let _ = writeln!(
        out,
        "makespan: {:.1} ms ({:.1} ms/job), decided in {:?}",
        plan.makespan_ms,
        plan.average_makespan_ms(),
        decision_time
    );
    let _ = writeln!(out, "cuts:  {:?}", plan.cuts);
    let _ = writeln!(out, "order: {:?}", plan.order);
    let _ = writeln!(out, "\n{}", plan.gantt(s.profile()).to_ascii(64));
    if let Some(path) = flags.get("svg") {
        let svg = plan.gantt(s.profile()).to_svg(720, 18);
        std::fs::write(path, svg).map_err(|e| err(format!("writing {path}: {e}")))?;
        let _ = writeln!(out, "wrote SVG Gantt to {path}");
    }
    if let Some(path) = flags.get("trace") {
        let trace = mcdnn_sim::schedule_trace(&plan.jobs(s.profile()), &plan.order, 1).to_json();
        std::fs::write(path, trace).map_err(|e| err(format!("writing {path}: {e}")))?;
        let _ = writeln!(out, "wrote Chrome trace to {path} (open in Perfetto)");
    }
    if observing {
        // Replay the plan on the deterministic executor so the
        // per-stage busy/wait histograms describe this schedule.
        let jobs = plan.jobs(s.profile());
        mcdnn_sim::run_pipeline(&jobs, &plan.order, &mcdnn_sim::ExecutorConfig::default());
        if let Some(path) = emit_trace {
            let mut trace = mcdnn_sim::schedule_trace(&jobs, &plan.order, 1);
            trace.add_spans(2, &mcdnn_obs::drain_spans());
            std::fs::write(path, trace.to_json())
                .map_err(|e| err(format!("writing {path}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote unified Chrome trace to {path} (pid 1: schedule, pid 2: recorded spans; \
                 open in Perfetto)"
            );
        }
        if let Some(path) = emit_metrics {
            std::fs::write(path, mcdnn_obs::snapshot().to_json())
                .map_err(|e| err(format!("writing {path}: {e}")))?;
            let _ = writeln!(out, "wrote metrics snapshot to {path}");
        }
    }
    Ok(out)
}

fn cmd_pareto(flags: &Flags) -> Result<String, CliError> {
    let (model, s) = scenario(flags)?;
    let n = flags.parse_usize("jobs")?;
    let energy = mcdnn_profile::EnergyModel::raspberry_pi4_wifi();
    let front = mcdnn_partition::pareto_front(s.profile(), n, &energy);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{model}, {n} jobs at {} Mbps — latency/energy Pareto front",
        s.network().bandwidth_mbps
    );
    let _ = writeln!(out, "| makespan (ms) | energy (J) | distinct cuts |");
    let _ = writeln!(out, "|---|---|---|");
    for p in front {
        let mut cuts = p.plan.cuts.clone();
        cuts.sort_unstable();
        cuts.dedup();
        let _ = writeln!(
            out,
            "| {:.1} | {:.2} | {:?} |",
            p.makespan_ms,
            p.energy_mj / 1e3,
            cuts
        );
    }
    Ok(out)
}

fn cmd_load(flags: &Flags) -> Result<String, CliError> {
    let path = flags.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("reading {path}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("model");
    let graph = mcdnn_graph::parse_model(name, &text).map_err(|e| err(e.to_string()))?;
    let line = if graph.is_line_structure() {
        mcdnn_graph::LineDnn::from_graph(&graph).map_err(|e| err(e.to_string()))?
    } else {
        mcdnn_graph::collapse_to_line(&graph).map_err(|e| err(e.to_string()))?
    };
    let (clustered, _) = mcdnn_graph::cluster_virtual_blocks(&line);
    let net = network(flags)?;
    let n = flags.parse_usize("jobs")?;
    let s = Scenario::new(
        clustered,
        DeviceModel::raspberry_pi4(),
        net,
        CloudModel::Device(DeviceModel::cloud_gtx1080()),
    );
    finite_profile(s.profile(), &net)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loaded {name}: {} layers, {:.2} GFLOPs, {} cut candidates",
        graph.len(),
        graph.total_flops() as f64 / 1e9,
        s.profile().k() + 1
    );
    let _ = writeln!(out, "| strategy | makespan (ms) | per-job (ms) |");
    let _ = writeln!(out, "|---|---|---|");
    for strat in [Strategy::LocalOnly, Strategy::CloudOnly, Strategy::JpsBestMix] {
        let plan = s.plan(strat, n);
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} |",
            strat.label(),
            plan.makespan_ms,
            plan.average_makespan_ms()
        );
    }
    Ok(out)
}

fn cmd_compare(flags: &Flags) -> Result<String, CliError> {
    let (model, s) = scenario(flags)?;
    let n = flags.parse_usize("jobs")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{model}, {n} jobs at {} Mbps",
        s.network().bandwidth_mbps
    );
    let _ = writeln!(out, "| strategy | makespan (ms) | per-job (ms) |");
    let _ = writeln!(out, "|---|---|---|");
    // Every strategy except BF, whose cost explodes at compare-scale n.
    for strat in Strategy::all()
        .into_iter()
        .filter(|&s| s != Strategy::BruteForce)
    {
        let plan = s.plan(strat, n);
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} |",
            strat.label(),
            plan.makespan_ms,
            plan.average_makespan_ms()
        );
    }
    Ok(out)
}

fn cmd_sweep(flags: &Flags) -> Result<String, CliError> {
    let model = flags.model()?;
    let from = flags.parse_f64("from")?;
    let to = flags.parse_f64("to")?;
    let steps = flags.parse_usize("steps")?;
    let n = flags.parse_usize("jobs")?;
    if from <= 0.0 || to < from || steps < 2 {
        return Err(err("need 0 < --from <= --to and --steps >= 2"));
    }
    // The sweep's slowest link has its largest upload times.
    let slowest = NetworkModel::new(from, NetworkModel::wifi().setup_ms);
    paper_scenario(model, slowest)?;
    let mbps: Vec<f64> = (0..steps)
        .map(|i| from + (to - from) * i as f64 / (steps - 1) as f64)
        .collect();
    let rows = mcdnn::experiment::bandwidth_sweep(engine_for(steps).pool(), model, &mbps, n);
    let mut out = String::new();
    let _ = writeln!(out, "{model}, {n} jobs — per-job latency (ms)");
    let _ = writeln!(out, "| Mbps | LO | CO | PO | JPS |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {:.2} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.bandwidth_mbps, r.lo_ms, r.co_ms, r.po_ms, r.jps_ms
        );
    }
    Ok(out)
}

fn cmd_inspect(flags: &Flags) -> Result<String, CliError> {
    let model = flags.model()?;
    let g = model.graph();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{model}: {} layers, {:.2} GFLOPs, {:.2} M params, {}",
        g.len(),
        g.total_flops() as f64 / 1e9,
        g.total_params() as f64 / 1e6,
        if g.is_line_structure() {
            "line structure"
        } else {
            "general structure"
        }
    );
    let _ = writeln!(out, "| # | name | op | output | MFLOPs | params |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for (id, node) in g.iter() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.2} | {} |",
            id.index(),
            node.name,
            node.layer.name(),
            node.output,
            node.flops as f64 / 1e6,
            node.params
        );
    }
    let line = model.line().map_err(|e| err(e.to_string()))?;
    let _ = writeln!(
        out,
        "\nclustered line view: {} cut candidates; offload volumes (bytes): {:?}",
        line.k() + 1,
        (0..=line.k()).map(|c| line.offload_bytes(c)).collect::<Vec<_>>()
    );
    let breakdown = mcdnn_graph::cost_breakdown(&g);
    let _ = writeln!(
        out,
        "cost classes: dense {:.1}% / depthwise {:.1}% / memory-bound {:.1}% of FLOPs \
         (high depthwise share means a pure-FLOP device model under-prices this net)",
        breakdown.dense_flops as f64 / breakdown.total_flops().max(1) as f64 * 100.0,
        breakdown.depthwise_fraction() * 100.0,
        breakdown.memory_flops as f64 / breakdown.total_flops().max(1) as f64 * 100.0,
    );
    Ok(out)
}

fn cmd_stream(flags: &Flags) -> Result<String, CliError> {
    let (model, s) = scenario(flags)?;
    let fps = flags.parse_f64("fps")?;
    if fps <= 0.0 {
        return Err(err("--fps must be positive"));
    }
    let period_ms = 1000.0 / fps;
    if !period_ms.is_finite() {
        return Err(err(format!("--fps {fps:e} is too small: its frame period is not finite")));
    }
    let p = s.profile();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{model} at {} Mbps, target {fps} fps (period {period_ms:.1} ms)",
        s.network().bandwidth_mbps,
    );
    match mcdnn_sim::best_cut_for_rate(p, fps, 0.9) {
        None => {
            let best_rate = (0..=p.k())
                .map(|c| mcdnn_sim::saturation_rate_hz(p.f(c), p.g(c)))
                .fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "no cut sustains {fps} fps on this platform; ceiling is {best_rate:.1} fps"
            );
        }
        Some(cut) => {
            let stats = mcdnn_sim::simulate_stream(
                p.f(cut),
                p.g(cut),
                &mcdnn_sim::StreamConfig {
                    period_ms,
                    arrival_jitter: 0.2,
                    frames: 1500,
                    warmup: 150,
                    seed: 1,
                },
            );
            let _ = writeln!(
                out,
                "best cut: {cut} (f = {:.1} ms, g = {:.1} ms); \
                 steady-state sojourn mean {:.1} ms / p95 {:.1} ms; \
                 utilisation CPU {:.0}% uplink {:.0}%",
                p.f(cut),
                p.g(cut),
                stats.mean_sojourn_ms,
                stats.p95_sojourn_ms,
                stats.rho_cpu * 100.0,
                stats.rho_link * 100.0,
            );
        }
    }
    Ok(out)
}

fn cmd_hetero(flags: &Flags) -> Result<String, CliError> {
    let models_raw = flags.require("models")?;
    let counts_raw = flags.require("counts")?;
    let net = network(flags)?;
    let models: Vec<Model> = models_raw
        .split(',')
        .map(|m| m.trim().parse().map_err(|e: String| err(e)))
        .collect::<Result<_, _>>()?;
    let counts: Vec<usize> = counts_raw
        .split(',')
        .map(|c| {
            c.trim()
                .parse()
                .map_err(|_| err(format!("bad count '{c}'")))
        })
        .collect::<Result<_, _>>()?;
    if models.len() != counts.len() || models.is_empty() {
        return Err(err("--models and --counts must list the same (non-zero) number of entries"));
    }
    if counts.iter().all(|&c| c == 0) {
        return Err(err("--counts must include at least one job"));
    }
    let groups: Vec<mcdnn_partition::JobGroup> = models
        .iter()
        .zip(&counts)
        .map(|(&m, &count)| {
            Ok(mcdnn_partition::JobGroup {
                profile: paper_scenario(m, net)?.profile().clone(),
                count,
            })
        })
        .collect::<Result<_, CliError>>()?;
    let joint = mcdnn_partition::hetero_jps_plan(&groups);
    let separate: f64 = groups
        .iter()
        .map(|g| Strategy::JpsBestMix.plan(&g.profile, g.count).makespan_ms)
        .sum();
    let mut out = String::new();
    let _ = writeln!(out, "heterogeneous batch at {} Mbps:", net.bandwidth_mbps);
    for ((m, c), cut) in models.iter().zip(&counts).zip(&joint.cuts) {
        let _ = writeln!(out, "  {c} × {m}: cut {} (mix: {:?})", cut.cut, cut.mix);
    }
    let _ = writeln!(
        out,
        "joint makespan {:.1} ms vs per-model planning {:.1} ms (-{:.1}%)",
        joint.makespan_ms,
        separate,
        (1.0 - joint.makespan_ms / separate) * 100.0
    );
    Ok(out)
}

fn cmd_chaos(flags: &Flags) -> Result<String, CliError> {
    let (model, s) = scenario(flags)?;
    let config = ChaosConfig {
        jobs_per_burst: flags.parse_usize_or("jobs", 6)?,
        bursts: flags.parse_usize_or("bursts", 9)?,
        target_hz: flags.parse_f64_or("fps", 20.0)?,
        rho_limit: flags.parse_f64_or("rho", 0.9)?,
        seed: flags.parse_u64_or("seed", 7)?,
    };
    if config.jobs_per_burst == 0 {
        return Err(err("--jobs must be at least 1"));
    }
    if config.bursts < 3 {
        return Err(err("--bursts must be at least 3"));
    }
    if config.target_hz <= 0.0 {
        return Err(err("--fps must be positive"));
    }
    if !(0.0..=1.0).contains(&config.rho_limit) || config.rho_limit == 0.0 {
        return Err(err("--rho must be in (0, 1]"));
    }
    let emit_trace = flags.get("emit-trace");
    let emit_metrics = flags.get("emit-metrics");
    if emit_metrics.is_some() {
        mcdnn_obs::set_enabled(true);
        mcdnn_obs::reset();
    }
    let engine = engine_for(mcdnn_sim::chaos_scenarios(config.bursts, config.seed).len());
    let report = engine.chaos(&s, &config).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{model} at {} Mbps, {} jobs/burst, target {} fps\n",
        s.network().bandwidth_mbps,
        config.jobs_per_burst,
        config.target_hz
    );
    out.push_str(&report.render());
    if let Some(path) = emit_trace {
        let trace = mcdnn_sim::faulted_trace(&report.drill.result, &report.drill.plan, 1);
        std::fs::write(path, trace.to_json()).map_err(|e| err(format!("writing {path}: {e}")))?;
        let _ = writeln!(
            out,
            "wrote drill Chrome trace to {path} (stage rows, fault windows, event flags; \
             open in Perfetto)"
        );
    }
    if let Some(path) = emit_metrics {
        std::fs::write(path, mcdnn_obs::snapshot().to_json())
            .map_err(|e| err(format!("writing {path}: {e}")))?;
        let _ = writeln!(out, "wrote metrics snapshot to {path}");
    }
    Ok(out)
}

/// An engine whose pool width honours `MCDNN_THREADS` (else the
/// hardware), capped at `tasks`, the most tasks one of the command's
/// batches holds: a wider pool would only start idle threads. Output is
/// byte-identical at any width.
fn engine_for(tasks: usize) -> Engine {
    EngineConfig::new()
        .threads(mcdnn_runtime::worker_threads().min(tasks).max(1))
        .build()
}

/// Rate profiles for every zoo model the JPS theory admits on the
/// reference platform — the pool both serve modes draw tenants from.
/// With `cloud_contended` the suffix is costed on the reference cloud
/// GPU instead of an infinitely fast one, so a finite server pool has
/// real work to stretch; without it the profiles (and therefore every
/// pre-contention output) are byte-identical to earlier releases.
fn zoo_rate_profiles(setup: f64, cloud_contended: bool) -> Vec<mcdnn_partition::RateProfile> {
    let cloud = if cloud_contended {
        CloudModel::Device(DeviceModel::cloud_gtx1080())
    } else {
        CloudModel::Negligible
    };
    Model::ALL
        .iter()
        .filter_map(|&m| m.line().ok())
        .map(|line| {
            mcdnn_partition::RateProfile::evaluate(
                &line,
                &DeviceModel::raspberry_pi4(),
                &cloud,
                setup,
            )
        })
        .filter(|p| p.check_monotone().is_ok())
        .collect()
}

/// Map the CLI's single `--drift <w>` knob onto a [`mcdnn_sim::DriftSpec`]:
/// device walk at `w`, link walk at `w/2`, measurement jitter at `w/4`.
fn drift_spec(flags: &Flags) -> Result<mcdnn_sim::DriftSpec, CliError> {
    let w = flags.parse_f64_or("drift", 0.0)?;
    if !(w.is_finite() && (0.0..1.0).contains(&w)) {
        return Err(err("--drift expects a walk half-width in [0, 1)"));
    }
    Ok(mcdnn_sim::DriftSpec {
        device_walk: w,
        link_walk: w / 2.0,
        jitter: w / 4.0,
        ..mcdnn_sim::DriftSpec::none()
    })
}

fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    if flags.has("slo") {
        return cmd_serve_slo(flags);
    }
    let users = flags.parse_usize_or("users", 12)?;
    let setup = flags.parse_f64_or("setup-ms", 10.0)?;
    let config = mcdnn_sim::ServeConfig {
        bursts_per_user: flags.parse_usize_or("bursts", 40)?,
        lo_mbps: flags.parse_f64_or("from", 1.0)?,
        hi_mbps: flags.parse_f64_or("to", 100.0)?,
        fault_every: flags.parse_usize_or("fault-every", 16)?,
        seed: flags.parse_u64_or("seed", 0x5EED)?,
        drift: drift_spec(flags)?,
        adapt: flags.has("adapt").then(AdaptConfig::default),
        ..mcdnn_sim::ServeConfig::default()
    };
    if users == 0 || config.bursts_per_user == 0 {
        return Err(err("--users and --bursts must be positive"));
    }
    if !(config.lo_mbps > 0.0 && config.lo_mbps < config.hi_mbps) {
        return Err(err("need 0 < --from < --to"));
    }
    let emit_metrics = flags.get("emit-metrics");
    if emit_metrics.is_some() {
        mcdnn_obs::set_enabled(true);
        mcdnn_obs::reset();
    }
    // The fleet draws users round-robin from every zoo model whose rate
    // profile the JPS theory admits on the reference platform.
    let profiles = zoo_rate_profiles(setup, false);
    let specs = mcdnn_sim::fleet(&profiles, users, &config);
    let engine = engine_for(users);
    let report = engine
        .serve(&specs, &config)
        .map_err(|e| err(format!("serving failed: {e}")))?;

    // Deterministic in --seed: no wall times, no thread counts — the
    // same fleet prints byte-identically at any MCDNN_THREADS.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {users} users x {} bursts over {} zoo models, {:.0}-{:.0} Mbps walks",
        config.bursts_per_user,
        profiles.len(),
        config.lo_mbps,
        config.hi_mbps
    );
    if config.drift.is_active() || config.adapt.is_some() {
        let _ = writeln!(
            out,
            "drift: device walk {:.3}, link walk {:.3}, jitter {:.3}; adaptation {}",
            config.drift.device_walk,
            config.drift.link_walk,
            config.drift.jitter,
            if config.adapt.is_some() { "on" } else { "off" },
        );
    }
    let _ = writeln!(
        out,
        "| user | model | strategy | jobs/burst | bursts | jobs | faulted | degraded | hits | replans | gen | mean ms | digest |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for u in &report.users {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.1} | {:016x} |",
            u.id,
            u.model,
            u.strategy.label(),
            u.n_jobs,
            u.bursts,
            u.jobs,
            u.faulted_bursts,
            u.degraded_bursts,
            u.hits,
            u.replans,
            u.profile_version.generation,
            u.mean_makespan_ms,
            u.digest,
        );
    }
    let _ = writeln!(
        out,
        "\ntotals: {} bursts, {} jobs, {} faulted, {} degraded, {} hits, {} replans; \
         plan cache {} entries; fleet digest={:016x}",
        report.total_bursts,
        report.total_jobs,
        report.total_faulted_bursts,
        report.total_degraded_bursts,
        report.total_hits,
        report.total_replans,
        engine.cache().len(),
        report.fleet_digest,
    );
    if let Some(path) = emit_metrics {
        std::fs::write(path, mcdnn_obs::snapshot().to_json())
            .map_err(|e| err(format!("writing {path}: {e}")))?;
        let _ = writeln!(out, "wrote metrics snapshot to {path}");
    }
    Ok(out)
}

fn cmd_serve_slo(flags: &Flags) -> Result<String, CliError> {
    let tenants_n = flags.parse_usize_or("users", 8)?;
    let setup = flags.parse_f64_or("setup-ms", 10.0)?;
    let cloud_servers = flags.parse_usize_or("cloud-servers", 0)?;
    let config = mcdnn_sim::SloConfig {
        requests_per_tenant: flags.parse_usize_or("bursts", 40)?,
        lo_mbps: flags.parse_f64_or("from", 1.0)?,
        hi_mbps: flags.parse_f64_or("to", 100.0)?,
        overload: flags.parse_f64_or("overload", 2.0)?,
        max_queue: flags.parse_usize_or("queue", 64)?,
        seed: flags.parse_u64_or("seed", 0x510_5EED)?,
        cloud_servers,
        drift: drift_spec(flags)?,
        adapt: flags.has("adapt").then(AdaptConfig::default),
        ..mcdnn_sim::SloConfig::default()
    };
    if tenants_n == 0 {
        return Err(err("--users must be positive"));
    }
    config.validate().map_err(|e| err(e.to_string()))?;
    let emit_metrics = flags.get("emit-metrics");
    if emit_metrics.is_some() {
        mcdnn_obs::set_enabled(true);
        mcdnn_obs::reset();
    }
    // A finite pool needs real suffix compute to contend over, so the
    // zoo is costed on the reference cloud GPU; with no pool the
    // pre-contention Negligible-cloud profiles keep output byte-stable.
    let profiles = zoo_rate_profiles(setup, cloud_servers > 0);
    let tenants = mcdnn_sim::slo_fleet(&profiles, tenants_n, &config);
    let engine = engine_for(tenants_n);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "slo fleet: {tenants_n} tenants x {} requests over {} zoo models, \
         {:.0}-{:.0} Mbps walks, {:.1}x offered uplink load",
        config.requests_per_tenant,
        profiles.len(),
        config.lo_mbps,
        config.hi_mbps,
        config.overload,
    );
    if cloud_servers > 0 {
        let _ = writeln!(
            out,
            "cloud pool: {cloud_servers} shared server(s) under deterministic \
             processor-sharing"
        );
    }
    if config.drift.is_active() || config.adapt.is_some() {
        let _ = writeln!(
            out,
            "drift: device walk {:.3}, link walk {:.3}, jitter {:.3}; adaptation {}",
            config.drift.device_walk,
            config.drift.link_walk,
            config.drift.jitter,
            if config.adapt.is_some() { "on" } else { "off" },
        );
    }
    // FIFO and contention-oblivious EDF always run; a configured pool
    // adds the joint cut/share allocator as a third column. All runs
    // schedule the same streams, generated (and replanned) and merged once.
    let mut runs = vec![
        (mcdnn_sim::SloPolicy::Fifo, false),
        (mcdnn_sim::SloPolicy::EdfDegrade, false),
    ];
    if cloud_servers > 0 {
        runs.push((mcdnn_sim::SloPolicy::EdfDegrade, true));
    }
    let mut streams = engine
        .slo_streams(&tenants, &config)
        .map_err(|e| err(format!("slo serving failed: {e}")))?;
    let indexed = mcdnn_sim::DispatchMode::Indexed;
    let mut reports = Vec::new();
    for &(policy, joint_alloc) in &runs {
        let run_config = mcdnn_sim::SloConfig {
            joint_alloc,
            ..config
        };
        let r = streams
            .schedule(&tenants, &run_config, policy, indexed)
            .map_err(|e| err(format!("slo serving failed: {e}")))?;
        let label = if r.joint_alloc {
            format!("{policy}+joint")
        } else {
            policy.to_string()
        };
        let _ = writeln!(
            out,
            "\npolicy {label}: hit rate {:.1}% ({}/{}), admitted {}, \
             shed {} (queue {} / infeasible {}), degraded {}",
            r.hit_rate * 100.0,
            r.deadline_hits,
            r.total_requests,
            r.admitted,
            r.shed_queue_full + r.shed_infeasible,
            r.shed_queue_full,
            r.shed_infeasible,
            r.degraded,
        );
        if r.cloud_servers > 0 {
            let _ = writeln!(
                out,
                "cloud: {:.1} ms stretched stage time, {} joint cut overrides",
                r.cloud_busy_ms, r.joint_overrides,
            );
        }
        let _ = writeln!(
            out,
            "latency p50/p95/p99: {:.1}/{:.1}/{:.1} ms; digest={:016x}",
            r.p50_latency_ms, r.p95_latency_ms, r.p99_latency_ms, r.digest,
        );
        let _ = writeln!(
            out,
            "| tenant | model | weight | share | requests | admitted | shed | degraded | hits | hit % | mean ms | digest |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|");
        for t in &r.tenants {
            let _ = writeln!(
                out,
                "| {} | {} | {:.0} | {:.3} | {} | {} | {} | {} | {} | {:.1} | {:.1} | {:016x} |",
                t.id,
                t.model,
                t.weight,
                t.cloud_share,
                t.requests,
                t.admitted,
                t.shed,
                t.degraded,
                t.hits,
                t.hit_rate * 100.0,
                t.mean_latency_ms,
                t.digest,
            );
        }
        let _ = writeln!(out, "| class | requests | hits | hit % |");
        let _ = writeln!(out, "|---|---|---|---|");
        for c in &r.classes {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.1} |",
                c.name,
                c.requests,
                c.hits,
                c.hit_rate * 100.0,
            );
        }
        reports.push(r);
    }
    let (fifo, edf) = (&reports[0], &reports[1]);
    let _ = writeln!(
        out,
        "\nedf-degrade vs fifo: deadline hit rate {:.1}% vs {:.1}% ({:+.1} pts)",
        edf.hit_rate * 100.0,
        fifo.hit_rate * 100.0,
        (edf.hit_rate - fifo.hit_rate) * 100.0,
    );
    if let Some(joint) = reports.get(2) {
        let _ = writeln!(
            out,
            "joint vs oblivious (edf-degrade, {cloud_servers} server(s)): \
             deadline hit rate {:.1}% vs {:.1}% ({:+.1} pts)",
            joint.hit_rate * 100.0,
            edf.hit_rate * 100.0,
            (joint.hit_rate - edf.hit_rate) * 100.0,
        );
    }
    if let Some(path) = emit_metrics {
        std::fs::write(path, mcdnn_obs::snapshot().to_json())
            .map_err(|e| err(format!("writing {path}: {e}")))?;
        let _ = writeln!(out, "wrote metrics snapshot to {path}");
    }
    Ok(out)
}

fn cmd_dot(flags: &Flags) -> Result<String, CliError> {
    let model = flags.model()?;
    Ok(mcdnn_graph::dot::to_dot(&model.graph()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Commands record into the process-global obs registry, and every
    // --emit-metrics run resets it, so a test that asserts on an
    // exported snapshot runs its command alone (`run_alone`); every
    // other command holds the gate shared.
    static METRICS_GATE: std::sync::RwLock<()> = std::sync::RwLock::new(());

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let _shared = METRICS_GATE.read().unwrap_or_else(|e| e.into_inner());
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    fn run_alone(args: &[&str]) -> Result<String, CliError> {
        let _alone = METRICS_GATE.write().unwrap_or_else(|e| e.into_inner());
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    #[test]
    fn models_lists_zoo() {
        let out = run_str(&["models"]).unwrap();
        assert!(out.contains("alexnet"));
        assert!(out.contains("googlenet"));
        assert!(out.contains("resnet50"));
    }

    #[test]
    fn profile_table() {
        let out = run_str(&["profile", "--model", "alexnet", "--bandwidth", "18.88"]).unwrap();
        assert!(out.contains("| cut |"));
        assert!(out.contains("| 0 |"));
    }

    #[test]
    fn plan_outputs_gantt() {
        let out = run_str(&[
            "plan", "--model", "alexnet", "--bandwidth", "18.88", "--jobs", "4",
        ])
        .unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains("comp"));
        assert!(out.contains("comm"));
    }

    #[test]
    fn plan_with_strategy_aliases() {
        for s in ["lo", "co", "po", "jps", "jps*", "best-mix"] {
            let out = run_str(&[
                "plan", "--model", "nin", "--bandwidth", "10", "--jobs", "2",
                "--strategy", s,
            ])
            .unwrap();
            assert!(out.contains("makespan"), "strategy {s}");
        }
    }

    #[test]
    fn compare_lists_all_strategies() {
        let out = run_str(&[
            "compare", "--model", "mobilenet_v2", "--bandwidth", "5.85", "--jobs", "10",
        ])
        .unwrap();
        for label in ["LO", "CO", "PO", "JPS", "JPS*"] {
            assert!(out.contains(label), "missing {label}");
        }
    }

    #[test]
    fn sweep_has_requested_steps() {
        let out = run_str(&[
            "sweep", "--model", "alexnet", "--from", "2", "--to", "20", "--steps", "4",
            "--jobs", "5",
        ])
        .unwrap();
        assert_eq!(out.lines().filter(|l| l.starts_with("| 2")).count(), 2); // 2.00 and 20.00
        assert_eq!(out.lines().count(), 3 + 4);
    }

    #[test]
    fn dot_output() {
        let out = run_str(&["dot", "--model", "nin"]).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn helpful_errors() {
        assert!(run_str(&[]).is_err());
        assert!(run_str(&["nope"]).unwrap_err().0.contains("unknown command"));
        assert!(run_str(&["plan", "--model", "alexnet"])
            .unwrap_err()
            .0
            .contains("--bandwidth"));
        assert!(run_str(&["plan", "--model", "bogus", "--bandwidth", "1", "--jobs", "1"])
            .unwrap_err()
            .0
            .contains("unknown model"));
        assert!(run_str(&[
            "plan", "--model", "nin", "--bandwidth", "x", "--jobs", "1"
        ])
        .unwrap_err()
        .0
        .contains("expects a number"));
        assert!(run_str(&["plan", "--model"]).unwrap_err().0.contains("missing its value"));
        assert!(run_str(&["plan", "oops"]).unwrap_err().0.contains("unexpected argument"));
    }

    #[test]
    fn pareto_command() {
        let out = run_str(&[
            "pareto", "--model", "alexnet", "--bandwidth", "18.88", "--jobs", "10",
        ])
        .unwrap();
        assert!(out.contains("Pareto front"));
        assert!(out.contains("| makespan"));
    }

    #[test]
    fn load_command_roundtrip() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tiny.dnn");
        std::fs::write(
            &file,
            "i: input(3, 32, 32)\nc: conv(8, k=3, p=1)\nr: relu\np: maxpool(k=2, s=2)\nd: dense(10)\n",
        )
        .unwrap();
        let out = run_str(&[
            "load",
            "--file",
            file.to_str().unwrap(),
            "--bandwidth",
            "10",
            "--jobs",
            "4",
        ])
        .unwrap();
        assert!(out.contains("loaded tiny"));
        assert!(out.contains("JPS*"));
        let missing = run_str(&["load", "--file", "/nonexistent.dnn", "--bandwidth", "1", "--jobs", "1"]);
        assert!(missing.is_err());
    }

    #[test]
    fn plan_trace_export() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("plan.trace.json");
        let out = run_str(&[
            "plan", "--model", "alexnet", "--bandwidth", "18.88", "--jobs", "3",
            "--trace", trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("Perfetto"));
        let content = std::fs::read_to_string(&trace).unwrap();
        assert!(content.starts_with('[') && content.trim_end().ends_with(']'));
        assert!(content.contains("mobile CPU"));
    }

    #[test]
    fn plan_emit_trace_and_metrics() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("unified.trace.json");
        let metrics = dir.join("metrics.json");
        let out = run_alone(&[
            "plan", "--model", "alexnet", "--bandwidth", "18.88", "--jobs", "10",
            "--emit-trace", trace.to_str().unwrap(),
            "--emit-metrics", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("unified Chrome trace"));
        assert!(out.contains("metrics snapshot"));

        let doc = std::fs::read_to_string(&trace).unwrap();
        let parsed = mcdnn_obs::json::parse(&doc).expect("trace is valid JSON");
        let events = parsed.as_array().expect("array document");
        // Schedule rows under pid 1, recorded spans under pid 2.
        let pids: Vec<f64> = events
            .iter()
            .map(|e| e.get("pid").unwrap().as_f64().unwrap())
            .collect();
        assert!(pids.contains(&1.0), "schedule rows present");
        assert!(pids.contains(&2.0), "span rows present");
        assert!(doc.contains("mobile CPU"));
        assert!(doc.contains("jps_plan"));
        // X-event timestamps are monotone per the writer contract.
        let ts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));

        let snap = std::fs::read_to_string(&metrics).unwrap();
        let parsed = mcdnn_obs::json::parse(&snap).expect("metrics are valid JSON");
        let counters = parsed.get("counters").expect("counters object");
        assert!(
            counters.get("planner.jps.candidates").and_then(|v| v.as_f64()).unwrap_or(0.0)
                >= 1.0,
            "planner candidate counts exported: {snap}"
        );
        let hists = parsed.get("histograms").expect("histograms object");
        for h in ["exec.mobile.busy_ms", "exec.uplink.busy_ms", "exec.mobile.wait_ms"] {
            assert!(
                hists.get(h).and_then(|v| v.get("count")).and_then(|c| c.as_f64())
                    .unwrap_or(0.0)
                    >= 1.0,
                "{h} populated: {snap}"
            );
        }
    }

    #[test]
    fn plan_reports_infeasible_brute_force_as_error() {
        let res = run_str(&[
            "plan", "--model", "alexnet", "--bandwidth", "18.88", "--jobs", "100000",
            "--strategy", "bf",
        ]);
        let msg = res.unwrap_err().0;
        assert!(msg.contains("planning failed"), "{msg}");
        assert!(msg.contains("multisets"), "{msg}");
    }

    #[test]
    fn plan_svg_export() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let svg = dir.join("gantt.svg");
        let out = run_str(&[
            "plan", "--model", "alexnet", "--bandwidth", "18.88", "--jobs", "3",
            "--svg", svg.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote SVG"));
        let content = std::fs::read_to_string(&svg).unwrap();
        assert!(content.starts_with("<svg"));
    }

    #[test]
    fn inspect_command() {
        let out = run_str(&["inspect", "--model", "nin"]).unwrap();
        assert!(out.contains("line structure"));
        assert!(out.contains("| # | name | op |"));
        assert!(out.contains("clustered line view"));
    }

    #[test]
    fn stream_command_both_outcomes() {
        // Low rate: a cut exists.
        let ok = run_str(&[
            "stream", "--model", "mobilenet_v2", "--bandwidth", "18.88", "--fps", "2",
        ])
        .unwrap();
        assert!(ok.contains("best cut"), "{ok}");
        // Absurd rate: ceiling reported.
        let no = run_str(&[
            "stream", "--model", "mobilenet_v2", "--bandwidth", "18.88", "--fps", "500",
        ])
        .unwrap();
        assert!(no.contains("ceiling"), "{no}");
        // A rate so small that its period overflows is rejected, not
        // simulated into NaN statistics.
        for fps in ["5e-324", "1e-310"] {
            let res = run_str(&[
                "stream", "--model", "mobilenet_v2", "--bandwidth", "18.88", "--fps", fps,
            ]);
            let msg = res.unwrap_err().0;
            assert!(msg.contains("period is not finite"), "{fps}: {msg}");
        }
    }

    #[test]
    fn hetero_command() {
        let out = run_str(&[
            "hetero", "--models", "alexnet,mobilenet_v2", "--counts", "3,3",
            "--bandwidth", "10",
        ])
        .unwrap();
        assert!(out.contains("joint makespan"));
        assert!(out.contains("3 × alexnet"));
        // Mismatched lists rejected.
        assert!(run_str(&[
            "hetero", "--models", "alexnet", "--counts", "1,2", "--bandwidth", "10"
        ])
        .is_err());
    }

    /// A small `.dnn` model written as `name` in the test directory.
    fn tiny_dnn(name: &str) -> String {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join(name);
        let text = "i: input(3, 32, 32)\nc: conv(8, k=3, p=1)\nd: dense(10)\n";
        std::fs::write(&file, text).unwrap();
        file.to_str().unwrap().to_string()
    }

    /// `line` split on whitespace, with `FILE` standing for `file`.
    fn argv(line: &str, file: &str) -> Vec<String> {
        line.split_whitespace()
            .map(|a| if a == "FILE" { file } else { a }.to_string())
            .collect()
    }

    #[test]
    fn bad_network_flags_are_errors() {
        let file = tiny_dnn("network.dnn");
        let _shared = METRICS_GATE.read().unwrap_or_else(|e| e.into_inner());
        for line in [
            "profile --model alexnet --bandwidth 18.88 --setup-ms -1",
            "plan --model alexnet --bandwidth 18.88 --jobs 4 --setup-ms -1",
            "compare --model alexnet --bandwidth 18.88 --jobs 4 --setup-ms -1",
            "pareto --model alexnet --bandwidth 18.88 --jobs 4 --setup-ms -1",
            "stream --model alexnet --bandwidth 18.88 --fps 5 --setup-ms -1",
            "chaos --model alexnet --bandwidth 18.88 --setup-ms -1",
            "load --file FILE --bandwidth 10 --jobs 2 --setup-ms -1",
            "load --file FILE --jobs 2 --bandwidth 0",
            "hetero --models alexnet --counts 2 --bandwidth 0",
            "hetero --models alexnet --counts 2 --bandwidth -3",
            "hetero --models alexnet --counts 2 --bandwidth 10 --setup-ms -5",
            "hetero --models alexnet,resnet18 --bandwidth 10 --counts 0,0",
        ] {
            // The message names the flag whose value is bad, the last.
            let flag = line.split_whitespace().rev().nth(1).unwrap();
            let msg = run(&argv(line, &file)).unwrap_err().0;
            assert!(msg.contains(flag), "{line}: {msg}");
        }
    }

    /// The CLI half of the no-panic fuzz: one valid, seeded command per
    /// subcommand that takes numeric flags, with each numeric flag's
    /// value replaced in turn by an edge value. Every run must end in
    /// output or a `CliError`, never a panic. (`CO` at 5e-324 Mbps
    /// really is infinite, so a table may print `inf`.)
    #[test]
    fn numeric_flag_edge_values_never_panic() {
        let file = tiny_dnn("sweep.dnn");
        let commands = [
            "profile --model alexnet --bandwidth 18.88 --setup-ms 10",
            "plan --model alexnet --jobs 10 --bandwidth 18.88 --setup-ms 10",
            "plan --model nin --jobs 4 --strategy bf --bandwidth 18.88 --setup-ms 10",
            "compare --model resnet18 --jobs 20 --bandwidth 18.88 --setup-ms 10",
            "sweep --model alexnet --from 2 --to 20 --steps 3 --jobs 5",
            "pareto --model alexnet --jobs 6 --bandwidth 18.88 --setup-ms 10",
            "load --file FILE --jobs 4 --bandwidth 18.88 --setup-ms 10",
            "stream --model alexnet --fps 10 --bandwidth 18.88 --setup-ms 10",
            "hetero --models alexnet,resnet18 --counts 3,2 --bandwidth 18.88 --setup-ms 10",
            "chaos --model alexnet --jobs 4 --bursts 5 --fps 20 --rho 0.9 --seed 3 \
             --bandwidth 18.88 --setup-ms 10",
            "serve --users 4 --bursts 6 --from 1 --to 100 --fault-every 3 --drift 0.05 \
             --adapt --seed 7 --setup-ms 10",
            "serve --slo --users 4 --bursts 10 --overload 2 --queue 8 --from 1 --to 100 \
             --cloud-servers 1 --drift 0.05 --adapt --seed 7 --setup-ms 10",
        ];
        const EDGES: [&str; 9] = [
            "nan", "inf", "-inf", "0", "-1", "5e-324", "1e308", "-0", "1e-310",
        ];
        let _shared = METRICS_GATE.read().unwrap_or_else(|e| e.into_inner());
        let mut panics = Vec::new();
        for line in commands {
            let base = argv(line, &file);
            assert!(run(&base).is_ok(), "base command fails: {line}");
            let numeric =
                |&i: &usize| base[i - 1].starts_with("--") && base[i].parse::<f64>().is_ok();
            for i in (1..base.len()).filter(numeric) {
                for edge in EDGES {
                    let mut args = base.clone();
                    args[i] = edge.to_string();
                    if std::panic::catch_unwind(|| run(&args)).is_err() {
                        panics.push(args.join(" "));
                    }
                }
            }
        }
        assert!(panics.is_empty(), "panics:\n{}", panics.join("\n"));
    }

    #[test]
    fn chaos_reports_grid_and_digest() {
        let out = run_str(&[
            "chaos", "--model", "alexnet", "--bandwidth", "18.88", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("chaos grid"), "{out}");
        for scenario in ["steady", "blackout_mid", "dead_link"] {
            assert!(out.contains(scenario), "missing scenario {scenario}");
        }
        for policy in ["frozen", "ladder", "lagged-ladder", "mobile-only"] {
            assert!(out.contains(policy), "missing policy {policy}");
        }
        assert!(out.contains("vs_oracle"));
        assert!(out.contains("digest="));
    }

    #[test]
    fn chaos_output_is_deterministic_per_seed() {
        let args = [
            "chaos", "--model", "mobilenet_v2", "--bandwidth", "10", "--jobs", "4",
            "--bursts", "6", "--seed", "1234",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b, "same seed must produce byte-identical output");
        let mut other = args;
        other[other.len() - 1] = "1235";
        assert_ne!(a, run_str(&other).unwrap(), "seed must matter");
    }

    #[test]
    fn chaos_emit_trace_writes_fault_rows() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("chaos.trace.json");
        let out = run_str(&[
            "chaos", "--model", "alexnet", "--bandwidth", "18.88", "--seed", "7",
            "--emit-trace", trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("drill Chrome trace"));
        let doc = std::fs::read_to_string(&trace).unwrap();
        let parsed = mcdnn_obs::json::parse(&doc).expect("trace is valid JSON");
        assert!(!parsed.as_array().unwrap().is_empty());
        assert!(doc.contains("\"name\":\"faults\""), "fault row named");
    }

    #[test]
    fn chaos_emit_metrics_exports_frontier_and_arena_counters() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("chaos.metrics.json");
        let out = run_alone(&[
            "chaos", "--model", "alexnet", "--bandwidth", "18.88", "--seed", "7",
            "--emit-metrics", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("metrics snapshot"));
        let snap = std::fs::read_to_string(&metrics).unwrap();
        let parsed = mcdnn_obs::json::parse(&snap).expect("metrics are valid JSON");
        let counters = parsed.get("counters").expect("counters object");
        // The drill's faulted DES runs in an arena, and every ladder
        // decision is counted by rung: the healthy cut, then one per
        // burst (9 by default) of each grid row whose policy consults
        // the ladder. All of it must surface in the exported snapshot.
        let count = |key: &str| counters.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(count("des.arena.runs") >= 1.0, "des.arena.runs missing: {snap}");
        let ladder_rows = out
            .lines()
            .filter(|l| {
                let policy = l.split_whitespace().nth(1);
                matches!(policy, Some("frozen" | "ladder" | "lagged-ladder"))
            })
            .count();
        assert!(ladder_rows > 0, "no grid rows in: {out}");
        let decisions: f64 = [
            "degrade.normal",
            "degrade.replans",
            "degrade.shifts",
            "degrade.mobile_only",
        ]
        .into_iter()
        .map(count)
        .sum();
        assert_eq!(
            decisions,
            (ladder_rows * 9 + 1) as f64,
            "ladder decisions by rung: {snap}"
        );
    }

    #[test]
    fn chaos_rejects_bad_flags() {
        assert!(run_str(&[
            "chaos", "--model", "alexnet", "--bandwidth", "10", "--bursts", "2"
        ])
        .unwrap_err()
        .0
        .contains("--bursts"));
        assert!(run_str(&[
            "chaos", "--model", "alexnet", "--bandwidth", "10", "--fps", "-1"
        ])
        .unwrap_err()
        .0
        .contains("--fps"));
        assert!(run_str(&[
            "chaos", "--model", "alexnet", "--bandwidth", "10", "--rho", "1.5"
        ])
        .unwrap_err()
        .0
        .contains("--rho"));
        assert!(run_str(&[
            "chaos", "--model", "alexnet", "--bandwidth", "10", "--jobs", "0"
        ])
        .unwrap_err()
        .0
        .contains("--jobs"));
        assert!(
            run_str(&["chaos", "--model", "alexnet", "--bandwidth", "5e-324"])
                .unwrap_err()
                .0
                .contains("finite")
        );
        // Finite on the healthy link, but the ladder divides the upload
        // time by a degraded rate factor and overflows.
        let overflow: Vec<&str> = "chaos --model alexnet --bandwidth 10 --setup-ms 1e308"
            .split_whitespace()
            .collect();
        assert!(run_str(&overflow).unwrap_err().0.contains("finite"));
    }

    #[test]
    fn serve_reports_fleet_and_digest() {
        let out = run_str(&["serve", "--users", "6", "--bursts", "10"]).unwrap();
        assert!(out.contains("fleet: 6 users x 10 bursts"), "{out}");
        assert!(out.contains("| user | model | strategy |"), "{out}");
        assert!(out.contains("totals: 60 bursts"), "{out}");
        assert!(out.contains("fleet digest="), "{out}");
        // No wall times: byte-identical on re-run, sensitive to seed.
        let again = run_str(&["serve", "--users", "6", "--bursts", "10"]).unwrap();
        assert_eq!(out, again, "serve output must be deterministic");
        let other = run_str(&["serve", "--users", "6", "--bursts", "10", "--seed", "9"]).unwrap();
        assert_ne!(out, other, "seed must matter");
    }

    #[test]
    fn serve_adapt_reports_replans_under_drift() {
        let args = [
            "serve", "--users", "4", "--bursts", "40", "--drift", "0.08", "--adapt",
        ];
        let out = run_str(&args).unwrap();
        assert!(
            out.contains("drift: device walk 0.080, link walk 0.040, jitter 0.020; adaptation on"),
            "{out}"
        );
        assert!(out.contains("| hits | replans | gen |"), "{out}");
        assert!(!out.contains(" 0 replans"), "drift must trigger replans: {out}");
        assert_eq!(out, run_str(&args).unwrap(), "adaptive serve must be deterministic");
        // Zero drift: adaptation never commits, so the fleet digest
        // matches the plain run byte for byte.
        let frozen = run_str(&["serve", "--users", "4", "--bursts", "40"]).unwrap();
        let idle = run_str(&["serve", "--users", "4", "--bursts", "40", "--adapt"]).unwrap();
        let digest_of = |s: &str| {
            s.lines()
                .find(|l| l.contains("fleet digest="))
                .map(str::to_owned)
                .expect("digest line")
        };
        assert_eq!(digest_of(&frozen), digest_of(&idle), "zero-drift adapt must be a no-op");
        assert!(idle.contains("0 replans"), "{idle}");
    }

    #[test]
    fn serve_slo_accepts_adapt_and_rejects_bad_drift() {
        let args = [
            "serve", "--slo", "--users", "4", "--bursts", "16", "--drift", "0.08", "--adapt",
        ];
        let out = run_str(&args).unwrap();
        assert!(out.contains("adaptation on"), "{out}");
        assert_eq!(out, run_str(&args).unwrap(), "adaptive serve --slo must be deterministic");
        assert!(run_str(&["serve", "--drift", "1.5"])
            .unwrap_err()
            .0
            .contains("--drift"));
        assert!(run_str(&["serve", "--slo", "--drift", "-0.1"])
            .unwrap_err()
            .0
            .contains("--drift"));
    }

    #[test]
    fn serve_emit_metrics_exports_serving_counters() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("serve.metrics.json");
        let out = run_alone(&[
            "serve", "--users", "5", "--bursts", "12", "--fault-every", "4",
            "--emit-metrics", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("metrics snapshot"));
        let snap = std::fs::read_to_string(&metrics).unwrap();
        let parsed = mcdnn_obs::json::parse(&snap).expect("metrics are valid JSON");
        let counters = parsed.get("counters").expect("counters object");
        let get = |key: &str| counters.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        // Serving volume, the plan cache, and pool execution all leave
        // their marks in one snapshot.
        assert_eq!(get("serve.users"), 5.0, "{snap}");
        assert_eq!(get("serve.bursts"), 60.0, "{snap}");
        assert!(get("serve.jobs") >= 60.0, "{snap}");
        assert!(get("serve.faulted_bursts") >= 1.0, "{snap}");
        assert!(get("frontier.cache.miss") >= 1.0, "{snap}");
        assert!(get("runtime.pool.tasks") >= 5.0, "{snap}");
    }

    #[test]
    fn serve_slo_compares_policies_deterministically() {
        let args = ["serve", "--slo", "--users", "4", "--bursts", "16"];
        let out = run_str(&args).unwrap();
        assert!(out.contains("slo fleet: 4 tenants x 16 requests"), "{out}");
        assert!(out.contains("policy fifo:"), "{out}");
        assert!(out.contains("policy edf-degrade:"), "{out}");
        assert!(out.contains("| tenant | model | weight |"), "{out}");
        assert!(out.contains("| interactive |"), "{out}");
        assert!(out.contains("edf-degrade vs fifo: deadline hit rate"), "{out}");
        // Virtual time only — byte-identical on re-run, sensitive to seed.
        assert_eq!(out, run_str(&args).unwrap(), "serve --slo must be deterministic");
        let other = run_str(&["serve", "--slo", "--users", "4", "--bursts", "16", "--seed", "9"])
            .unwrap();
        assert_ne!(out, other, "seed must matter");
        // The boolean flag parses anywhere in the flag list.
        let tail = run_str(&["serve", "--users", "4", "--bursts", "16", "--slo"]).unwrap();
        assert_eq!(out, tail, "--slo position must not matter");
    }

    #[test]
    fn serve_slo_emit_metrics_exports_sched_counters() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("slo.metrics.json");
        let out = run_alone(&[
            "serve", "--slo", "--users", "4", "--bursts", "20", "--overload", "3",
            "--emit-metrics", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("metrics snapshot"));
        let snap = std::fs::read_to_string(&metrics).unwrap();
        let parsed = mcdnn_obs::json::parse(&snap).expect("metrics are valid JSON");
        let counters = parsed.get("counters").expect("counters object");
        let get = |key: &str| counters.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert_eq!(get("sched.requests"), 2.0 * 4.0 * 20.0, "{snap}");
        assert!(get("sched.admitted") >= 1.0, "{snap}");
        assert!(get("sched.deadline_hits") >= 1.0, "{snap}");
        // Dispatch-path telemetry from the indexed scheduler: the loop
        // timer and heap traffic must be live, and the pricing memo must
        // have been consulted (hits + misses covers cold caches). Stale
        // pops and prunes can legitimately be zero on a small fleet, but
        // the keys must still be exported.
        assert!(get("sched.dispatch_ns") >= 1.0, "{snap}");
        assert!(get("sched.heap.pushes") >= 1.0, "{snap}");
        assert!(get("sched.heap.pops") >= 1.0, "{snap}");
        assert!(
            get("sched.price_memo.hits") + get("sched.price_memo.misses") >= 1.0,
            "{snap}"
        );
        for key in [
            "sched.heap.stale",
            "sched.price_memo.prunes",
            "sched.shed_expired",
        ] {
            assert!(counters.get(key).is_some(), "{key} exported: {snap}");
        }
        assert!(
            get("sched.shed_expired") <= get("sched.shed_infeasible"),
            "{snap}"
        );
        // Where the calls' time goes outside the dispatch loop.
        for key in ["sched.generate_ns", "sched.merge_ns", "sched.summary_ns"] {
            assert!(get(key) >= 1.0, "{key} timed: {snap}");
        }
        // The loop-local histograms fold in exactly: one latency per
        // admission, one queue depth and one slack per pick.
        let hists = parsed.get("histograms").expect("histograms object");
        let count = |h: &str| {
            hists
                .get(h)
                .and_then(|v| v.get("count"))
                .and_then(|c| c.as_f64())
                .unwrap_or(0.0)
        };
        let picks = get("sched.admitted") + get("sched.shed_infeasible");
        assert_eq!(count("sched.latency_ms"), get("sched.admitted"), "{snap}");
        assert_eq!(count("sched.queue_depth"), picks, "{snap}");
        assert_eq!(count("sched.slack_ms"), picks, "{snap}");
    }

    #[test]
    fn serve_slo_cloud_servers_adds_joint_run() {
        let args = [
            "serve", "--slo", "--users", "6", "--bursts", "12", "--cloud-servers", "2",
        ];
        let out = run_str(&args).unwrap();
        assert!(out.contains("cloud pool: 2 shared server(s)"), "{out}");
        assert!(out.contains("policy fifo:"), "{out}");
        assert!(out.contains("policy edf-degrade:"), "{out}");
        assert!(out.contains("policy edf-degrade+joint:"), "{out}");
        assert!(out.contains("joint vs oblivious"), "{out}");
        assert!(out.contains("stretched stage time"), "{out}");
        assert!(out.contains("| share |"), "{out}");
        // Virtual time only — byte-identical on re-run.
        assert_eq!(out, run_str(&args).unwrap(), "cloud runs must be deterministic");
        // Without a pool there is no joint column and no cloud line.
        let plain = run_str(&["serve", "--slo", "--users", "6", "--bursts", "12"]).unwrap();
        assert!(!plain.contains("+joint"), "{plain}");
        assert!(!plain.contains("cloud pool"), "{plain}");
    }

    #[test]
    fn serve_slo_cloud_metrics_export_cloud_counters() {
        let dir = std::env::temp_dir().join("mcdnn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("slo.cloud.metrics.json");
        let out = run_alone(&[
            "serve", "--slo", "--users", "6", "--bursts", "12", "--cloud-servers", "1",
            "--emit-metrics", metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("metrics snapshot"));
        let snap = std::fs::read_to_string(&metrics).unwrap();
        let parsed = mcdnn_obs::json::parse(&snap).expect("metrics are valid JSON");
        let counters = parsed.get("counters").expect("counters object");
        let get = |key: &str| counters.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        // Three runs now: fifo + oblivious edf + joint edf.
        assert_eq!(get("sched.requests"), 3.0 * 6.0 * 12.0, "{snap}");
        assert!(get("sched.cloud.requests") >= 1.0, "{snap}");
        assert!(get("joint.allocations") >= 1.0, "{snap}");
        let hists = parsed.get("histograms").expect("histograms object");
        for h in ["sched.cloud.share", "sched.cloud.stage_ms"] {
            assert!(
                hists.get(h).and_then(|v| v.get("count")).and_then(|c| c.as_f64())
                    .unwrap_or(0.0)
                    >= 1.0,
                "{h} populated: {snap}"
            );
        }
    }

    #[test]
    fn serve_slo_rejects_bad_flags() {
        assert!(run_str(&["serve", "--slo", "--overload", "-1"])
            .unwrap_err()
            .0
            .contains("overload"));
        assert!(run_str(&["serve", "--slo", "--queue", "0"])
            .unwrap_err()
            .0
            .contains("max_queue"));
        // A subnormal overload overflows the arrival gap to infinity.
        assert!(run_str(&[
            "serve", "--slo", "--users", "4", "--bursts", "20", "--overload", "5e-324",
            "--seed", "3",
        ])
        .unwrap_err()
        .0
        .contains("finite"));
        assert!(run_str(&["serve", "--slo", "--users", "0"])
            .unwrap_err()
            .0
            .contains("--users"));
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run_str(&["serve", "--users", "0"])
            .unwrap_err()
            .0
            .contains("--users"));
        assert!(run_str(&["serve", "--from", "5", "--to", "2"])
            .unwrap_err()
            .0
            .contains("--from"));
    }

    #[test]
    fn serve_rejects_degenerate_bandwidth_ranges_without_panicking() {
        assert!(run_str(&["serve", "--from", "10", "--to", "10"])
            .unwrap_err()
            .0
            .contains("--from"));
        // An unbounded range is refused at the flag, as an error rather
        // than a pool panic.
        for args in [
            &["serve", "--to", "inf"][..],
            &["serve", "--slo", "--to", "inf"],
        ] {
            let e = run_str(args).unwrap_err().0;
            assert!(e.contains("--to must be finite"), "{args:?}: {e}");
        }
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_after_a_subcommand_prints_usage() {
        for args in [
            &["serve", "--help"][..],
            &["plan", "--model", "alexnet", "--help"],
        ] {
            assert!(run_str(args).unwrap().contains("USAGE"), "{args:?}");
        }
    }

    /// The error for `args`, which must name `flag` and say it must be
    /// finite.
    fn non_finite_error(args: &[&str], flag: &str) {
        let e = run_str(args).unwrap_err().0;
        assert!(e.contains(flag) && e.contains("finite"), "{args:?}: {e}");
    }

    #[test]
    fn nan_bandwidth_is_a_flag_error() {
        for cmd in ["plan", "compare", "profile"] {
            non_finite_error(
                &[cmd, "--model", "alexnet", "--bandwidth", "NaN"],
                "--bandwidth",
            );
        }
        non_finite_error(
            &["plan", "--model", "alexnet", "--bandwidth", "inf"],
            "--bandwidth",
        );
    }

    #[test]
    fn nan_sweep_bound_is_a_flag_error() {
        non_finite_error(
            &[
                "sweep", "--model", "alexnet", "--from", "1", "--to", "NaN", "--steps", "4",
                "--jobs", "5",
            ],
            "--to",
        );
    }

    #[test]
    fn nan_stream_rate_is_a_flag_error() {
        non_finite_error(
            &[
                "stream",
                "--model",
                "mobilenet_v2",
                "--bandwidth",
                "18.88",
                "--fps",
                "NaN",
            ],
            "--fps",
        );
    }

    #[test]
    fn nan_chaos_rate_is_a_flag_error() {
        non_finite_error(
            &[
                "chaos",
                "--model",
                "alexnet",
                "--bandwidth",
                "10",
                "--fps",
                "NaN",
            ],
            "--fps",
        );
        non_finite_error(
            &[
                "chaos",
                "--model",
                "alexnet",
                "--bandwidth",
                "10",
                "--fps",
                "-inf",
            ],
            "--fps",
        );
    }

    #[test]
    fn brute_force_strategy_small() {
        let out = run_str(&[
            "plan", "--model", "alexnet", "--bandwidth", "18.88", "--jobs", "2",
            "--strategy", "bf",
        ])
        .unwrap();
        assert!(out.contains("BF") || out.contains("makespan"));
    }
}
