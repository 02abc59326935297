//! The attribution passes behind the per-layer metrics (`--trace 1`).
//!
//! They run in this order, each on its own share of the run's seconds:
//! an untraced pass (the reference every ratio is taken against), a
//! traced pass that re-drives the serving layer's public calls from the
//! outside, an obs-off pass, a pass on a second engine of another pool
//! width (1 worker, or the host's full width when the measured engine
//! has 1), direct timings of single layer calls on the workload's own
//! fleet keys, and one fresh episode that sizes the plan cache. Spans
//! are the benchmark's own, recorded only in the traced pass and kept in
//! memory until the Chrome trace is written at the end. Ratios between
//! passes use scaled call times (see `speed`), as the passes run at
//! different moments.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mcdnn::{Engine, EngineConfig, Error};
use mcdnn_flowshop::FlowJob;
use mcdnn_obs::{counter_value, ChromeTrace, TraceEvent};
use mcdnn_partition::{CutMix, PlanCache, PlanError, RateFrontier};
use mcdnn_sim::{
    DesArena, DesConfig, LadderFrontier, ServeConfig, UserSession, UserSpec, UserSummary,
};

use crate::measure::{fresh_episode, input_of, percentile, run_pass, sorted, warm, Pass, Setup};
use crate::metrics::Values;
use crate::workload::{ratio, Input, Report, Workload, EPISODE_CALLS};

/// Calls of each pass start at their own index block, so no two passes
/// share a serve-drift fleet (and so its cached frontiers).
const TRACED_FIRST: u64 = 1 << 32;
const OBS_OFF_FIRST: u64 = 2 << 32;
const OTHER_WIDTH_FIRST: u64 = 3 << 32;

/// Calls in the traced pass, at most.
const TRACED_CALLS: u64 = 20;

/// One admitted burst in this many is kept as a whole span; the rest
/// only feed the admit-time distribution.
const ADMIT_SAMPLE: usize = 64;

/// Traced calls whose sessions go into the Chrome trace span by span;
/// later calls add only their call span. `mcdnn_obs::json::parse`
/// re-validates the rest of the document per string character, so a
/// trace of every session of every call takes seconds to check.
const DETAIL_CALLS: u64 = 2;

/// Distinct fleet keys the direct layer timings cover, at most.
const MAX_KEYS: usize = 16;

/// Minimum wall time of each direct-timing loop.
const LOOP_TIME: Duration = Duration::from_millis(20);

/// What the attribution passes produced.
pub struct Attribution {
    pub values: Values,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Self time per traced layer, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
}

/// Run every attribution pass within `seconds` and write the Chrome
/// trace to `trace_dir/<workload>.trace.json`. `full_width` is the
/// widest pool the host can run.
pub fn attribute(
    w: Workload,
    seed: u64,
    setup: &Setup,
    seconds: f64,
    full_width: usize,
    trace_dir: &Path,
    epoch: Instant,
) -> Attribution {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let mut failures = Vec::new();
    let mut v = Values::new();

    // Untraced reference, counters scoped to it.
    mcdnn_obs::reset();
    let base = run_pass(w, seed, setup, &setup.engine, 0, share(0.4));
    let counters = |name| counter_value(name) as f64;
    let hits = counters("frontier.cache.hit");
    v.insert(
        "partition.cache_hit_ratio",
        ratio(hits, hits + counters("frontier.cache.miss")),
    );
    v.insert(
        "obs.spans_per_call",
        ratio(base.spans as f64, base.attempted as f64),
    );
    v.insert(
        "engine.call_p95_ms",
        percentile(&sorted(&base.scaled_ms), 0.95),
    );
    slo_counters(w, &base, &mut v);

    // Traced pass.
    let mut trace = Trace::new(epoch);
    let started = Instant::now();
    for c in 0..TRACED_CALLS {
        if c >= 3 && started.elapsed() >= share(0.2) {
            break;
        }
        let input = input_of(w, seed, &setup.profiles, TRACED_FIRST + c);
        if let Err(e) = trace.call(&setup.engine, &input, c) {
            failures.push(format!("{}: traced call {c}: {e}", w.name()));
        }
        mcdnn_obs::drain_spans();
    }
    failures.append(&mut trace.failures);
    trace.metrics(w, &base, &mut v, setup.engine.threads());
    let path = trace_dir.join(format!("{}.trace.json", w.name()));
    if let Err(e) = trace.write(&path) {
        failures.push(format!("{}: trace {}: {e}", w.name(), path.display()));
    }

    // Observability switched off.
    let was = mcdnn_obs::enabled();
    mcdnn_obs::set_enabled(false);
    let off = run_pass(w, seed, setup, &setup.engine, OBS_OFF_FIRST, share(0.15));
    mcdnn_obs::set_enabled(was);
    v.insert("obs.overhead_pct", pct_over(p50(&base), p50(&off)));

    // pool.scaling: the wider pool's throughput over the 1-worker one,
    // from a second engine of the other width.
    let width = setup.engine.threads();
    let other_width = if width == 1 { full_width } else { 1 };
    let mut other = Pass::default();
    if other_width != width {
        let engine = EngineConfig::new().threads(other_width).build();
        match warm(w, seed, &setup.profiles, &engine) {
            Ok(_) => other = run_pass(w, seed, setup, &engine, OTHER_WIDTH_FIRST, share(0.15)),
            Err(e) => failures.push(format!("{}: {other_width}-worker warm-up: {e}", w.name())),
        }
    }
    let (wide, narrow) = if other_width > width {
        (&other, &base)
    } else {
        (&base, &other)
    };
    let scaling = ratio(wide.throughput(), narrow.throughput());
    v.insert(
        "pool.scaling",
        if other_width == width { 1.0 } else { scaling },
    );

    if let Err(e) = layer_timings(w, seed, setup, &mut v) {
        failures.push(format!("{}: layer timings: {e}", w.name()));
    }
    match fresh_episode(w, seed, width, EPISODE_CALLS) {
        Ok(episode) => {
            v.insert(
                "partition.cache_entries",
                episode.engine.cache().len() as f64,
            );
        }
        Err(e) => failures.push(format!("{}: episode: {e}", w.name())),
    }

    for pass in [&base, &off, &other] {
        failures.extend(pass.failures.iter().cloned());
    }
    Attribution {
        values: v,
        attempted: base.attempted + trace.calls + off.attempted + other.attempted,
        failures,
        self_ms: trace
            .self_ns
            .iter()
            .map(|(k, ns)| (*k, *ns as f64 / 1e6))
            .collect(),
    }
}

/// Median scaled call time of a pass.
fn p50(pass: &Pass) -> f64 {
    percentile(&sorted(&pass.scaled_ms), 0.5)
}

/// How much slower `a` is than `b`, percent.
fn pct_over(a: f64, b: f64) -> f64 {
    (ratio(a, b) - 1.0) * 100.0
}

/// The scheduler's own counters over the untraced pass, plus shed and
/// degrade shares of its quality set. Zero for serve workloads.
fn slo_counters(w: Workload, base: &Pass, v: &mut Values) {
    let c = |name| counter_value(name) as f64;
    let (requests, dispatch) = (c("sched.requests"), c("sched.dispatch_ns"));
    let wall_ns: f64 = base.walls_ms.iter().sum::<f64>() * 1e6;
    let memo_hits = c("sched.price_memo.hits");
    let depth = mcdnn_obs::snapshot()
        .histogram("sched.queue_depth")
        .map_or(0.0, |h| h.quantile_ms(0.99));
    let is_slo = !w.is_serve();
    let mut put = |name, value: f64| {
        v.insert(name, if is_slo { value } else { 0.0 });
    };
    put("slo.dispatch_ns_per_req", ratio(dispatch, requests));
    put(
        "slo.generate_ns_per_req",
        ratio(wall_ns - dispatch, requests),
    );
    put(
        "slo.heap_stale_ratio",
        ratio(c("sched.heap.stale"), c("sched.heap.pops")),
    );
    put(
        "slo.price_memo_hit_ratio",
        ratio(memo_hits, memo_hits + c("sched.price_memo.misses")),
    );
    put("slo.queue_depth.p99", depth);
    put("slo.shed_ratio", base.quality.shed_ratio());
    put("slo.degraded_ratio", base.quality.degraded_ratio());
}

/// One traced session: its span, its start/finish calls, the admit
/// time of every burst and the adaptation checks between them.
struct SessionTrace {
    thread: ThreadId,
    user: usize,
    /// Session start and end, ns since the epoch.
    start_ns: u64,
    end_ns: u64,
    open_ns: u64,
    close_ns: u64,
    admit_ns: Vec<u32>,
    /// Calls of `maybe_adapt` that returned `false`: count, summed ns.
    idle: (u64, u64),
    /// Calls that committed: start since the epoch, ns.
    commits: Vec<(u64, u64)>,
    /// Sampled admit spans: burst, start since the epoch, ns.
    sampled: Vec<(usize, u64, u64)>,
}

/// `run_user`'s loop, with a clock read between each public call.
fn trace_session(
    cache: &PlanCache,
    spec: &UserSpec,
    config: &ServeConfig,
    epoch: Instant,
) -> Result<(SessionTrace, UserSummary), PlanError> {
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let began = Instant::now();
    let mut session = UserSession::start(cache, spec, config)?;
    let mut t = Instant::now();
    let mut tr = SessionTrace {
        thread: std::thread::current().id(),
        user: spec.id,
        start_ns: since(began),
        end_ns: 0,
        open_ns: (t - began).as_nanos() as u64,
        close_ns: 0,
        admit_ns: Vec::with_capacity(config.bursts_per_user),
        idle: (0, 0),
        commits: Vec::new(),
        sampled: Vec::new(),
    };
    for b in 0..config.bursts_per_user {
        session.admit_burst();
        let admitted = Instant::now();
        let committed = session.maybe_adapt(cache)?;
        let adapted = Instant::now();
        let admit = (admitted - t).as_nanos() as u64;
        tr.admit_ns.push(u32::try_from(admit).unwrap_or(u32::MAX));
        if b % ADMIT_SAMPLE == 0 {
            tr.sampled.push((b, since(t), admit));
        }
        let adapt = (adapted - admitted).as_nanos() as u64;
        if committed {
            tr.commits.push((since(admitted), adapt));
        } else {
            tr.idle.0 += 1;
            tr.idle.1 += adapt;
        }
        t = adapted;
    }
    let summary = session.finish();
    let end = Instant::now();
    tr.close_ns = (end - t).as_nanos() as u64;
    tr.end_ns = since(end);
    Ok((tr, summary))
}

/// Spans and sums of the traced pass.
struct Trace {
    epoch: Instant,
    calls: u64,
    failures: Vec<String>,
    events: Vec<TraceEvent>,
    /// Pool threads in order of first appearance; index + 1 is the row.
    threads: Vec<ThreadId>,
    walls_ms: Vec<f64>,
    wall_ns: u64,
    /// Critical path plus report aggregation (serve), or the
    /// dispatch loop's own time (slo).
    covered_ns: u64,
    session_ns: u64,
    admit_ns: Vec<u32>,
    open: (u64, u64),
    close: (u64, u64),
    idle: (u64, u64),
    commit: (u64, u64),
    self_ns: BTreeMap<&'static str, u64>,
}

impl Trace {
    fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            calls: 0,
            failures: Vec::new(),
            events: Vec::new(),
            threads: Vec::new(),
            walls_ms: Vec::new(),
            wall_ns: 0,
            covered_ns: 0,
            session_ns: 0,
            admit_ns: Vec::new(),
            open: (0, 0),
            close: (0, 0),
            idle: (0, 0),
            commit: (0, 0),
            self_ns: BTreeMap::new(),
        }
    }

    fn since(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn span(&mut self, tid: u32, cat: &str, name: String, start_ns: u64, dur_ns: u64) {
        self.events.push(TraceEvent {
            pid: 1,
            tid,
            name,
            cat: cat.to_string(),
            ts_us: start_ns as f64 / 1e3,
            dur_us: dur_ns as f64 / 1e3,
        });
    }

    fn add_self(&mut self, layer: &'static str, ns: u64) {
        *self.self_ns.entry(layer).or_insert(0) += ns;
    }

    /// One traced call; its outcome is checked against the engine's.
    fn call(&mut self, engine: &Engine, input: &Input, call: u64) -> Result<(), Error> {
        self.calls += 1;
        match input {
            Input::Serve { specs, config } => {
                let users = self.serve_call(engine, specs, config, call)?;
                let Report::Serve(report) = input.call(engine)? else {
                    unreachable!("a serve input yields a serve report");
                };
                if report.users != users {
                    self.failures.push(format!(
                        "traced call {call}: sessions differ from Engine::serve"
                    ));
                }
            }
            Input::Slo { .. } => {
                let d0 = counter_value("sched.dispatch_ns");
                let began = Instant::now();
                let report = input.call(engine)?;
                let done = Instant::now();
                let dispatch = counter_value("sched.dispatch_ns") - d0;
                if let Err(e) = report.check() {
                    self.failures.push(format!("traced call {call}: {e}"));
                }
                let wall = (done - began).as_nanos() as u64;
                self.account_call(call, self.since(began), wall, dispatch);
                // The loop's counter gives its length, not its position:
                // the span is drawn ending where the call ends.
                self.span(
                    0,
                    "slo.dispatch",
                    format!("dispatch {call}"),
                    self.since(done) - dispatch,
                    dispatch,
                );
                self.add_self("engine.call", wall.saturating_sub(dispatch));
                self.add_self("slo.dispatch", dispatch);
            }
        }
        Ok(())
    }

    fn account_call(&mut self, call: u64, start_ns: u64, wall_ns: u64, covered_ns: u64) {
        self.walls_ms.push(wall_ns as f64 / 1e6);
        self.wall_ns += wall_ns;
        self.covered_ns += covered_ns;
        self.span(0, "engine", format!("call {call}"), start_ns, wall_ns);
    }

    /// `Engine::serve` decomposed: every session re-driven through
    /// `UserSession` on the engine's own pool and cache.
    fn serve_call(
        &mut self,
        engine: &Engine,
        specs: &[UserSpec],
        config: &ServeConfig,
        call: u64,
    ) -> Result<Vec<UserSummary>, Error> {
        let mut config = *config;
        if config.adapt.is_none() {
            config.adapt = engine.adaptation();
        }
        let shared = Arc::new(specs.to_vec());
        let cache = Arc::clone(engine.cache());
        let epoch = self.epoch;
        let began = Instant::now();
        let results = engine.pool().run_indexed(shared.len(), move |i| {
            trace_session(&cache, &shared[i], &config, epoch)
        });
        let ran = Instant::now();
        let (sessions, users): (Vec<SessionTrace>, Vec<UserSummary>) = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let done = Instant::now();

        let wall = (done - began).as_nanos() as u64;
        let mut loads = vec![0u64; self.threads.len()];
        let mut intervals = Vec::with_capacity(sessions.len());
        for s in sessions {
            let row = match self.threads.iter().position(|t| *t == s.thread) {
                Some(k) => k,
                None => {
                    self.threads.push(s.thread);
                    self.threads.len() - 1
                }
            };
            loads.resize(self.threads.len(), 0);
            let dur = s.end_ns - s.start_ns;
            loads[row] += dur;
            intervals.push((s.start_ns, s.end_ns));
            self.record_session(call, row as u32 + 1, s, dur);
        }
        let critical = loads.iter().copied().max().unwrap_or(0);
        let aggregation = (done - ran).as_nanos() as u64;
        self.account_call(call, self.since(began), wall, critical + aggregation);
        self.add_self("engine.call", wall.saturating_sub(union_ns(&mut intervals)));
        Ok(users)
    }

    fn record_session(&mut self, call: u64, tid: u32, s: SessionTrace, dur: u64) {
        let u = s.user;
        if call < DETAIL_CALLS {
            self.span(
                tid,
                "serve.session",
                format!("session {call}/{u}"),
                s.start_ns,
                dur,
            );
            self.span(
                tid,
                "serve.start",
                format!("start {call}/{u}"),
                s.start_ns,
                s.open_ns,
            );
            self.span(
                tid,
                "serve.finish",
                format!("finish {call}/{u}"),
                s.end_ns - s.close_ns,
                s.close_ns,
            );
            for &(b, start, ns) in &s.sampled {
                self.span(
                    tid,
                    "serve.admit",
                    format!("admit {call}/{u}/{b}"),
                    start,
                    ns,
                );
            }
            for &(start, ns) in &s.commits {
                self.span(tid, "serve.adapt", format!("commit {call}/{u}"), start, ns);
            }
        }
        let commit_ns: u64 = s.commits.iter().map(|&(_, ns)| ns).sum();
        self.session_ns += dur;
        let admit: u64 = s.admit_ns.iter().map(|&n| u64::from(n)).sum();
        self.admit_ns.extend_from_slice(&s.admit_ns);
        self.open = (self.open.0 + 1, self.open.1 + s.open_ns);
        self.close = (self.close.0 + 1, self.close.1 + s.close_ns);
        self.idle = (self.idle.0 + s.idle.0, self.idle.1 + s.idle.1);
        self.commit = (
            self.commit.0 + s.commits.len() as u64,
            self.commit.1 + commit_ns,
        );
        let children = s.open_ns + s.close_ns + admit + s.idle.1 + commit_ns;
        self.add_self("serve.session", dur.saturating_sub(children));
        self.add_self("serve.start", s.open_ns);
        self.add_self("serve.admit", admit);
        self.add_self("serve.adapt", s.idle.1 + commit_ns);
        self.add_self("serve.finish", s.close_ns);
    }

    /// Serve-layer and trace metrics (serve ones zero on slo workloads).
    fn metrics(&mut self, w: Workload, base: &Pass, v: &mut Values, workers: usize) {
        let mean = |(n, ns): (u64, u64)| ratio(ns as f64, n as f64);
        self.admit_ns.sort_unstable();
        let admit = |q| {
            let r = mcdnn_obs::nearest_rank(self.admit_ns.len() as u64, q) as usize;
            r.checked_sub(1)
                .map_or(0.0, |i| f64::from(self.admit_ns[i]))
        };
        v.insert("serve.admit_ns.p50", admit(0.5));
        v.insert("serve.admit_ns.p99", admit(0.99));
        v.insert("serve.start_us", mean(self.open) / 1e3);
        v.insert("serve.finish_us", mean(self.close) / 1e3);
        v.insert("serve.adapt_idle_ns", mean(self.idle));
        v.insert("serve.adapt_commit_us", mean(self.commit) / 1e3);
        v.insert(
            "serve.commits_per_call",
            ratio(self.commit.0 as f64, self.calls as f64),
        );
        let busy = ratio(
            self.session_ns as f64,
            (workers as u64 * self.wall_ns) as f64,
        );
        v.insert("pool.busy_frac", if w.is_serve() { busy } else { 0.0 });
        v.insert(
            "trace.coverage",
            ratio(self.covered_ns as f64, self.wall_ns as f64),
        );
        // Traced calls are not bracketed by the reference kernel, so
        // both sides are unscaled.
        self.walls_ms.sort_by(f64::total_cmp);
        v.insert(
            "trace.overhead_pct",
            pct_over(
                percentile(&self.walls_ms, 0.5),
                percentile(&sorted(&base.walls_ms), 0.5),
            ),
        );
    }

    /// Write the Chrome trace and prove it parses.
    fn write(&self, path: &Path) -> Result<(), String> {
        let mut chrome = ChromeTrace::new();
        chrome.thread(1, 0, "client");
        for k in 0..self.threads.len() {
            chrome.thread(1, k as u32 + 1, format!("pool worker {k}"));
        }
        for e in &self.events {
            chrome.push(e.clone());
        }
        let json = chrome.to_json();
        mcdnn_obs::json::parse(&json)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, json).map_err(|e| e.to_string())
    }
}

/// Total length covered by a set of intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Time single calls into each layer on the workload's own fleet keys.
fn layer_timings(w: Workload, seed: u64, setup: &Setup, v: &mut Values) -> Result<(), Error> {
    let input = input_of(w, seed, &setup.profiles, 0);
    let (lo, hi) = input.range_mbps();
    let mid = (lo * hi).sqrt();
    let mut keys: Vec<&UserSpec> = Vec::new();
    for s in input.specs() {
        let same = |k: &&UserSpec| {
            k.profile.name() == s.profile.name() && k.strategy == s.strategy && k.n_jobs == s.n_jobs
        };
        if keys.len() < MAX_KEYS && !keys.iter().any(same) {
            keys.push(s);
        }
    }

    let mut compile_us = Vec::new();
    let mut ladder_us = Vec::new();
    let mut frontiers = Vec::new();
    let serve = ServeConfig::default();
    for k in &keys {
        let t = Instant::now();
        let f = RateFrontier::compile(&k.profile, k.strategy, k.n_jobs, lo, hi)?;
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(LadderFrontier::compile(
            &k.profile.profile_at(mid),
            serve.target_hz,
            serve.rho_limit,
            k.n_jobs,
        ));
        ladder_us.push(t.elapsed().as_secs_f64() * 1e6);
        frontiers.push(f);
    }
    compile_us.sort_by(f64::total_cmp);
    ladder_us.sort_by(f64::total_cmp);
    v.insert("partition.compile_us", percentile(&compile_us, 0.5));
    v.insert("degrade.ladder_compile_us", percentile(&ladder_us, 0.5));

    let fetch = |k: &&UserSpec| {
        setup
            .engine
            .frontier(&k.profile, k.strategy, k.n_jobs, lo, hi)
    };
    for k in &keys {
        fetch(k)?;
    }
    v.insert(
        "partition.cache_hit_ns",
        ns_per_op(keys.len(), |i| {
            std::hint::black_box(fetch(&keys[i]).map(|f| f.n()).unwrap_or(0));
        }),
    );

    let bandwidths: Vec<f64> = (0..64)
        .map(|i| lo * (hi / lo).powf(i as f64 / 63.0))
        .collect();
    v.insert(
        "partition.decide_ns",
        ns_per_op(frontiers.len() * bandwidths.len(), |i| {
            let f = &frontiers[i / bandwidths.len()];
            std::hint::black_box(f.decide_at(bandwidths[i % bandwidths.len()]));
        }),
    );

    let bursts: Vec<(Vec<FlowJob>, Vec<usize>)> = frontiers.iter().map(|f| burst(f, mid)).collect();
    let mut arena = DesArena::new();
    let des = DesConfig::default();
    v.insert(
        "des.simulate_ns",
        ns_per_op(bursts.len(), |i| {
            let (jobs, order) = &bursts[i];
            std::hint::black_box(arena.simulate(jobs, order, &des));
        }),
    );
    mcdnn_obs::drain_spans();
    Ok(())
}

/// The burst a session admits at bandwidth `b`: the frontier's mix in
/// its planned order, as two-stage jobs.
fn burst(f: &RateFrontier, b: f64) -> (Vec<FlowJob>, Vec<usize>) {
    let p = f.profile();
    let n = f.n();
    let (first_n, c1, c2) = match f.decide_at(b).mix {
        CutMix::Uniform { cut } => (n, cut, cut),
        CutMix::Mix {
            prev,
            star,
            at_prev,
        } => (at_prev, prev, star),
    };
    let jobs = (0..n)
        .map(|j| {
            let c = if j < first_n { c1 } else { c2 };
            FlowJob::two_stage(j, p.mobile_ms(c), p.upload_ms_at(c, b))
        })
        .collect();
    (jobs, (0..n).collect())
}

/// Mean ns of `op(i)` over rounds of `i in 0..n`, repeated until
/// [`LOOP_TIME`] has passed.
fn ns_per_op(n: usize, mut op: impl FnMut(usize)) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < LOOP_TIME {
        for i in 0..n {
            op(i);
        }
        ops += n as u64;
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(5, 9), (0, 3), (2, 4)]), 8);
        assert_eq!(union_ns(&mut [(0, 10), (2, 3), (9, 12)]), 12);
    }
}
