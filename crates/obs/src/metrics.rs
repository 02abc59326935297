//! The metric catalogue: every counter and histogram the workspace
//! records, declared once.
//!
//! Each entry becomes a `static` handle with a dense compile-time slot,
//! its dotted name and a one-line doc (shown on the static below), so a
//! write site is a field load and a store into the calling thread's
//! slab ([`Counter::add`], [`Hist::observe`]) — never a name lookup.
//! The table is the one list of metric names: snapshots export every
//! entry (zeros included) in name order, and the string reads
//! ([`crate::counter_value`], [`crate::thread_counter_value`]) resolve
//! names against it.
//!
//! ```
//! use mcdnn_obs::metrics;
//! metrics::SERVE_BURSTS.add(1);
//! metrics::SCHED_LATENCY_MS.observe(2.5);
//! assert_eq!(mcdnn_obs::thread_counter_value("serve.bursts"), 1);
//! let snapshot = mcdnn_obs::snapshot();
//! assert_eq!(snapshot.histogram("sched.latency_ms").map(|h| h.count()), Some(1));
//! ```

use crate::registry;
use crate::Histogram;

/// A counter: one `u64` word in each recording thread's slab.
#[derive(Debug)]
pub struct Counter {
    slot: usize,
    name: &'static str,
}

impl Counter {
    /// Add `delta`. No-op while the registry is disabled; otherwise one
    /// relaxed load and store on a word only this thread writes.
    #[inline]
    pub fn add(&self, delta: u64) {
        registry::add(self.slot, delta);
    }

    /// Dotted metric name, e.g. `serve.bursts`.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn slot(&self) -> usize {
        self.slot
    }
}

/// A fixed-bucket histogram (see [`crate::Histogram`]): a block of
/// words in each recording thread's slab.
#[derive(Debug)]
pub struct Hist {
    slot: usize,
    name: &'static str,
}

impl Hist {
    /// Record one observation. No-op while the registry is disabled;
    /// negative and non-finite values read as 0.
    #[inline]
    pub fn observe(&self, value: f64) {
        registry::observe(self.slot, value);
    }

    /// Fold a histogram a loop recorded on its own into this one: bucket
    /// counts, count, min and max end as if each of `local`'s values had
    /// been observed here; only the float association of the sum
    /// differs. No-op while the registry is disabled.
    #[inline]
    pub fn absorb(&self, local: &Histogram) {
        registry::absorb_hist(self.slot, local);
    }

    /// Dotted metric name, e.g. `sched.latency_ms`.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn slot(&self) -> usize {
        self.slot
    }
}

macro_rules! catalogue {
    (
        counters { $($c:ident = $cname:literal : $cdoc:literal,)* }
        histograms { $($h:ident = $hname:literal : $hdoc:literal,)* }
    ) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum CounterSlot { $($c,)* }
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum HistSlot { $($h,)* }
        $(
            #[doc = concat!("`", $cname, "`: ", $cdoc)]
            pub static $c: Counter = Counter {
                slot: CounterSlot::$c as usize,
                name: $cname,
            };
        )*
        $(
            #[doc = concat!("`", $hname, "`: ", $hdoc)]
            pub static $h: Hist = Hist {
                slot: HistSlot::$h as usize,
                name: $hname,
            };
        )*
        /// Every counter, in slot order.
        pub(crate) static COUNTERS: &[&Counter] = &[$(&$c,)*];
        /// Every histogram, in slot order.
        pub(crate) static HISTOGRAMS: &[&Hist] = &[$(&$h,)*];
        pub(crate) const N_COUNTERS: usize = [$($cname,)*].len();
        pub(crate) const N_HISTOGRAMS: usize = [$($hname,)*].len();
    };
}

catalogue! {
    counters {
        ADAPT_COMMITS = "adapt.commits": "estimator commits that crossed the confidence gate",
        ADAPT_RECOMPILES = "adapt.recompiles": "beliefs built (and ladders set up) after a commit",
        DEGRADE_MOBILE_ONLY = "degrade.mobile_only": "ladder decisions that ran every layer on-device",
        DEGRADE_NORMAL = "degrade.normal": "ladder decisions at the healthy rung",
        DEGRADE_RECOVERIES = "degrade.recoveries": "bursts back at the healthy rung after a degraded one",
        DEGRADE_REPLANS = "degrade.replans": "ladder decisions replanned at the degraded rate",
        DEGRADE_SHIFTS = "degrade.shifts": "ladder decisions shifted toward on-device cuts",
        DES_ARENA_GROWN = "des.arena.grown": "DES arena runs that had to grow a buffer (a fault-free serve burst runs none)",
        DES_ARENA_REUSED = "des.arena.reused": "DES arena runs on already-sized buffers (a fault-free serve burst runs none)",
        DES_ARENA_RUNS = "des.arena.runs": "DES arena runs, faulted or not (a fault-free serve burst runs none)",
        DES_FAULTED_RUNS = "des.faulted_runs": "faulted discrete-event simulations",
        DES_JOBS = "des.jobs": "jobs simulated by fault-free DES runs (a fault-free serve burst runs none)",
        DES_RUNS = "des.runs": "fault-free discrete-event simulations (a fault-free serve burst runs none)",
        FAULT_CLOUD_STRAGGLES = "fault.cloud_straggles": "cloud stages slowed by a straggler fault",
        FAULT_LOCAL_FALLBACKS = "fault.local_fallbacks": "jobs finished on-device after uploads gave up",
        FAULT_RETRIES = "fault.retries": "upload retries after a lost attempt",
        FAULT_UPLOAD_LOST = "fault.upload_lost": "upload attempts lost to a link fault",
        FRONTIER_CACHE_HIT = "frontier.cache.hit": "plan-cache fetches served without compiling",
        FRONTIER_CACHE_MISS = "frontier.cache.miss": "plan-cache fetches that compiled a frontier",
        FRONTIER_COMPILE = "frontier.compile": "rate frontiers and beliefs built",
        FRONTIER_COMPILE_PROBES = "frontier.compile_probes": "planner probes made while walking frontier regimes",
        FRONTIER_LOOKUPS = "frontier.lookups": "in-range frontier decisions",
        FRONTIER_OOB = "frontier.oob": "frontier decisions outside the compiled range (planned directly)",
        JOINT_ALLOCATIONS = "joint.allocations": "joint partition and cloud-share allocations",
        JOINT_ROUNDS = "joint.rounds": "best-response rounds across joint allocations",
        OBS_SPANS_DROPPED = "obs.spans_dropped": "spans not retained because the span buffer was full",
        ONLINE_BURSTS = "online.bursts": "bursts of the online replanning loop",
        ONLINE_REPLANS = "online.replans": "online bursts whose cut decision changed",
        PLANNER_BEST_MIX_CALLS = "planner.best_mix.calls": "JPS* plans",
        PLANNER_BEST_MIX_CANDIDATES = "planner.best_mix.candidates": "kernel evaluations of JPS* plans",
        PLANNER_BF_CALLS = "planner.bf.calls": "brute-force plans",
        PLANNER_BF_CANDIDATES = "planner.bf.candidates": "cut multisets scored by brute-force plans",
        PLANNER_JPS_CALLS = "planner.jps.calls": "JPS plans",
        PLANNER_JPS_CANDIDATES = "planner.jps.candidates": "kernel evaluations of JPS plans",
        PLANNER_KERNEL_EVALS = "planner.kernel_evals": "makespan-kernel evaluations over every planner",
        RECOVERY_UPLOAD_RECOVERED = "recovery.upload_recovered": "uploads that succeeded on a retry",
        RUNTIME_POOL_TASKS = "runtime.pool.tasks": "tasks submitted to worker pools, sweep and serving alike",
        SCHED_ADMITTED = "sched.admitted": "SLO requests dispatched",
        SCHED_CLOUD_JOINT_OVERRIDES = "sched.cloud.joint_overrides": "Normal-rung picks changed by joint allocation",
        SCHED_CLOUD_REQUESTS = "sched.cloud.requests": "dispatched requests with a cloud stage",
        SCHED_DEADLINE_HITS = "sched.deadline_hits": "dispatched requests that met their deadline",
        SCHED_DEADLINE_MISSES = "sched.deadline_misses": "requests that missed, including infeasible sheds",
        SCHED_DEGRADED = "sched.degraded": "dispatched requests below the Normal rung",
        SCHED_DISPATCH_NS = "sched.dispatch_ns": "wall time of SLO dispatch loops, ns",
        SCHED_GENERATE_NS = "sched.generate_ns": "wall time of SLO request generation, ns",
        SCHED_HEAP_POPS = "sched.heap.pops": "indexed-dispatch heap pops",
        SCHED_HEAP_PUSHES = "sched.heap.pushes": "indexed-dispatch heap pushes",
        SCHED_HEAP_STALE = "sched.heap.stale": "heap pops discarded as stale",
        SCHED_MERGE_NS = "sched.merge_ns": "wall time of merging SLO streams into arrival order, ns",
        SCHED_PRICE_MEMO_HITS = "sched.price_memo.hits": "pricing-memo lookups (a rung, or a joint rung's row) answered in full",
        SCHED_PRICE_MEMO_MISSES = "sched.price_memo.misses": "pricing-memo lookups that priced a slot (a frontier piece or the local cut) first",
        SCHED_PRICE_MEMO_PRUNES = "sched.price_memo.prunes": "rungs skipped by the memo's lower bound",
        SCHED_REQUESTS = "sched.requests": "SLO requests generated",
        SCHED_SHED_EXPIRED = "sched.shed_expired": "infeasible sheds picked after their deadline, shed unpriced",
        SCHED_SHED_INFEASIBLE = "sched.shed_infeasible": "requests shed because no rung met the deadline",
        SCHED_SHED_QUEUE_FULL = "sched.shed_queue_full": "requests shed at a full tenant queue",
        SCHED_SUMMARY_NS = "sched.summary_ns": "wall time of SLO report summaries, ns",
        SERVE_BURSTS = "serve.bursts": "bursts admitted by serving sessions",
        SERVE_DEGRADED_BURSTS = "serve.degraded_bursts": "served bursts below the healthy rung",
        SERVE_FAULTED_BURSTS = "serve.faulted_bursts": "served bursts replayed under a fault plan",
        SERVE_JOBS = "serve.jobs": "jobs in served bursts",
        SERVE_SESSIONS = "serve.sessions": "serving sessions started",
        SERVE_USERS = "serve.users": "users run to completion",
    }
    histograms {
        ADAPT_EST_ERR_REL = "adapt.est_err_rel": "relative error of a committed device scale vs the truth",
        ADAPT_STALENESS_BURSTS = "adapt.staleness_bursts": "bursts between consecutive replans",
        EXEC_CLOUD_BUSY_MS = "exec.cloud.busy_ms": "executor cloud-stage busy time per job, ms",
        EXEC_CLOUD_WAIT_MS = "exec.cloud.wait_ms": "executor cloud-stage queue wait per job, ms",
        EXEC_MOBILE_BUSY_MS = "exec.mobile.busy_ms": "executor mobile-stage busy time per job, ms",
        EXEC_MOBILE_WAIT_MS = "exec.mobile.wait_ms": "executor mobile-stage queue wait per job, ms",
        EXEC_UPLINK_BUSY_MS = "exec.uplink.busy_ms": "executor uplink busy time per job, ms",
        EXEC_UPLINK_WAIT_MS = "exec.uplink.wait_ms": "executor uplink queue wait per job, ms",
        FRONTIER_COMPILE_MS = "frontier.compile_ms": "eager rate-frontier compile time, ms",
        ONLINE_BURST_MAKESPAN_MS = "online.burst_makespan_ms": "makespan paid per online burst, ms",
        SCHED_CLOUD_SHARE = "sched.cloud.share": "per-tenant cloud share of a contended run",
        SCHED_CLOUD_STAGE_MS = "sched.cloud.stage_ms": "cloud stage time of dispatched requests, ms",
        SCHED_LATENCY_MS = "sched.latency_ms": "arrival-to-completion latency of dispatched requests, ms",
        SCHED_QUEUE_DEPTH = "sched.queue_depth": "queued requests at each dispatch",
        SCHED_SLACK_MS = "sched.slack_ms": "deadline slack at dispatch, ms",
    }
}

/// The counter named `name`, if the catalogue declares one.
pub(crate) fn counter_named(name: &str) -> Option<&'static Counter> {
    COUNTERS.iter().copied().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_and_names_unique() {
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(c.slot(), i, "{}", c.name());
        }
        for (i, h) in HISTOGRAMS.iter().enumerate() {
            assert_eq!(h.slot(), i, "{}", h.name());
        }
        let mut names: Vec<&str> = COUNTERS.iter().map(|c| c.name()).collect();
        names.extend(HISTOGRAMS.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        assert_eq!(COUNTERS.len(), N_COUNTERS);
        assert_eq!(HISTOGRAMS.len(), N_HISTOGRAMS);
    }

    #[test]
    fn names_are_dotted_lowercase() {
        let all = COUNTERS
            .iter()
            .map(|c| c.name())
            .chain(HISTOGRAMS.iter().map(|h| h.name()));
        for name in all {
            assert!(name.contains('.'), "{name}");
            let allowed =
                |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b"._".contains(&b);
            assert!(name.bytes().all(allowed), "{name}");
        }
        let serve_bursts = counter_named("serve.bursts").map(Counter::name);
        assert_eq!(serve_bursts, Some("serve.bursts"));
        let hist = counter_named("sched.latency_ms");
        assert!(hist.is_none(), "histograms are not counters");
    }
}
