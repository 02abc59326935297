//! # mcdnn-obs
//!
//! Zero-dependency (std-only) observability for the mcdnn serving
//! stack: a catalogue of counters and fixed-bucket histograms recorded
//! into thread-owned slabs, coarse spans with monotonic timestamps, and
//! two export sinks — a Chrome-trace JSON writer (open the file in
//! `chrome://tracing` / Perfetto) and a JSON metrics snapshot.
//!
//! ## Design
//!
//! * **One catalogue.** [`metrics`] declares every counter and histogram
//!   the workspace records as a `static` handle with a dense slot, its
//!   dotted name and a one-line doc. A write site is
//!   `metrics::SERVE_BURSTS.add(1)` or `metrics::SCHED_LATENCY_MS.observe(v)`;
//!   there is no string-keyed write path. Snapshots export every entry,
//!   zeros included, so the catalogue is also the list of exported names.
//! * **Thread-owned slabs.** A thread's first record claims one slab of
//!   atomic words (all counters, then each histogram's buckets, count,
//!   sum, min and max; allocated once, recycled after its thread exits)
//!   and registers it once. The owning thread
//!   is the only writer, so a warm record is a relaxed load and store:
//!   no lock, no lock-prefixed read-modify-write, no clock read, no
//!   allocation, and no cache line shared with another writer. Reads
//!   ([`snapshot`], [`counter_value`]) sum the live slabs plus a retired
//!   total that exiting threads fold their slabs into; reads made after
//!   a join see every write made before it. [`thread_counter_value`]
//!   reads the calling thread's slab alone.
//! * **Reset by epoch.** [`reset`] bumps an epoch instead of writing
//!   other threads' slabs; reads ignore slabs of an older epoch and each
//!   owner zeroes its slab on its next record.
//! * **Coarse, bounded spans.** [`span()`] times planner, executor,
//!   chaos and sweep phases — never a per-burst step. At most
//!   [`SPAN_CAPACITY`] records are retained until [`drain_spans`]; the
//!   rest are counted in `obs.spans_dropped`.
//! * **Free when off.** Recording is enabled unless `MCDNN_OBS=0` (or
//!   `off`/`false`) is set in the environment; [`set_enabled`] overrides
//!   the environment at runtime. Every recording entry point checks a
//!   single relaxed atomic load first. The `alloc_free` integration test
//!   pins both modes to zero heap allocations once warm.
//! * **No external crates.** JSON is written by hand and validated by
//!   the minimal parser in [`json`], which the round-trip tests (and
//!   downstream crates' tests) reuse.
//!
//! ```
//! use mcdnn_obs::metrics;
//! let _span = mcdnn_obs::span("demo", "plan");
//! metrics::PLANNER_JPS_CALLS.add(1);
//! metrics::FRONTIER_COMPILE_MS.observe(1.25);
//! drop(_span);
//! let snapshot = mcdnn_obs::snapshot();
//! assert!(snapshot.counter("planner.jps.calls").unwrap_or(0) >= 1);
//! let json = snapshot.to_json();
//! assert!(mcdnn_obs::json::parse(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;

pub use chrome::{ChromeTrace, InstantEvent, TraceEvent};
pub use hist::{nearest_rank, percentile_sorted, Histogram};
pub use registry::{
    counter_value, drain_spans, enabled, reset, set_enabled, snapshot, thread_counter_value,
    MetricsSnapshot, SpanRecord, SPAN_CAPACITY,
};
pub use span::{span, Span};
