//! # mcdnn-sim
//!
//! Execution substrates for the mobile → uplink → cloud pipeline.
//!
//! The paper runs its schedules on a physical testbed (Raspberry Pi +
//! gRPC + GPU server). This crate replaces the testbed with two
//! independent implementations that *execute* a schedule rather than
//! just evaluate a formula:
//!
//! * [`des`] — a discrete-event simulator of the three pipeline
//!   resources with configurable parallelism (number of uplink channels,
//!   cloud execution slots) and optional stage-duration jitter. With one
//!   channel and one slot it reproduces the flow-shop recurrence
//!   exactly — which is tested, not assumed.
//! * [`executor`] — a real concurrent executor: one OS thread per
//!   pipeline stage connected by `std::sync::mpsc` channels, burning precise
//!   busy-wait time per stage in scaled-down virtual milliseconds. This
//!   exercises the actual systems behaviour (queueing, backpressure,
//!   stage exclusivity) the analytic model abstracts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adapt;
pub mod degrade;
pub mod des;
pub mod executor;
pub mod fault;
pub mod online;
pub mod robustness;
pub mod serve;
pub mod slo;
pub mod stream;
mod tenant;
pub mod trace;

pub use adapt::DriftSpec;
pub use degrade::{
    ladder_decision, run_degraded, BurstRecord, DegradePolicy, DegradedRun, LadderDecision,
    LadderFrontier, LadderLevel,
};
pub use des::{
    simulate, simulate_faulted, DesArena, DesConfig, DesResult, FaultedDesResult, FaultedRun,
};
pub use fault::{Fault, FaultEvent, FaultEventKind, FaultPlan, FaultSpec, RetryPolicy};
pub use executor::{
    run_pipeline, run_pipeline_faulted, ClockMode, ExecTrace, ExecutorConfig, FaultedExecTrace,
};
pub use online::{run_online, BandwidthTrace, OnlineResult, ReplanPolicy};
pub use serve::{
    fleet, run_user, serve_fleet, serve_fleet_serial, BurstOutcome, ServeConfig, ServeReport,
    UserSession, UserSpec, UserSummary,
};
pub use slo::{
    serve_slo, serve_slo_digest_in, serve_slo_serial, serve_slo_serial_with, slo_fleet,
    AdmitError, ClassSummary, DispatchMode, DispatchStats, SloArena, SloClass, SloConfig,
    SloPolicy, SloReport, SloSpec, SloStreams, SloTenant, TenantSloSummary,
};
pub use robustness::{
    chaos_drill, chaos_scenarios, realized_makespans, run_chaos_grid, ChaosDrill, ChaosRow,
    ChaosScenario, MakespanStats,
};
pub use stream::{best_cut_for_rate, saturation_rate_hz, simulate_stream, StreamConfig, StreamStats};
pub use trace::{faulted_trace, schedule_trace, to_chrome_trace};
