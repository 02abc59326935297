//! # mcdnn-flowshop
//!
//! Two-stage flow shop machinery underlying the paper's scheduling
//! results (§4): after partitioning, each DNN inference job is a
//! two-stage job — mobile computation `f(P_j)` on machine 1 (the mobile
//! CPU), then offload `g(P_j)` on machine 2 (the uplink) — and
//! minimising the makespan of `n` such jobs is the classic `F2 || C_max`
//! problem, solved exactly by Johnson's rule (Alg. 1).
//!
//! Provided here, independent of any DNN notions:
//!
//! * [`job::FlowJob`] — a two-(or three-)stage job.
//! * [`johnson`] — the paper's Alg. 1 (Johnson's rule), plus the FIFO
//!   order for the scheduling ablation.
//! * [`mod@makespan`] — exact schedule evaluation by recurrence, Gantt
//!   traces, average completion times, and the closed form of
//!   Proposition 4.1.
//! * [`bruteforce`] — exhaustive permutation search (the paper's BF
//!   baseline) for small `n`.
//! * [`bounds`] — standard `F2` lower bounds used as sanity oracles.
//! * [`kernels`] — closed-form O(1) makespan kernels for homogeneous
//!   job blocks, the planner's hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod flowtime;
pub mod bruteforce;
pub mod job;
pub mod johnson;
pub mod kernels;
pub mod makespan;
pub mod release;
pub mod three;

pub use bounds::two_stage_lower_bound;
pub use bruteforce::{best_permutation, BruteForceResult};
pub use flowtime::{flowtime_order, total_flowtime};
pub use job::FlowJob;
pub use johnson::johnson_order;
pub use kernels::{johnson_blocks_makespan, two_type_mix_makespan, uniform_makespan};
pub use makespan::{
    average_completion_ms, gantt, makespan, makespan_closed_form, makespan_three_stage, Gantt,
    StageInterval,
};
pub use release::{list_schedule_with_releases, makespan_with_releases};
pub use three::three_stage_order;
