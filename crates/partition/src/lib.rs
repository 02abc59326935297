//! # mcdnn-partition
//!
//! The paper's primary contribution: joint optimisation of DNN
//! partition and scheduling for `n` homogeneous inference jobs.
//!
//! * [`alg2`] — Algorithm 2: `O(log k)` binary search for the left-most
//!   cut `l*` with `f(l*) ≥ g(l*)`, plus the two-type mixing ratio.
//! * [`jps`] — the JPS planner: two adjacent cut types mixed per the
//!   ratio (faithful), and an exhaustive-mix refinement; both scheduled
//!   with Johnson's rule.
//! * [`baselines`] — LO (local only), CO (cloud only), PO (single-DNN
//!   optimal partition applied uniformly, Neurosurgeon/DADS style) and
//!   BF (exact joint optimum by multiset enumeration, small `n`).
//! * [`plan`] — the uniform [`plan::Plan`] produced by every strategy:
//!   per-job cuts, Johnson order, makespan and per-job completions.
//! * [`continuous`] — §5.1 theory: the continuous relaxation, its
//!   strong duality, the balanced crossing point `x*` with
//!   `f(x*) = g(x*)`, and the Theorem 5.3 condition check.
//! * [`general`] — Algorithm 3 for general-structure DAGs: independent
//!   path decomposition, per-path Alg. 2 cuts, duplicated nodes counted
//!   once, and the modified Johnson schedule over path instances.
//! * [`mod@reference`] — the pre-kernel O(n log n)-per-candidate planners,
//!   kept as the oracle for property tests and the speedup benchmark.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alg2;
pub mod baselines;
pub mod batching;
pub mod continuous;
pub mod edge;
pub mod energy_aware;
pub mod error;
pub mod flowtime_aware;
pub mod frontier;
pub mod general;
pub mod heterogeneous;
pub mod joint;
pub mod jps;
pub mod multichannel;
pub mod plan;
pub mod reference;

pub use alg2::{binary_search_cut, CutSearch};
pub use error::{ParseStrategyError, PlanError};
pub use batching::{best_batch_size, evaluate_batch, BatchChoice};
pub use continuous::{balanced_cut_continuous, duality_gap, theorem53_condition};
pub use edge::{edge_jps_plan, two_stage_blind_plan, EdgePlan};
pub use energy_aware::{min_energy_plan, pareto_front, EnergyPoint};
pub use flowtime_aware::{flowtime_jps_plan, FlowtimePlan};
pub use frontier::{CutMix, FrontierDecision, LazyFrontier, PlanCache, RateFrontier, RateProfile};
pub use general::{general_jps_plan, multipath_cuts, GeneralPlan};
pub use heterogeneous::{hetero_jps_plan, HeteroPlan, JobGroup};
pub use joint::{joint_allocate, oblivious_allocation, JointAllocation, JointTenant};
pub use multichannel::{makespan_multichannel, multichannel_jps_plan};
pub use plan::{Plan, Strategy};
