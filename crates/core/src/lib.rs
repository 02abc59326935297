//! # mcdnn — Joint Optimization of DNN Partition and Scheduling
//!
//! A reproduction of *"Joint Optimization of DNN Partition and
//! Scheduling for Mobile Cloud Computing"* (Duan & Wu, ICPP 2021) as a
//! Rust library.
//!
//! A mobile device generates `n` identical DNN inference jobs. Each job
//! can be *partitioned*: a prefix of the network runs on the device
//! (time `f(l)`), the intermediate tensor is uploaded (time `g(l)`),
//! and the suffix runs on a much faster cloud server. The mobile CPU
//! and the uplink pipeline across jobs, so choosing every job's cut
//! *and* the processing order jointly is what minimises the makespan.
//!
//! ```
//! use mcdnn::prelude::*;
//!
//! // 10 AlexNet inference jobs over the paper's Wi-Fi (18.88 Mbps).
//! let scenario = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
//! let jps = scenario.plan(Strategy::Jps, 10);
//! let lo = scenario.plan(Strategy::LocalOnly, 10);
//! assert!(jps.makespan_ms < lo.makespan_ms);
//! ```
//!
//! Crate map (see `DESIGN.md` at the repo root):
//! * [`mcdnn_graph`] — DNN DAGs, virtual blocks, path decomposition.
//! * [`mcdnn_models`] — AlexNet, VGG-16, MobileNet-v2, ResNet-18,
//!   GoogLeNet, NiN, Tiny-YOLOv2, Inception-C, synthetic generators.
//! * [`mcdnn_profile`] — device/network cost models, regression,
//!   lookup tables.
//! * [`mcdnn_flowshop`] — Johnson's rule, makespan evaluation, brute
//!   force, bounds.
//! * [`mcdnn_partition`] — Alg. 2 binary search, JPS, baselines,
//!   continuous-relaxation theory, general-structure Alg. 3.
//! * [`mcdnn_sim`] — discrete-event simulator and threaded pipeline
//!   executor.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod scenario;

pub use chaos::{chaos_report, ChaosConfig, ChaosReport};
pub use engine::{Engine, EngineConfig};
pub use error::Error;
pub use scenario::{Scenario, TimedPlan};

pub use mcdnn_flowshop as flowshop;
pub use mcdnn_graph as graph;
pub use mcdnn_models as models;
pub use mcdnn_partition as partition;
pub use mcdnn_profile as profile;
pub use mcdnn_sim as sim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::chaos::{chaos_report, ChaosConfig, ChaosReport};
    pub use crate::engine::{Engine, EngineConfig};
    pub use crate::error::Error;
    pub use crate::experiment;
    pub use crate::scenario::{Scenario, TimedPlan};
    pub use mcdnn_flowshop::{johnson_order, makespan, FlowJob};
    pub use mcdnn_graph::{DnnGraph, LayerKind, LineDnn, TensorShape};
    pub use mcdnn_models::Model;
    pub use mcdnn_partition::{Plan, PlanError, Strategy};
    pub use mcdnn_profile::{
        AdaptConfig, CloudModel, CostProfile, DeviceModel, NetworkModel, ProfileError,
        ProfileEstimator,
    };
    pub use mcdnn_sim::{simulate, DesConfig, DriftSpec, ExecutorConfig};
}
