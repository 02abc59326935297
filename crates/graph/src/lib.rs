//! # mcdnn-graph
//!
//! Layer-level DAG representation of deep neural networks, as used by the
//! partition/scheduling algorithms of *"Joint Optimization of DNN Partition
//! and Scheduling for Mobile Cloud Computing"* (Duan & Wu, ICPP 2021).
//!
//! The paper models a DNN as a DAG `G = (V, E)` where each node is a layer
//! (partition granularity is layer-wise) and each edge carries the tensor
//! communicated between layers; the edge weight is the communication
//! volume (paper §3.1, Fig. 3). This crate provides:
//!
//! * [`tensor::TensorShape`] — tensor shapes with element/byte counts,
//!   which become the DAG edge weights.
//! * [`layer::LayerKind`] — the layer taxonomy (convolution, pooling,
//!   dense, activation, normalization, element-wise merge, …) with shape
//!   inference, parameter counts and FLOP counts.
//! * [`graph::DnnGraph`] — the DAG itself: builder API, validation,
//!   topological order, and structural queries.
//! * [`line::LineDnn`] — the line-structure specialisation (paper
//!   Fig. 3(b)) where a partition is a single cut-point and the
//!   computation/communication costs become unary functions of the cut
//!   depth.
//! * [`cluster`] — *virtual block* clustering (paper §3.2): layers after
//!   which the offloading volume increases are merged into a block so the
//!   remaining cut candidates have non-increasing communication volume.
//! * [`paths`] — general-structure DAG handling (paper §5.3, Fig. 9):
//!   node duplication that converts an arbitrary DAG into independent
//!   source→sink paths without changing partial-order relations.
//! * [`dot`] — Graphviz export for inspection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod dot;
pub mod error;
pub mod graph;
pub mod layer;
pub mod line;
pub mod parse;
pub mod paths;
pub mod summary;
pub mod tensor;

pub use cluster::{cluster_virtual_blocks, VirtualBlock};
pub use error::GraphError;
pub use graph::{DnnGraph, GraphBuilder, Node, NodeId};
pub use layer::{Activation, CostClass, LayerKind, PoolKind};
pub use parse::{parse_model, ModelError};
pub use line::{LineDnn, LineLayer};
pub use paths::{
    articulation_chain, collapse_to_line, collapse_to_line_weighted, decompose_into_paths,
    duplicate_to_multipath, segments, PathDag, Segment,
};
pub use summary::{cost_breakdown, CostBreakdown};
pub use tensor::{DType, TensorShape};
