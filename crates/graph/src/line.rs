//! Line-structure DNNs (paper Fig. 3(b)).
//!
//! For a line-structure DNN the partition set contains a single
//! cut-point: cutting after layer `l` runs layers `1..=l` on the mobile
//! device and offloads layer `l`'s output tensor. The two stage-cost
//! functions of the paper become unary:
//!
//! * `f(l)` — mobile computation workload up to and including layer `l`
//!   (here measured in FLOPs; the profile crate converts to time),
//! * `g(l)` — offloading volume after layer `l` (here in bytes).
//!
//! Cut index `0` is the *cloud-only* partition (upload the raw input);
//! cut index `k` is the *local-only* partition (no upload at all — the
//! paper treats the result return as negligible and local-only jobs never
//! touch the network).

use crate::error::GraphError;
use crate::graph::{DnnGraph, NodeId};
use crate::layer::LayerKind;

/// A cut position in a line-structure DNN with `k` layers.
///
/// Valid range is `0..=k`: `0` = cloud-only, `k` = local-only, and
/// `l ∈ 1..k` cuts after compute layer `l` (1-based).
pub(crate) type CutPoint = usize;

/// One compute layer of a flattened line-structure DNN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineLayer {
    /// Human-readable name (builder name, or joined names for virtual
    /// blocks).
    pub name: String,
    /// FLOPs to execute the layer (block) once.
    pub flops: u64,
    /// Byte size of the layer's output tensor — the offloading volume if
    /// the DNN is cut right after this layer.
    pub out_bytes: usize,
    /// Ids of the original graph nodes this entry covers (one id for a
    /// plain layer, several for a virtual block).
    pub nodes: Vec<NodeId>,
}

/// A line-structure DNN: an ordered list of compute layers plus the
/// input tensor size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineDnn {
    name: String,
    input_bytes: usize,
    layers: Vec<LineLayer>,
}

impl LineDnn {
    /// Build directly from layer data (used by tests and synthetic DNNs).
    pub fn from_parts(
        name: impl Into<String>,
        input_bytes: usize,
        layers: Vec<LineLayer>,
    ) -> Self {
        LineDnn {
            name: name.into(),
            input_bytes,
            layers,
        }
    }

    /// Extract the line representation from a line-structure [`DnnGraph`].
    ///
    /// The graph's `Input` node becomes [`LineDnn::input_bytes`]; every
    /// subsequent node becomes one [`LineLayer`]. Fails with
    /// [`GraphError::NotLineStructure`] when the graph branches.
    pub fn from_graph(graph: &DnnGraph) -> Result<Self, GraphError> {
        Self::from_graph_weighted(graph, |_| 1.0)
    }

    /// [`LineDnn::from_graph`] with per-layer cost weighting: each
    /// layer's FLOPs are multiplied by `weight(&layer)` to give
    /// *effective* FLOPs.
    ///
    /// Real devices do not execute all layer kinds at the same
    /// FLOP rate — depthwise convolutions are memory-bound and run
    /// several times below a dense conv's throughput on CPUs. A weight
    /// above 1 marks a layer as proportionally slower. The default
    /// weight of 1 everywhere recovers the pure FLOP model.
    pub fn from_graph_weighted(
        graph: &DnnGraph,
        weight: impl Fn(&LayerKind) -> f64,
    ) -> Result<Self, GraphError> {
        if let Some(node) = graph.first_branch() {
            return Err(GraphError::NotLineStructure { node });
        }
        if graph.is_empty() {
            return Err(GraphError::Empty);
        }
        let dtype = graph.dtype();
        let mut input_bytes = 0usize;
        let mut layers = Vec::with_capacity(graph.len());
        for (id, node) in graph.iter() {
            if matches!(node.layer, LayerKind::Input { .. }) && id.0 == 0 {
                input_bytes = node.output.bytes(dtype);
                continue;
            }
            let w = weight(&node.layer);
            assert!(w > 0.0 && w.is_finite(), "weights must be positive");
            layers.push(LineLayer {
                name: node.name.clone(),
                flops: (node.flops as f64 * w).round() as u64,
                out_bytes: node.output.bytes(dtype),
                nodes: vec![id],
            });
        }
        if layers.is_empty() {
            return Err(GraphError::Empty);
        }
        Ok(LineDnn {
            name: graph.name().to_string(),
            input_bytes,
            layers,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compute layers `k`.
    pub fn k(&self) -> usize {
        self.layers.len()
    }

    /// Byte size of the raw input tensor (cloud-only upload volume).
    pub fn input_bytes(&self) -> usize {
        self.input_bytes
    }

    /// Layer by 1-based index (`1..=k`), matching the paper's indexing.
    pub fn layer(&self, l: usize) -> &LineLayer {
        assert!(l >= 1 && l <= self.k(), "layer index {l} out of 1..={}", self.k());
        &self.layers[l - 1]
    }

    /// All layers in order.
    pub fn layers(&self) -> &[LineLayer] {
        &self.layers
    }

    /// Mobile-side FLOPs for cut `l ∈ 0..=k` (prefix sum of layer FLOPs).
    pub fn mobile_flops(&self, cut: CutPoint) -> u64 {
        assert!(cut <= self.k(), "cut {cut} out of 0..={}", self.k());
        self.layers[..cut].iter().map(|l| l.flops).sum()
    }

    /// Cloud-side FLOPs for cut `l ∈ 0..=k` (suffix sum).
    pub fn cloud_flops(&self, cut: CutPoint) -> u64 {
        assert!(cut <= self.k(), "cut {cut} out of 0..={}", self.k());
        self.layers[cut..].iter().map(|l| l.flops).sum()
    }

    /// Total FLOPs of one inference.
    pub fn total_flops(&self) -> u64 {
        self.mobile_flops(self.k())
    }

    /// Offloading volume in bytes for cut `l ∈ 0..=k`.
    ///
    /// `0` uploads the raw input; `k` uploads nothing (local-only); any
    /// other `l` uploads layer `l`'s output tensor.
    pub fn offload_bytes(&self, cut: CutPoint) -> usize {
        assert!(cut <= self.k(), "cut {cut} out of 0..={}", self.k());
        if cut == 0 {
            self.input_bytes
        } else if cut == self.k() {
            0
        } else {
            self.layers[cut - 1].out_bytes
        }
    }

    /// Returns `(mobile_flops, offload_bytes)` for every cut `0..=k`.
    ///
    /// This is the raw material the profile crate turns into the paper's
    /// `(f, g)` time vectors.
    pub fn cut_table(&self) -> Vec<(u64, usize)> {
        (0..=self.k())
            .map(|c| (self.mobile_flops(c), self.offload_bytes(c)))
            .collect()
    }

    /// Rename the model (used when deriving synthetic variants).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DnnGraph;
    use crate::layer::LayerKind as L;
    use crate::tensor::TensorShape as S;

    fn tiny() -> LineDnn {
        let mut b = DnnGraph::builder("tiny");
        let i = b.input(S::chw(3, 32, 32));
        b.chain(
            i,
            [
                L::conv(8, 3, 1, 1),
                L::maxpool(2, 2),
                L::Flatten,
                L::dense(10),
            ],
        );
        LineDnn::from_graph(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn extraction_drops_input_node() {
        let line = tiny();
        assert_eq!(line.k(), 4);
        assert_eq!(line.input_bytes(), 3 * 32 * 32 * 4);
        assert_eq!(line.layer(1).name, "conv1");
    }

    #[test]
    fn mobile_flops_is_prefix_sum() {
        let line = tiny();
        let total: u64 = line.layers().iter().map(|l| l.flops).sum();
        assert_eq!(line.mobile_flops(0), 0);
        assert_eq!(line.mobile_flops(line.k()), total);
        for c in 0..=line.k() {
            assert_eq!(
                line.mobile_flops(c) + line.cloud_flops(c),
                total,
                "conservation at cut {c}"
            );
        }
        // Monotone increasing in cut depth.
        for c in 1..=line.k() {
            assert!(line.mobile_flops(c) >= line.mobile_flops(c - 1));
        }
    }

    #[test]
    fn offload_semantics_at_extremes() {
        let line = tiny();
        assert_eq!(line.offload_bytes(0), line.input_bytes());
        assert_eq!(line.offload_bytes(line.k()), 0);
        // Cut after maxpool (layer 2) offloads the 8x16x16 map.
        assert_eq!(line.offload_bytes(2), 8 * 16 * 16 * 4);
    }

    #[test]
    fn cut_table_covers_all_cuts() {
        let line = tiny();
        let t = line.cut_table();
        assert_eq!(t.len(), line.k() + 1);
        assert_eq!(t[0], (0, line.input_bytes()));
        assert_eq!(t[line.k()].1, 0);
    }

    #[test]
    fn branching_graph_rejected() {
        let mut b = DnnGraph::builder("branch");
        let i = b.input(S::chw(8, 16, 16));
        let a = b.layer_after(i, L::pointwise(4));
        let c = b.layer_after(i, L::pointwise(4));
        b.merge(&[a, c], L::Add);
        let g = b.build().unwrap();
        assert!(matches!(
            LineDnn::from_graph(&g),
            Err(GraphError::NotLineStructure { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "out of 0..=")]
    fn out_of_range_cut_panics() {
        tiny().mobile_flops(99);
    }

    #[test]
    fn from_parts_roundtrip() {
        let line = LineDnn::from_parts(
            "synthetic",
            1000,
            vec![LineLayer {
                name: "l1".into(),
                flops: 10,
                out_bytes: 500,
                nodes: vec![],
            }],
        );
        assert_eq!(line.k(), 1);
        assert_eq!(line.offload_bytes(1), 0);
        assert_eq!(line.offload_bytes(0), 1000);
    }
}
