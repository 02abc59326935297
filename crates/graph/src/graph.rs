//! The DNN DAG: nodes, edges, validation and structural queries.
//!
//! Construction goes through [`GraphBuilder`], which wires layers
//! together and then [`GraphBuilder::build`]s a validated [`DnnGraph`]:
//! acyclic, arity-checked, shape-inferred, with nodes stored in a fixed
//! topological order so downstream algorithms can iterate cheaply.

use crate::error::GraphError;
use crate::layer::LayerKind;
use crate::tensor::{DType, TensorShape};

/// Index of a node in a [`DnnGraph`] (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// A validated node: its layer, inferred output shape and cost metrics.
#[derive(Debug, Clone)]
pub struct Node {
    /// The layer payload.
    pub layer: LayerKind,
    /// Optional human-readable name (e.g. `"conv1"`).
    pub name: String,
    /// Inferred output tensor shape.
    pub output: TensorShape,
    /// FLOPs to compute this layer once.
    pub flops: u64,
    /// Trainable parameter count.
    pub params: usize,
}

/// A layer-level DNN DAG (paper §3.1, Fig. 3).
///
/// Nodes are stored in topological order: for every edge `(u, v)`,
/// `u.index() < v.index()`. Edges carry no explicit weight — the
/// communication volume of cutting edge `(u, v)` is
/// `graph.node(u).output.bytes(dtype)`.
#[derive(Debug, Clone)]
pub struct DnnGraph {
    name: String,
    nodes: Vec<Node>,
    /// Outgoing adjacency, indexed by node.
    succ: Vec<Vec<NodeId>>,
    /// Incoming adjacency, indexed by node.
    pred: Vec<Vec<NodeId>>,
    dtype: DType,
}

impl DnnGraph {
    /// Start building a graph with the given name.
    pub fn builder(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder::new(name)
    }

    /// Model name (e.g. `"alexnet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type of all activations.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of nodes (`|V|`, the paper's `k` for line structures).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node payload by id. Panics on out-of-range ids (ids are only ever
    /// minted by this graph's builder).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterate `(id, node)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Successors of a node.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succ[id.0]
    }

    /// All edges `(u, v)` in topological order of `u`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (NodeId(u), v)))
    }

    /// Nodes with no predecessors (the network inputs).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.pred[i].is_empty())
            .map(NodeId)
            .collect()
    }

    /// Nodes with no successors (the network outputs).
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.succ[i].is_empty())
            .map(NodeId)
            .collect()
    }

    /// Total FLOPs of one full inference.
    pub fn total_flops(&self) -> u64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> usize {
        self.nodes.iter().map(|n| n.params).sum()
    }

    /// Byte size of the network input tensor (what cloud-only execution
    /// must upload). Sums over all sources.
    pub fn input_bytes(&self) -> usize {
        self.sources()
            .iter()
            .map(|&s| self.node(s).output.bytes(self.dtype))
            .sum()
    }

    /// True when every node has ≤ 1 predecessor and ≤ 1 successor — the
    /// paper's *line structure* (Fig. 3(b)), for which a partition is a
    /// single cut-point.
    pub fn is_line_structure(&self) -> bool {
        self.first_branch().is_none()
    }

    /// First node (in topo order) with more than one predecessor or
    /// successor, if any.
    pub(crate) fn first_branch(&self) -> Option<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .find(|&id| self.succ[id.0].len() > 1 || self.pred[id.0].len() > 1)
    }

    /// The set of nodes that run on the mobile device for partition set
    /// `cut_points`: every cut-point and all its predecessors (paper
    /// §3.1). Returned as a boolean mask indexed by node.
    pub fn mobile_side(&self, cut_points: &[NodeId]) -> Vec<bool> {
        let mut on_mobile = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = cut_points.to_vec();
        while let Some(v) = stack.pop() {
            if on_mobile[v.0] {
                continue;
            }
            on_mobile[v.0] = true;
            stack.extend_from_slice(&self.pred[v.0]);
        }
        on_mobile
    }

    /// Bytes that must be offloaded for partition set `cut_points`: the
    /// sum of output sizes of mobile-side nodes that have at least one
    /// cloud-side successor (or are sinks consumed by the cloud-side
    /// classifier). Cut-points with no successors still upload their
    /// output (the inference result flows through them).
    pub fn offload_bytes(&self, cut_points: &[NodeId]) -> usize {
        let on_mobile = self.mobile_side(cut_points);
        let mut total = 0usize;
        for (i, &mobile) in on_mobile.iter().enumerate() {
            if !mobile {
                continue;
            }
            let crosses = self.succ[i].iter().any(|s| !on_mobile[s.0]);
            if crosses {
                total += self.nodes[i].output.bytes(self.dtype);
            }
        }
        total
    }

    /// FLOPs executed on the mobile device for partition set `cut_points`.
    pub fn mobile_flops(&self, cut_points: &[NodeId]) -> u64 {
        self.mobile_side(cut_points)
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| self.nodes[i].flops)
            .sum()
    }

    /// FLOPs executed on the cloud for partition set `cut_points`.
    pub fn cloud_flops(&self, cut_points: &[NodeId]) -> u64 {
        self.total_flops() - self.mobile_flops(cut_points)
    }
}

/// Incremental builder for [`DnnGraph`].
///
/// ```
/// use mcdnn_graph::{DnnGraph, LayerKind, TensorShape};
///
/// let mut b = DnnGraph::builder("tiny");
/// let input = b.input(TensorShape::chw(3, 32, 32));
/// let conv = b.layer_after(input, LayerKind::conv(8, 3, 1, 1));
/// let pool = b.layer_after(conv, LayerKind::maxpool(2, 2));
/// let out = b.layer_after(pool, LayerKind::dense(10));
/// let g = b.build().unwrap();
/// assert_eq!(g.len(), 4);
/// assert!(g.is_line_structure());
/// assert_eq!(g.sinks(), vec![out]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    layers: Vec<(LayerKind, String)>,
    edges: Vec<(NodeId, NodeId)>,
    dtype: DType,
    auto_names: usize,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            layers: Vec::new(),
            edges: Vec::new(),
            dtype: DType::F32,
            auto_names: 0,
        }
    }

    /// Set the activation element type (default [`DType::F32`]).
    pub fn dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Add an input node with the given tensor shape.
    pub fn input(&mut self, shape: TensorShape) -> NodeId {
        self.add_named(LayerKind::Input { shape }, "input")
    }

    /// Add a free-standing layer (connect it later with [`Self::connect`]).
    pub fn add(&mut self, layer: LayerKind) -> NodeId {
        self.auto_names += 1;
        let name = format!("{}{}", layer.name(), self.auto_names);
        self.add_named(layer, name)
    }

    /// Add a layer with an explicit name.
    pub(crate) fn add_named(&mut self, layer: LayerKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.layers.len());
        self.layers.push((layer, name.into()));
        id
    }

    /// Add a layer and connect it after a single predecessor.
    pub fn layer_after(&mut self, prev: NodeId, layer: LayerKind) -> NodeId {
        let id = self.add(layer);
        self.edges.push((prev, id));
        id
    }

    /// Add a layer consuming several predecessors (for Concat/Add).
    pub fn merge(&mut self, prevs: &[NodeId], layer: LayerKind) -> NodeId {
        let id = self.add(layer);
        for &p in prevs {
            self.edges.push((p, id));
        }
        id
    }

    /// Add an explicit edge.
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        self.edges.push((from, to));
    }

    /// Append a chain of layers after `prev`, returning the last node.
    pub fn chain(&mut self, mut prev: NodeId, layers: impl IntoIterator<Item = LayerKind>) -> NodeId {
        for l in layers {
            prev = self.layer_after(prev, l);
        }
        prev
    }

    /// Validate and freeze the graph.
    ///
    /// Checks: ids in range, no duplicate edges, acyclicity, arity,
    /// shape inference; relabels nodes into topological order.
    pub fn build(self) -> Result<DnnGraph, GraphError> {
        let n = self.layers.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            if u.0 >= n {
                return Err(GraphError::UnknownNode(u));
            }
            if v.0 >= n {
                return Err(GraphError::UnknownNode(v));
            }
            if succ[u.0].contains(&v) {
                return Err(GraphError::DuplicateEdge { from: u, to: v });
            }
            succ[u.0].push(v);
            pred[v.0].push(u);
        }

        // Kahn's algorithm; stable (prefers lower original ids) so that
        // builder insertion order is preserved for already-sorted input.
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        // Min-heap behaviour via sort+pop from the back of a reversed vec.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        while let Some(u) = ready.pop() {
            topo.push(u);
            for &v in &succ[u] {
                indeg[v.0] -= 1;
                if indeg[v.0] == 0 {
                    // Insert keeping `ready` sorted descending.
                    let pos = ready
                        .binary_search_by(|x| v.0.cmp(x))
                        .unwrap_or_else(|p| p);
                    ready.insert(pos, v.0);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::CycleDetected);
        }
        if self.layers[topo[0]].0.arity() != Some(0) && pred[topo[0]].is_empty() {
            // A source that is not an Input layer: allowed only for
            // synthetic graphs; shape inference below will reject it if
            // the layer needs an input.
        }
        let any_source = (0..n).any(|i| pred[i].is_empty());
        if !any_source {
            return Err(GraphError::NoSource);
        }

        // old id -> new id
        let mut remap = vec![0usize; n];
        for (new, &old) in topo.iter().enumerate() {
            remap[old] = new;
        }

        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        let mut new_succ = vec![Vec::new(); n];
        let mut new_pred = vec![Vec::new(); n];
        for (new, &old) in topo.iter().enumerate() {
            let (layer, name) = self.layers[old].clone();
            // Gather input shapes from already-built predecessors.
            let mut preds: Vec<usize> = pred[old].iter().map(|p| remap[p.0]).collect();
            preds.sort_unstable();
            let input_shapes: Vec<TensorShape> =
                preds.iter().map(|&p| nodes[p].output).collect();
            if let Some(expected) = layer.arity() {
                if input_shapes.len() != expected {
                    return Err(GraphError::ArityMismatch {
                        node: NodeId(new),
                        expected: Some(expected),
                        actual: input_shapes.len(),
                    });
                }
            } else if input_shapes.len() < 2 {
                return Err(GraphError::ArityMismatch {
                    node: NodeId(new),
                    expected: None,
                    actual: input_shapes.len(),
                });
            }
            let output = layer
                .infer_shape(&input_shapes)
                .map_err(|reason| GraphError::ShapeMismatch {
                    node: NodeId(new),
                    reason,
                })?;
            let flops = layer.flops(&input_shapes);
            let params = layer.params(&input_shapes);
            nodes.push(Node {
                layer,
                name,
                output,
                flops,
                params,
            });
            for &p in &preds {
                new_pred[new].push(NodeId(p));
                new_succ[p].push(NodeId(new));
            }
        }
        for s in &mut new_succ {
            s.sort_unstable();
        }

        Ok(DnnGraph {
            name: self.name,
            nodes,
            succ: new_succ,
            pred: new_pred,
            dtype: self.dtype,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind as L;
    use crate::tensor::TensorShape as S;

    fn tiny_line() -> DnnGraph {
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
        b.build().unwrap()
    }

    fn diamond() -> DnnGraph {
        // input -> {a, b} -> concat
        let mut b = DnnGraph::builder("diamond");
        let i = b.input(S::chw(8, 16, 16));
        let a = b.layer_after(i, L::pointwise(4));
        let c = b.layer_after(i, L::pointwise(12));
        b.merge(&[a, c], L::Concat);
        b.build().unwrap()
    }

    #[test]
    fn topological_order_invariant() {
        let g = diamond();
        for (u, v) in g.edges() {
            assert!(u < v, "edge {u:?}->{v:?} violates topo order");
        }
    }

    #[test]
    fn line_structure_detection() {
        assert!(tiny_line().is_line_structure());
        assert!(!diamond().is_line_structure());
    }

    #[test]
    fn shapes_propagate() {
        let g = tiny_line();
        let shapes: Vec<_> = g.nodes().iter().map(|n| n.output).collect();
        assert_eq!(
            shapes,
            vec![
                S::chw(3, 32, 32),
                S::chw(8, 32, 32),
                S::chw(8, 16, 16),
                S::flat(8 * 16 * 16),
                S::flat(10),
            ]
        );
    }

    #[test]
    fn diamond_concat_shape() {
        let g = diamond();
        let sink = g.sinks()[0];
        assert_eq!(g.node(sink).output, S::chw(16, 16, 16));
    }

    #[test]
    fn cycle_detected() {
        let mut b = DnnGraph::builder("cyc");
        let i = b.input(S::flat(4));
        let a = b.layer_after(i, L::Act(crate::Activation::ReLU));
        let c = b.layer_after(a, L::Act(crate::Activation::ReLU));
        b.connect(c, a); // back edge
        assert_eq!(b.build().unwrap_err(), GraphError::CycleDetected);
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            DnnGraph::builder("e").build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = DnnGraph::builder("u");
        let i = b.input(S::flat(4));
        b.connect(i, NodeId(99));
        assert!(matches!(b.build(), Err(GraphError::UnknownNode(_))));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = DnnGraph::builder("d");
        let i = b.input(S::flat(4));
        let a = b.layer_after(i, L::Act(crate::Activation::ReLU));
        b.connect(i, a);
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge { .. })));
    }

    #[test]
    fn arity_checked() {
        let mut b = DnnGraph::builder("a");
        let i = b.input(S::chw(4, 8, 8));
        b.merge(&[i], L::Concat); // concat with 1 input
        assert!(matches!(b.build(), Err(GraphError::ArityMismatch { .. })));
    }

    #[test]
    fn mobile_side_closure() {
        let g = diamond();
        // Cutting at node 1 (one branch) pulls in the input too.
        let mask = g.mobile_side(&[NodeId(1)]);
        assert_eq!(mask, vec![true, true, false, false]);
    }

    #[test]
    fn offload_bytes_single_cut_line() {
        let g = tiny_line();
        // Cut after maxpool (node 2): offload its output 8*16*16*4 bytes.
        assert_eq!(g.offload_bytes(&[NodeId(2)]), 8 * 16 * 16 * 4);
    }

    #[test]
    fn offload_bytes_multi_cut() {
        let g = diamond();
        // Cut both branches: upload both branch outputs.
        let bytes = g.offload_bytes(&[NodeId(1), NodeId(2)]);
        assert_eq!(bytes, (4 + 12) * 16 * 16 * 4);
    }

    #[test]
    fn sink_cut_uploads_result() {
        let g = tiny_line();
        let sink = g.sinks()[0];
        // Everything on mobile; the final 10-float logits are offloaded.
        assert_eq!(g.offload_bytes(&[sink]), 0); // sink has no successors
        assert_eq!(g.mobile_flops(&[sink]), g.total_flops());
        assert_eq!(g.cloud_flops(&[sink]), 0);
    }

    #[test]
    fn flops_partition_conservation() {
        let g = tiny_line();
        for i in 0..g.len() {
            let cut = [NodeId(i)];
            assert_eq!(
                g.mobile_flops(&cut) + g.cloud_flops(&cut),
                g.total_flops()
            );
        }
    }

    #[test]
    fn input_bytes() {
        let g = tiny_line();
        assert_eq!(g.input_bytes(), 3 * 32 * 32 * 4);
    }

    #[test]
    fn builder_doc_example_runs() {
        // Mirrors the doctest to keep it compiling under test too.
        let mut b = DnnGraph::builder("tiny");
        let input = b.input(S::chw(3, 32, 32));
        let conv = b.layer_after(input, L::conv(8, 3, 1, 1));
        let _pool = b.layer_after(conv, L::maxpool(2, 2));
        let g = b.build().unwrap();
        assert!(g.is_line_structure());
    }

    #[test]
    fn out_of_order_insertion_is_topo_sorted() {
        // Build edges "backwards": add nodes first, connect arbitrarily.
        let mut b = DnnGraph::builder("ooo");
        let d = b.add(L::dense(10));
        let r = b.add(L::Act(crate::Activation::ReLU));
        let i = b.input(S::flat(20));
        b.connect(i, r);
        b.connect(r, d);
        let g = b.build().unwrap();
        assert_eq!(g.node(NodeId(0)).layer.name(), "input");
        assert_eq!(g.node(NodeId(2)).layer.name(), "dense");
        for (u, v) in g.edges() {
            assert!(u < v);
        }
    }
}
