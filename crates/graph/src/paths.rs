//! General-structure DAG handling (paper §5.3, Fig. 9).
//!
//! The paper converts a general DAG into *independent paths* by
//! duplicating every node whose out-degree (symmetrically in-degree)
//! exceeds one, then partitions each path individually with the
//! line-structure algorithm and schedules the paths with a modified
//! Johnson's rule that counts duplicated nodes only once.
//!
//! Applied to a whole network, the conversion enumerates every
//! source→sink path, which is exponential in the number of stacked
//! branching modules (GoogLeNet's 9 inception modules × 4 branches each
//! would yield 4⁹ ≈ 262 k paths). We therefore also provide the
//! *articulation chain* — the nodes every source→sink path passes
//! through — and a segment decomposition between consecutive
//! articulation nodes. Branching is local to a segment (one inception
//! module), so enumerating paths per segment is cheap and the union of
//! per-segment paths carries exactly the information Alg. 3 needs. This
//! is an implementation refinement of the paper's conversion, not a
//! semantic change: within any segment it produces the same independent
//! paths the paper's duplication would.

use crate::error::GraphError;
use crate::graph::{DnnGraph, NodeId};

/// Default cap on enumerated paths before [`decompose_into_paths`]
/// refuses (guards against exponential blow-up on deep branching nets).
pub(crate) const DEFAULT_PATH_CAP: usize = 4096;

/// The multi-path view of a DAG after node duplication.
///
/// Each path is a sequence of *original* node ids from the source to the
/// sink; a node appearing on several paths is exactly the paper's
/// "duplicated node" and must be counted once during scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDag {
    /// All source→sink paths, each in topological order.
    pub paths: Vec<Vec<NodeId>>,
}

impl PathDag {
    /// Number of independent paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no paths exist.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// How many paths contain `node` — its duplication count under the
    /// paper's conversion.
    pub fn multiplicity(&self, node: NodeId) -> usize {
        self.paths.iter().filter(|p| p.contains(&node)).count()
    }
}

/// Enumerate all source→sink paths of `graph`, failing once more than
/// `cap` paths exist.
pub fn decompose_into_paths(graph: &DnnGraph, cap: usize) -> Result<Vec<Vec<NodeId>>, GraphError> {
    let sources = graph.sources();
    if sources.is_empty() {
        return Err(GraphError::NoSource);
    }
    let mut paths = Vec::new();
    let mut stack: Vec<(NodeId, Vec<NodeId>)> = sources
        .into_iter()
        .map(|s| (s, vec![s]))
        .collect();
    while let Some((v, path)) = stack.pop() {
        let succ = graph.successors(v);
        if succ.is_empty() {
            paths.push(path);
            if paths.len() > cap {
                return Err(GraphError::MultipleSinks(vec![])); // see note below
            }
            continue;
        }
        for &s in succ {
            let mut next = path.clone();
            next.push(s);
            stack.push((s, next));
        }
    }
    // Deterministic order regardless of DFS stack behaviour.
    paths.sort();
    Ok(paths)
}

/// The paper's node-duplication conversion (Fig. 9): returns the
/// independent-path view of the DAG, capped at `DEFAULT_PATH_CAP`
/// (4,096) paths.
pub fn duplicate_to_multipath(graph: &DnnGraph) -> Result<PathDag, GraphError> {
    Ok(PathDag {
        paths: decompose_into_paths(graph, DEFAULT_PATH_CAP)?,
    })
}

/// Nodes contained in every source→sink path, in topological order.
///
/// These are the single-node separators of the DAG — in a CNN, the
/// junctions between branching modules (e.g. each inception module's
/// `Filter Concat`). Cutting after an articulation node behaves exactly
/// like a line-structure cut: the offload volume is that node's output.
pub fn articulation_chain(graph: &DnnGraph) -> Vec<NodeId> {
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    // Count source→sink paths through each node with two DP sweeps, using
    // saturating arithmetic so deep branching cannot overflow. A node is
    // on every path iff paths_through(v) == total_paths.
    let mut from_source = vec![0u128; n];
    for s in graph.sources() {
        from_source[s.0] = 1;
    }
    for u in 0..n {
        let fu = from_source[u];
        if fu == 0 {
            continue;
        }
        for &v in graph.successors(NodeId(u)) {
            from_source[v.0] = from_source[v.0].saturating_add(fu);
        }
    }
    let mut to_sink = vec![0u128; n];
    for s in graph.sinks() {
        to_sink[s.0] = 1;
    }
    for u in (0..n).rev() {
        let mut acc: u128 = 0;
        for &v in graph.successors(NodeId(u)) {
            acc = acc.saturating_add(to_sink[v.0]);
        }
        if !graph.successors(NodeId(u)).is_empty() {
            to_sink[u] = acc;
        }
    }
    let total: u128 = graph
        .sinks()
        .iter()
        .map(|s| from_source[s.0])
        .fold(0u128, u128::saturating_add);
    (0..n)
        .filter(|&v| from_source[v].saturating_mul(to_sink[v]) == total && total > 0)
        .map(NodeId)
        .collect()
}

/// A stretch of the DAG between two consecutive articulation nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Articulation node the segment starts after.
    pub entry: NodeId,
    /// Articulation node the segment ends at.
    pub exit: NodeId,
    /// All entry→exit paths through the segment's interior (each path
    /// includes `entry` and `exit`). A trivial segment (direct edge or
    /// chain) has exactly one path.
    pub paths: Vec<Vec<NodeId>>,
}

impl Segment {
    /// True when the segment contains no branching.
    pub fn is_line(&self) -> bool {
        self.paths.len() == 1
    }
}

/// Split the DAG into segments between consecutive articulation nodes
/// and enumerate each segment's internal paths.
///
/// For line-structure graphs every node is an articulation node and each
/// segment is a single edge. For GoogLeNet each inception module becomes
/// one segment with one path per branch.
pub fn segments(graph: &DnnGraph) -> Result<Vec<Segment>, GraphError> {
    let chain = articulation_chain(graph);
    if chain.len() < 2 {
        return Err(GraphError::NoSource);
    }
    let mut out = Vec::with_capacity(chain.len() - 1);
    for w in chain.windows(2) {
        let (entry, exit) = (w[0], w[1]);
        // Enumerate entry→exit paths restricted to nodes between them.
        let mut paths = Vec::new();
        let mut stack = vec![vec![entry]];
        while let Some(path) = stack.pop() {
            let v = *path.last().expect("paths are never empty");
            if v == exit {
                paths.push(path);
                if paths.len() > DEFAULT_PATH_CAP {
                    return Err(GraphError::MultipleSinks(vec![]));
                }
                continue;
            }
            for &s in graph.successors(v) {
                if s <= exit {
                    let mut next = path.clone();
                    next.push(s);
                    stack.push(next);
                }
            }
        }
        paths.sort();
        out.push(Segment { entry, exit, paths });
    }
    Ok(out)
}

/// Collapse a general DAG onto its articulation chain, producing a
/// [`LineDnn`](crate::line::LineDnn) whose layers are the stretches
/// between consecutive articulation nodes.
///
/// This is the paper's treatment of MobileNet-v2 (§6.1): bottleneck
/// residual modules whose interior tensors are no smaller than the
/// module boundary are clustered as virtual blocks, and the network is
/// then handled as a line structure. Each chain window `(entry, exit]`
/// becomes one line layer: its FLOPs are the sum over every node
/// strictly after `entry` up to and including `exit` (interior branch
/// nodes included), and its offload volume is `exit`'s output tensor.
///
/// Fails with [`GraphError::NotLineStructure`] when the chain has fewer
/// than two nodes (no single-node separators to cut at).
pub fn collapse_to_line(graph: &DnnGraph) -> Result<crate::line::LineDnn, GraphError> {
    collapse_to_line_weighted(graph, |_| 1.0)
}

/// [`collapse_to_line`] with per-layer cost weighting: each node's
/// FLOPs are multiplied by `weight(&layer)` before aggregation (see
/// [`crate::line::LineDnn::from_graph_weighted`] for the rationale).
pub fn collapse_to_line_weighted(
    graph: &DnnGraph,
    weight: impl Fn(&crate::layer::LayerKind) -> f64,
) -> Result<crate::line::LineDnn, GraphError> {
    use crate::line::{LineDnn, LineLayer};

    let wflops = |id: NodeId| -> u64 {
        let node = graph.node(id);
        let w = weight(&node.layer);
        assert!(w > 0.0 && w.is_finite(), "weights must be positive");
        (node.flops as f64 * w).round() as u64
    };

    let chain = articulation_chain(graph);
    let Some((&source, rest)) = chain.split_first() else {
        return Err(GraphError::NoSource);
    };
    if rest.is_empty() {
        return Err(GraphError::NotLineStructure {
            node: graph.first_branch().unwrap_or(source),
        });
    }
    let dtype = graph.dtype();
    let input_bytes = graph.node(source).output.bytes(dtype);
    // FLOPs of source itself belong to no block (an Input node has 0
    // anyway; a compute source is charged to the first block).
    let mut layers = Vec::with_capacity(rest.len());
    let mut prev = source;
    let mut carried = wflops(source);
    for &exit in rest {
        let flops: u64 = ((prev.0 + 1)..=exit.0)
            .map(|i| wflops(NodeId(i)))
            .sum::<u64>()
            + std::mem::take(&mut carried);
        let nodes: Vec<NodeId> = ((prev.0 + 1)..=exit.0).map(NodeId).collect();
        layers.push(LineLayer {
            name: graph.node(exit).name.clone(),
            flops,
            out_bytes: graph.node(exit).output.bytes(dtype),
            nodes,
        });
        prev = exit;
    }
    Ok(LineDnn::from_parts(graph.name(), input_bytes, layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, LayerKind as L};
    use crate::tensor::TensorShape as S;

    /// The paper's Fig. 9(a): v0 -> v1 -> {v2, v3} -> v4 -> v7 and
    /// v0 -> v5 -> v6 -> v7.
    fn fig9() -> DnnGraph {
        let mut b = DnnGraph::builder("fig9");
        let v0 = b.input(S::chw(4, 8, 8));
        let relu = || L::Act(Activation::ReLU);
        let v1 = b.layer_after(v0, L::pointwise(4));
        let v2 = b.layer_after(v1, relu());
        let v3 = b.layer_after(v1, relu());
        let v4 = b.merge(&[v2, v3], L::Add);
        let v5 = b.layer_after(v0, L::pointwise(4));
        let v6 = b.layer_after(v5, relu());
        b.merge(&[v4, v6], L::Add);
        b.build().unwrap()
    }

    fn line() -> DnnGraph {
        let mut b = DnnGraph::builder("line");
        let i = b.input(S::chw(3, 16, 16));
        b.chain(i, [L::conv(4, 3, 1, 1), L::maxpool(2, 2), L::dense(10)]);
        b.build().unwrap()
    }

    #[test]
    fn fig9_has_three_paths() {
        let g = fig9();
        let pd = duplicate_to_multipath(&g).unwrap();
        // Paths: v0-v1-v2-v4-v7, v0-v1-v3-v4-v7, v0-v5-v6-v7 (ids remapped
        // by topo sort, so check counts and lengths).
        assert_eq!(pd.len(), 3);
        let mut lens: Vec<usize> = pd.paths.iter().map(Vec::len).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![4, 5, 5]);
    }

    #[test]
    fn fig9_duplication_multiplicity() {
        let g = fig9();
        let pd = duplicate_to_multipath(&g).unwrap();
        let source = g.sources()[0];
        let sink = g.sinks()[0];
        // Source and sink appear on all three paths (dup count 3).
        assert_eq!(pd.multiplicity(source), 3);
        assert_eq!(pd.multiplicity(sink), 3);
    }

    #[test]
    fn line_graph_single_path() {
        let g = line();
        let pd = duplicate_to_multipath(&g).unwrap();
        assert_eq!(pd.len(), 1);
        assert_eq!(pd.paths[0].len(), g.len());
    }

    #[test]
    fn articulation_chain_of_line_is_everything() {
        let g = line();
        let chain = articulation_chain(&g);
        assert_eq!(chain.len(), g.len());
    }

    #[test]
    fn articulation_chain_of_fig9_is_endpoints() {
        let g = fig9();
        let chain = articulation_chain(&g);
        // Only v0 (source) and v7 (sink) lie on all three paths.
        assert_eq!(chain, vec![g.sources()[0], g.sinks()[0]]);
    }

    #[test]
    fn diamond_articulation_includes_junction() {
        // input -> {a, b} -> concat -> dense: concat is an articulation.
        let mut b = DnnGraph::builder("d");
        let i = b.input(S::chw(8, 4, 4));
        let a = b.layer_after(i, L::pointwise(4));
        let c = b.layer_after(i, L::pointwise(4));
        let m = b.merge(&[a, c], L::Concat);
        let d = b.layer_after(m, L::dense(10));
        let g = b.build().unwrap();
        let chain = articulation_chain(&g);
        assert_eq!(chain, vec![i, m, d]);
    }

    #[test]
    fn segments_of_line_are_edges() {
        let g = line();
        let segs = segments(&g).unwrap();
        assert_eq!(segs.len(), g.len() - 1);
        assert!(segs.iter().all(Segment::is_line));
    }

    #[test]
    fn segments_of_diamond() {
        let mut b = DnnGraph::builder("d");
        let i = b.input(S::chw(8, 4, 4));
        let a = b.layer_after(i, L::pointwise(4));
        let c = b.layer_after(i, L::pointwise(4));
        let m = b.merge(&[a, c], L::Concat);
        b.layer_after(m, L::dense(10));
        let g = b.build().unwrap();
        let segs = segments(&g).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].paths.len(), 2); // the two branches
        assert!(segs[1].is_line()); // concat -> dense
    }

    #[test]
    fn collapse_to_line_of_line_matches_from_graph() {
        let g = line();
        let collapsed = collapse_to_line(&g).unwrap();
        let direct = crate::line::LineDnn::from_graph(&g).unwrap();
        assert_eq!(collapsed.k(), direct.k());
        assert_eq!(collapsed.input_bytes(), direct.input_bytes());
        for l in 1..=direct.k() {
            assert_eq!(collapsed.layer(l).flops, direct.layer(l).flops);
            assert_eq!(collapsed.layer(l).out_bytes, direct.layer(l).out_bytes);
        }
    }

    #[test]
    fn collapse_to_line_sums_branch_flops() {
        // input -> {a, b} -> concat -> dense.
        let mut b = DnnGraph::builder("d");
        let i = b.input(S::chw(8, 4, 4));
        let a = b.layer_after(i, L::pointwise(4));
        let c = b.layer_after(i, L::pointwise(4));
        let m = b.merge(&[a, c], L::Concat);
        b.layer_after(m, L::dense(10));
        let g = b.build().unwrap();
        let collapsed = collapse_to_line(&g).unwrap();
        // Two blocks: (input, concat] and (concat, dense].
        assert_eq!(collapsed.k(), 2);
        assert_eq!(collapsed.total_flops(), g.total_flops());
        assert_eq!(
            collapsed.layer(1).flops,
            g.node(a).flops + g.node(c).flops + g.node(m).flops
        );
        assert_eq!(collapsed.offload_bytes(1), g.node(m).output.bytes(g.dtype()));
    }

    #[test]
    fn collapse_rejects_no_separators() {
        // Two parallel disconnected chains: no common articulation nodes.
        let mut b = DnnGraph::builder("par");
        let i1 = b.input(S::flat(4));
        b.layer_after(i1, L::dense(2));
        let i2 = b.input(S::flat(4));
        b.layer_after(i2, L::dense(2));
        let g = b.build().unwrap();
        assert!(collapse_to_line(&g).is_err());
    }

    #[test]
    fn path_cap_enforced() {
        let g = fig9();
        assert!(decompose_into_paths(&g, 2).is_err());
        assert_eq!(decompose_into_paths(&g, 3).unwrap().len(), 3);
    }

    #[test]
    fn paths_are_topologically_ordered() {
        let g = fig9();
        for path in decompose_into_paths(&g, 100).unwrap() {
            for w in path.windows(2) {
                assert!(w[0] < w[1]);
                assert!(g.successors(w[0]).contains(&w[1]));
            }
        }
    }
}
