//! Algorithm 3: partition and scheduling for general-structure DNNs
//! (paper §5.3).
//!
//! The DAG is converted into independent source→sink paths (node
//! duplication, Fig. 9). Each path is partitioned individually with
//! Alg. 2; the union of per-path cut-points is the job's partition set
//! `P`. Duplicated nodes are counted once: we attribute each node's
//! compute cost to the first path containing it, and evaluate the final
//! `(f, g)` of `P` on the original graph (whose predecessor-closure
//! semantics dedup shared work exactly).
//!
//! Scheduling follows the paper's "modified Alg. 1": the `n × P` path
//! instances are treated as independent two-stage sub-jobs under
//! Johnson's rule — path A's upload overlaps path B's computation even
//! within one job — with shared nodes billed only at their first
//! appearance.

use mcdnn_flowshop::kernels::{johnson_blocks_makespan, uniform_makespan};
use mcdnn_graph::{
    cluster_virtual_blocks, collapse_to_line, decompose_into_paths, segments, DnnGraph,
    GraphError, LineDnn, LineLayer, NodeId,
};
use mcdnn_profile::{CloudModel, CostProfile, DeviceModel, NetworkModel};

use crate::alg2::binary_search_cut;
use crate::plan::{Plan, Strategy};

/// Result of planning a general-structure DNN.
#[derive(Debug, Clone)]
pub struct GeneralPlan {
    /// The per-job partition set: cut nodes in the original DAG.
    pub cut_nodes: Vec<NodeId>,
    /// Mobile computation stage of one job under the partition, ms.
    pub f_ms: f64,
    /// Communication stage of one job, ms.
    pub g_ms: f64,
    /// Number of independent paths considered.
    pub path_count: usize,
    /// Makespan of `n` jobs with whole jobs as scheduling units, ms.
    pub makespan_ms: f64,
    /// Makespan when the `n × P` path instances pipeline individually
    /// (the modified-Alg. 1 refinement); ≤ `makespan_ms`.
    pub path_pipelined_makespan_ms: f64,
    /// The line-view JPS plan used as the fallback/competitor.
    pub line_plan: Plan,
}

/// Build the (clustered) line view of one path with first-path cost
/// attribution.
///
/// `claimed[v]` is set once a node's FLOPs have been billed; later
/// paths see those nodes as free (they are computed once).
fn path_line(graph: &DnnGraph, path: &[NodeId], claimed: &mut [bool]) -> LineDnn {
    let dtype = graph.dtype();
    let (&src, rest) = path.split_first().expect("paths are non-empty");
    claimed[src.index()] = true;
    let layers: Vec<LineLayer> = rest
        .iter()
        .map(|&v| {
            let node = graph.node(v);
            let flops = if claimed[v.index()] { 0 } else { node.flops };
            claimed[v.index()] = true;
            LineLayer {
                name: node.name.clone(),
                flops,
                out_bytes: node.output.bytes(dtype),
                nodes: vec![v],
            }
        })
        .collect();
    LineDnn::from_parts(
        format!("{}/path", graph.name()),
        graph.node(src).output.bytes(dtype),
        layers,
    )
}

/// Per-path Alg. 2 cuts for a general DAG (paper Alg. 3, lines 3–5).
///
/// Returns one cut node per path: the node after which that path is
/// severed. A path cut at position 0 contributes the DAG source (that
/// path runs entirely on the cloud); a path cut at its end contributes
/// the path's sink (entirely local).
pub fn multipath_cuts(
    graph: &DnnGraph,
    mobile: &DeviceModel,
    network: &NetworkModel,
    path_cap: usize,
) -> Result<Vec<NodeId>, GraphError> {
    let paths = decompose_into_paths(graph, path_cap)?;
    let mut claimed = vec![false; graph.len()];
    let mut cuts = Vec::with_capacity(paths.len());
    for path in &paths {
        let line = path_line(graph, path, &mut claimed);
        let (clustered, _) = cluster_virtual_blocks(&line);
        let profile = CostProfile::evaluate(&clustered, mobile, network, &CloudModel::Negligible);
        let search = binary_search_cut(&profile);
        let cut_node = if search.l_star == 0 {
            path[0]
        } else {
            *clustered
                .layer(search.l_star)
                .nodes
                .last()
                .expect("clustered blocks carry node ids")
        };
        cuts.push(cut_node);
    }
    cuts.sort_unstable();
    cuts.dedup();
    Ok(cuts)
}

/// Evaluate the `(f, g)` of a partition set on the original graph.
fn eval_cut_set(
    graph: &DnnGraph,
    cuts: &[NodeId],
    mobile: &DeviceModel,
    network: &NetworkModel,
) -> (f64, f64) {
    let mobile_nodes = graph
        .mobile_side(cuts)
        .iter()
        .filter(|&&m| m)
        .count();
    let f = mobile.time_ms(graph.mobile_flops(cuts), mobile_nodes);
    let g = network.upload_ms(graph.offload_bytes(cuts));
    (f, g)
}

/// Makespan of `n` jobs when each path instance schedules independently
/// (modified Alg. 1): per path `p`, stage durations are the path's
/// attributed mobile compute up to its cut and the upload of its cut
/// tensor; Johnson's rule runs over all `n × P` instances.
fn path_pipelined_makespan(
    graph: &DnnGraph,
    paths: &[Vec<NodeId>],
    cuts: &[NodeId],
    n: usize,
    mobile: &DeviceModel,
    network: &NetworkModel,
) -> f64 {
    let dtype = graph.dtype();
    let on_mobile = graph.mobile_side(cuts);
    let mut claimed = vec![false; graph.len()];
    let mut stage_pairs: Vec<(f64, f64)> = Vec::with_capacity(paths.len());
    for path in paths {
        let mut flops = 0u64;
        let mut layers = 0usize;
        let mut upload_bytes = 0usize;
        for &v in path {
            if !on_mobile[v.index()] {
                continue;
            }
            if !claimed[v.index()] {
                claimed[v.index()] = true;
                flops += graph.node(v).flops;
                layers += 1;
                // Bill this node's upload to the first path that owns it.
                let crosses = graph.successors(v).iter().any(|s| !on_mobile[s.index()]);
                if crosses {
                    upload_bytes += graph.node(v).output.bytes(dtype);
                }
            }
        }
        stage_pairs.push((
            mobile.time_ms(flops, layers),
            network.upload_ms(upload_bytes),
        ));
    }
    // The n × P instances are n copies of each path type: P homogeneous
    // blocks of n jobs. The block kernel schedules them in Johnson
    // order in O(P log P), independent of n (Johnson's rule is
    // indifferent to order within a block, so the makespan is the same
    // as materializing all n × P instances).
    let blocks: Vec<(usize, f64, f64)> =
        stage_pairs.iter().map(|&(f, g)| (n, f, g)).collect();
    johnson_blocks_makespan(&blocks)
}

/// Per-segment refinement for DAGs whose whole-graph path count
/// explodes (GoogLeNet: 4⁹ paths). Every source→sink path factors
/// through the articulation chain, so branching is local to one
/// segment at a time; cutting *inside* one segment (with per-branch
/// cut-points) plus keeping everything before it on the mobile side
/// yields exactly the partitions the paper's Alg. 3 would consider,
/// enumerated segment by segment instead of globally.
///
/// Candidate generation: for each branching segment, run Alg. 2 on each
/// internal branch (restricted to the segment, costs continuing from
/// the segment entry) and take the union of per-branch cuts.
fn segment_refined_cuts(
    graph: &DnnGraph,
    mobile: &DeviceModel,
    network: &NetworkModel,
) -> Result<Vec<Vec<NodeId>>, GraphError> {
    let segs = segments(graph)?;
    let dtype = graph.dtype();
    let mut candidates = Vec::new();
    for seg in segs.iter().filter(|s| !s.is_line()) {
        // Mobile prefix time up to the segment entry.
        let entry_flops = graph.mobile_flops(&[seg.entry]);
        let entry_layers = graph
            .mobile_side(&[seg.entry])
            .iter()
            .filter(|&&m| m)
            .count();
        let base_f = mobile.time_ms(entry_flops, entry_layers);
        let mut claimed = vec![false; graph.len()];
        claimed[seg.entry.index()] = true;
        let mut cuts = Vec::new();
        for path in &seg.paths {
            // Build a line over this branch with first-path attribution;
            // seed the profile with the prefix compute as a virtual
            // input layer cost (added to every f below via base_f).
            let line = path_line(graph, path, &mut claimed);
            let (clustered, _) = cluster_virtual_blocks(&line);
            // Cutting this branch at c puts the whole prefix (through
            // the segment entry) plus the branch's first c blocks on
            // the mobile side, as the paper's per-path Alg. 2 does when
            // the path is taken from the source. f(0) stays 0 by the
            // CostProfile contract (cut-at-entry commits no extra work
            // beyond what is already fixed).
            let f: Vec<f64> = (0..=clustered.k())
                .map(|c| {
                    if c == 0 {
                        0.0
                    } else {
                        base_f + mobile.time_ms(clustered.mobile_flops(c), c)
                    }
                })
                .collect();
            let mut g: Vec<f64> = (0..=clustered.k())
                .map(|c| network.upload_ms(clustered.offload_bytes(c)))
                .collect();
            *g.last_mut().expect("non-empty") = 0.0;
            let profile = CostProfile::from_vectors("segpath", f, g, None);
            let search = binary_search_cut(&profile);
            let cut_node = if search.l_star == 0 {
                seg.entry
            } else {
                *clustered
                    .layer(search.l_star)
                    .nodes
                    .last()
                    .expect("clustered blocks carry node ids")
            };
            cuts.push(cut_node);
        }
        cuts.sort_unstable();
        cuts.dedup();
        candidates.push(cuts);
        let _ = dtype;
    }
    Ok(candidates)
}

/// Plan `n` jobs of a general-structure DNN (paper Alg. 3), comparing
/// the multi-path partition against the line-view JPS and keeping both
/// results. When whole-graph path enumeration exceeds `path_cap`
/// (GoogLeNet), falls back to per-segment refinement.
pub fn general_jps_plan(
    graph: &DnnGraph,
    n: usize,
    mobile: &DeviceModel,
    network: &NetworkModel,
    path_cap: usize,
) -> Result<GeneralPlan, GraphError> {
    // Line view: articulation collapse + clustering + JPS best mix.
    let collapsed = collapse_to_line(graph)?;
    let (clustered, _) = cluster_virtual_blocks(&collapsed);
    let line_profile =
        CostProfile::evaluate(&clustered, mobile, network, &CloudModel::Negligible);
    let line_plan = Strategy::JpsBestMix.plan(&line_profile, n);

    // Multi-path partition (Alg. 3 proper); per-segment refinement when
    // global path enumeration is infeasible.
    if decompose_into_paths(graph, path_cap).is_err() {
        let mut best_cuts: Option<(Vec<NodeId>, f64, f64, f64)> = None;
        for cuts in segment_refined_cuts(graph, mobile, network)? {
            let (f_ms, g_ms) = eval_cut_set(graph, &cuts, mobile, network);
            let span = uniform_makespan(n, f_ms, g_ms);
            if best_cuts.as_ref().is_none_or(|(_, _, _, b)| span < *b) {
                best_cuts = Some((cuts, f_ms, g_ms, span));
            }
        }
        let (cuts, f_ms, g_ms, span) = best_cuts.ok_or(GraphError::NoSource)?;
        let seg_count = segments(graph)?.iter().filter(|s| !s.is_line()).count();
        return Ok(GeneralPlan {
            cut_nodes: cuts,
            f_ms,
            g_ms,
            path_count: seg_count,
            makespan_ms: span,
            path_pipelined_makespan_ms: span,
            line_plan,
        });
    }

    let paths = decompose_into_paths(graph, path_cap)?;
    let cuts = multipath_cuts(graph, mobile, network, path_cap)?;
    let (f_ms, g_ms) = eval_cut_set(graph, &cuts, mobile, network);
    let makespan_ms = uniform_makespan(n, f_ms, g_ms);
    let path_pipelined_makespan_ms =
        path_pipelined_makespan(graph, &paths, &cuts, n, mobile, network);

    Ok(GeneralPlan {
        cut_nodes: cuts,
        f_ms,
        g_ms,
        path_count: paths.len(),
        makespan_ms,
        path_pipelined_makespan_ms,
        line_plan,
    })
}

impl GeneralPlan {
    /// The best makespan this planner achieved across its candidates.
    pub fn best_makespan_ms(&self) -> f64 {
        self.makespan_ms
            .min(self.path_pipelined_makespan_ms)
            .min(self.line_plan.makespan_ms)
    }

    /// Which candidate won: `"multipath"`, `"multipath+pipeline"` or
    /// `"line"`.
    pub fn winner(&self) -> &'static str {
        let best = self.best_makespan_ms();
        if (self.path_pipelined_makespan_ms - best).abs() < 1e-9 {
            if (self.makespan_ms - best).abs() < 1e-9 {
                "multipath"
            } else {
                "multipath+pipeline"
            }
        } else if (self.makespan_ms - best).abs() < 1e-9 {
            "multipath"
        } else {
            "line"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_graph::{Activation, DnnGraph, LayerKind as L, TensorShape as S};

    fn mobile() -> DeviceModel {
        DeviceModel::new("m", 1e9, 0.0)
    }

    fn network() -> NetworkModel {
        NetworkModel::new(8.0, 0.0) // 1 B = 1 µs
    }

    /// input -> {branch a (heavy), branch b (light)} -> concat -> dense.
    fn diamond() -> DnnGraph {
        let mut b = DnnGraph::builder("diamond");
        let i = b.input(S::chw(8, 32, 32));
        let a1 = b.layer_after(i, L::conv(16, 3, 1, 1));
        let a2 = b.layer_after(a1, L::maxpool(2, 2));
        let c1 = b.layer_after(i, L::pointwise(16));
        let c2 = b.layer_after(c1, L::maxpool(2, 2));
        let m = b.merge(&[a2, c2], L::Concat);
        b.layer_after(m, L::dense(10));
        b.build().unwrap()
    }

    #[test]
    fn multipath_cuts_are_valid_nodes() {
        let g = diamond();
        let cuts = multipath_cuts(&g, &mobile(), &network(), 64).unwrap();
        assert!(!cuts.is_empty());
        for c in &cuts {
            assert!(c.index() < g.len());
        }
    }

    #[test]
    fn general_plan_runs_on_diamond() {
        let g = diamond();
        let plan = general_jps_plan(&g, 8, &mobile(), &network(), 64).unwrap();
        assert_eq!(plan.path_count, 2);
        assert!(plan.f_ms >= 0.0 && plan.g_ms >= 0.0);
        assert!(plan.best_makespan_ms() > 0.0);
        assert!(plan.best_makespan_ms() <= plan.makespan_ms + 1e-9);
    }

    #[test]
    fn path_pipelining_never_hurts() {
        let g = diamond();
        let plan = general_jps_plan(&g, 5, &mobile(), &network(), 64).unwrap();
        assert!(
            plan.path_pipelined_makespan_ms <= plan.makespan_ms + 1e-9,
            "pipelined {} > whole-job {}",
            plan.path_pipelined_makespan_ms,
            plan.makespan_ms
        );
    }

    #[test]
    fn shared_nodes_counted_once() {
        // The source is on both paths; total attributed FLOPs across the
        // two path lines must equal the graph total.
        let g = diamond();
        let paths = decompose_into_paths(&g, 64).unwrap();
        let mut claimed = vec![false; g.len()];
        let total: u64 = paths
            .iter()
            .map(|p| path_line(&g, p, &mut claimed).total_flops())
            .sum();
        assert_eq!(total, g.total_flops());
    }

    #[test]
    fn fully_local_cut_set_has_zero_upload() {
        let g = diamond();
        let sink = g.sinks()[0];
        let (f, gg) = eval_cut_set(&g, &[sink], &mobile(), &network());
        assert_eq!(gg, 0.0);
        assert!(f > 0.0);
    }

    #[test]
    fn cloud_only_cut_set_uploads_input() {
        let g = diamond();
        let source = g.sources()[0];
        let (f, gg) = eval_cut_set(&g, &[source], &mobile(), &network());
        // Only the input node is "computed" (0 FLOPs) on mobile.
        assert_eq!(f, 0.0);
        let input_bytes = 8 * 32 * 32 * 4;
        assert!((gg - network().upload_ms(input_bytes)).abs() < 1e-9);
    }

    #[test]
    fn works_on_line_graphs_too() {
        let mut b = DnnGraph::builder("line");
        let i = b.input(S::chw(3, 16, 16));
        b.chain(
            i,
            [
                L::conv(8, 3, 1, 1),
                L::Act(Activation::ReLU),
                L::maxpool(2, 2),
                L::dense(10),
            ],
        );
        let g = b.build().unwrap();
        let plan = general_jps_plan(&g, 4, &mobile(), &network(), 16).unwrap();
        assert_eq!(plan.path_count, 1);
        // With one path the multipath plan and line plan agree closely.
        assert!(plan.best_makespan_ms() > 0.0);
    }
}
