//! Inception-v4 building blocks (Szegedy et al. 2017), mirroring the
//! paper's Fig. 3(a): the Inception-C module with asymmetric 1×3 / 3×1
//! convolution splits. Used as a compact general-structure test subject
//! for Alg. 3 — its DAG matches the figure's shape exactly.

use mcdnn_graph::{
    Activation, DnnGraph, GraphBuilder, LayerKind as L, NodeId, PoolKind, TensorShape,
};

/// Asymmetric 1×3 / 3×1 conv, modelled with a square 3×3 kernel.
///
/// The layer model uses square kernels; the true op has kernel area 3
/// rather than 9, so this over-counts its MACs ~3×. Orientation and the
/// exact constant are irrelevant to partitioning behaviour — this module
/// exists as a DAG-*shape* test subject matching paper Fig. 3(a) — and
/// shapes (which drive offload volumes) are exact.
fn conv_1x3_like(out_channels: usize) -> L {
    L::conv(out_channels, 3, 1, 1)
}

/// Append an Inception-C style module (paper Fig. 3(a)); returns the
/// final `Filter Concat` node.
pub(crate) fn inception_c(b: &mut GraphBuilder, input: NodeId) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    // Branch 1: avg pool -> 1x1 conv.
    let b1 = b.chain(
        input,
        [
            L::Pool2d {
                kind: PoolKind::Avg,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            L::conv(256, 1, 1, 0),
            relu(),
        ],
    );
    // Branch 2: 1x1 conv.
    let b2 = b.chain(input, [L::conv(256, 1, 1, 0), relu()]);
    // Branch 3: 1x1 -> split into 1x3 and 3x1 -> inner concat.
    let s3 = b.chain(input, [L::conv(384, 1, 1, 0), relu()]);
    let b3a = b.chain(s3, [conv_1x3_like(255), relu()]);
    let b3b = b.chain(s3, [conv_1x3_like(255), relu()]);
    let b3 = b.merge(&[b3a, b3b], L::Concat);
    // Branch 4: 1x1 -> 1x3 -> 3x1 -> split into 1x3 / 3x1 -> concat.
    let s4 = b.chain(
        input,
        [
            L::conv(384, 1, 1, 0),
            relu(),
            conv_1x3_like(448),
            relu(),
            conv_1x3_like(512),
            relu(),
        ],
    );
    let b4a = b.chain(s4, [conv_1x3_like(255), relu()]);
    let b4b = b.chain(s4, [conv_1x3_like(255), relu()]);
    let b4 = b.merge(&[b4a, b4b], L::Concat);
    b.merge(&[b1, b2, b3, b4], L::Concat)
}

/// A small general-structure network: stem conv + one Inception-C module
/// + classifier. The DAG shape matches paper Fig. 3(a).
pub fn inception_c_network() -> DnnGraph {
    let mut b = DnnGraph::builder("inception_c_net");
    let relu = || L::Act(Activation::ReLU);
    let i = b.input(TensorShape::chw(3, 64, 64));
    let stem = b.chain(
        i,
        [
            L::Conv2d {
                out_channels: 1024,
                kernel: 3,
                stride: 8,
                padding: 1,
                groups: 1,
                bias: true,
            },
            relu(),
        ],
    );
    let module = inception_c(&mut b, stem);
    b.chain(module, [L::GlobalAvgPool, L::Flatten, L::dense(1000)]);
    b.build().expect("inception-c network is valid")
}

/// Append an Inception-A module (35×35 grid, 384 channels in/out).
fn inception_a(b: &mut GraphBuilder, input: NodeId) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    let b1 = b.chain(
        input,
        [
            L::Pool2d {
                kind: PoolKind::Avg,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            L::conv(96, 1, 1, 0),
            relu(),
        ],
    );
    let b2 = b.chain(input, [L::conv(96, 1, 1, 0), relu()]);
    let b3 = b.chain(
        input,
        [L::conv(64, 1, 1, 0), relu(), L::conv(96, 3, 1, 1), relu()],
    );
    let b4 = b.chain(
        input,
        [
            L::conv(64, 1, 1, 0),
            relu(),
            L::conv(96, 3, 1, 1),
            relu(),
            L::conv(96, 3, 1, 1),
            relu(),
        ],
    );
    b.merge(&[b1, b2, b3, b4], L::Concat)
}

/// Append a Reduction-A module (35×35 → 17×17).
fn reduction_a(b: &mut GraphBuilder, input: NodeId) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    let b1 = b.layer_after(
        input,
        L::Pool2d {
            kind: PoolKind::Max,
            kernel: 3,
            stride: 2,
            padding: 0,
        },
    );
    let b2 = b.chain(input, [L::conv(384, 3, 2, 0), relu()]);
    let b3 = b.chain(
        input,
        [
            L::conv(192, 1, 1, 0),
            relu(),
            L::conv(224, 3, 1, 1),
            relu(),
            L::conv(256, 3, 2, 0),
            relu(),
        ],
    );
    b.merge(&[b1, b2, b3], L::Concat)
}

/// Append an Inception-B module (17×17 grid, 1024 channels in/out;
/// asymmetric 1×7 / 7×1 convs modelled as in [`inception_c`]).
fn inception_b(b: &mut GraphBuilder, input: NodeId) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    // 1×7-equivalent: same spatial size, 7-tap kernel area abstracted.
    let conv_1x7 = |out| L::conv(out, 3, 1, 1);
    let b1 = b.chain(
        input,
        [
            L::Pool2d {
                kind: PoolKind::Avg,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            L::conv(128, 1, 1, 0),
            relu(),
        ],
    );
    let b2 = b.chain(input, [L::conv(384, 1, 1, 0), relu()]);
    let b3 = b.chain(
        input,
        [
            L::conv(192, 1, 1, 0),
            relu(),
            conv_1x7(224),
            relu(),
            conv_1x7(256),
            relu(),
        ],
    );
    let b4 = b.chain(
        input,
        [
            L::conv(192, 1, 1, 0),
            relu(),
            conv_1x7(192),
            relu(),
            conv_1x7(224),
            relu(),
            conv_1x7(224),
            relu(),
            conv_1x7(256),
            relu(),
        ],
    );
    b.merge(&[b1, b2, b3, b4], L::Concat)
}

/// Append a Reduction-B module (17×17 → 8×8).
fn reduction_b(b: &mut GraphBuilder, input: NodeId) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    let b1 = b.layer_after(
        input,
        L::Pool2d {
            kind: PoolKind::Max,
            kernel: 3,
            stride: 2,
            padding: 0,
        },
    );
    let b2 = b.chain(
        input,
        [L::conv(192, 1, 1, 0), relu(), L::conv(192, 3, 2, 0), relu()],
    );
    let b3 = b.chain(
        input,
        [
            L::conv(256, 1, 1, 0),
            relu(),
            L::conv(320, 3, 1, 1),
            relu(),
            L::conv(320, 3, 2, 0),
            relu(),
        ],
    );
    b.merge(&[b1, b2, b3], L::Concat)
}

/// Build the full Inception-v4 DAG: simplified stem (single-path),
/// 4 × Inception-A, Reduction-A, 7 × Inception-B, Reduction-B,
/// 3 × Inception-C, global pooling and the classifier — the paper's
/// Fig. 3(a) network at full depth.
///
/// The reference stem contains two small internal branches; we use the
/// single-path equivalent (same output shape `[384, 35, 35]`, matching
/// aggregate compute) so the stem stays a clean articulation chain —
/// branch handling is exercised by the 14 inception/reduction modules.
pub(crate) fn inception_v4() -> DnnGraph {
    let mut b = DnnGraph::builder("inception_v4");
    let relu = || L::Act(Activation::ReLU);
    let i = b.input(TensorShape::chw(3, 299, 299));
    let mut prev = b.chain(
        i,
        [
            L::conv(32, 3, 2, 0),
            relu(),
            L::conv(32, 3, 1, 0),
            relu(),
            L::conv(64, 3, 1, 1),
            relu(),
            L::maxpool(3, 2),
            L::conv(96, 1, 1, 0),
            relu(),
            L::conv(192, 3, 1, 0),
            relu(),
            L::maxpool(3, 2),
            L::conv(384, 1, 1, 0),
            relu(),
        ],
    );
    for _ in 0..4 {
        prev = inception_a(&mut b, prev);
    }
    prev = reduction_a(&mut b, prev);
    for _ in 0..7 {
        prev = inception_b(&mut b, prev);
    }
    prev = reduction_b(&mut b, prev);
    for _ in 0..3 {
        prev = inception_c(&mut b, prev);
    }
    b.chain(
        prev,
        [L::GlobalAvgPool, L::Flatten, L::Dropout, L::dense(1000)],
    );
    b.build().expect("inception_v4 definition is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_graph::{decompose_into_paths, segments};

    #[test]
    fn module_is_general_structure() {
        assert!(!inception_c_network().is_line_structure());
    }

    #[test]
    fn concat_output_channels() {
        // 256 + 256 + (255+255) + (255+255) = 1532 channels.
        let g = inception_c_network();
        assert!(g
            .nodes()
            .iter()
            .any(|n| n.output.channels() == 1532 && n.output.is_spatial()));
    }

    #[test]
    fn path_structure_matches_fig3a() {
        let g = inception_c_network();
        // Branches: 1 + 1 + 2 + 2 = 6 root-to-sink paths.
        let paths = decompose_into_paths(&g, 100).unwrap();
        assert_eq!(paths.len(), 6);
    }

    #[test]
    fn module_is_one_segment() {
        let g = inception_c_network();
        let segs = segments(&g).unwrap();
        let branching: Vec<_> = segs.iter().filter(|s| !s.is_line()).collect();
        assert_eq!(branching.len(), 1);
        assert_eq!(branching[0].paths.len(), 6);
    }

    #[test]
    fn inception_v4_builds_with_reference_grid() {
        let g = inception_v4();
        assert!(!g.is_line_structure());
        // Canonical grid checkpoints: 384×35×35, 1024×17×17, 1536×8×8.
        for (c, s) in [(384, 35), (1024, 17), (1536, 8)] {
            assert!(
                g.nodes().iter().any(|n| n.output == TensorShape::chw(c, s, s)),
                "missing grid [{c}, {s}, {s}]"
            );
        }
        let sink = g.sinks()[0];
        assert_eq!(g.node(sink).output, TensorShape::flat(1000));
    }

    #[test]
    fn inception_v4_module_count() {
        let g = inception_v4();
        let segs = segments(&g).unwrap();
        let branching = segs.iter().filter(|s| !s.is_line()).count();
        // 4×A + reduction-A + 7×B + reduction-B + 3×C = 16 modules.
        assert_eq!(branching, 16);
    }

    #[test]
    fn inception_v4_magnitudes() {
        let g = inception_v4();
        // Reference ≈ 24.6 GFLOPs / 42.7 M params; our 1×7→3×3
        // abstraction replaces 7-tap line kernels with 9-tap squares
        // (over- or under-counting per module), so bands are broad but
        // the order of magnitude must hold.
        let gflops = g.total_flops() as f64 / 1e9;
        assert!((10.0..40.0).contains(&gflops), "v4 FLOPs {gflops} GF");
        let mparams = g.total_params() as f64 / 1e6;
        assert!((20.0..75.0).contains(&mparams), "v4 params {mparams} M");
    }

    #[test]
    fn inception_v4_plans_end_to_end() {
        use mcdnn_graph::{cluster_virtual_blocks, collapse_to_line};
        let g = inception_v4();
        let line = collapse_to_line(&g).unwrap();
        let (clustered, _) = cluster_virtual_blocks(&line);
        assert_eq!(clustered.total_flops(), g.total_flops());
        assert!(mcdnn_graph::cluster::is_strictly_decreasing_volume(&clustered));
    }
}
