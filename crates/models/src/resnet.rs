//! ResNet-18 (He et al.), evaluated in the paper's Figs. 12, 14 and
//! Table 1. Residual bypass links make it a general-structure DAG; like
//! MobileNet-v2, its basic blocks cluster into virtual blocks (interior
//! tensors never shrink below the block boundary), so [`line()`] collapses
//! it onto the articulation chain.

use mcdnn_graph::{
    cluster_virtual_blocks, collapse_to_line, Activation, DnnGraph, GraphError, LayerKind as L,
    LineDnn, NodeId, PoolKind, TensorShape,
};

/// Append one BasicBlock (two 3×3 convs + identity/projection shortcut).
fn basic_block(
    b: &mut mcdnn_graph::GraphBuilder,
    input: NodeId,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    let main = b.chain(
        input,
        [
            L::Conv2d {
                out_channels: out_ch,
                kernel: 3,
                stride,
                padding: 1,
                groups: 1,
                bias: false,
            },
            L::BatchNorm,
            relu(),
            L::Conv2d {
                out_channels: out_ch,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
                bias: false,
            },
            L::BatchNorm,
        ],
    );
    let shortcut = if stride != 1 || in_ch != out_ch {
        b.chain(
            input,
            [
                L::Conv2d {
                    out_channels: out_ch,
                    kernel: 1,
                    stride,
                    padding: 0,
                    groups: 1,
                    bias: false,
                },
                L::BatchNorm,
            ],
        )
    } else {
        input
    };
    let sum = b.merge(&[main, shortcut], L::Add);
    b.layer_after(sum, relu())
}

/// Append one Bottleneck block (1×1 reduce → 3×3 → 1×1 expand ×4),
/// used by ResNet-50 and deeper.
fn bottleneck_block(
    b: &mut mcdnn_graph::GraphBuilder,
    input: NodeId,
    in_ch: usize,
    mid_ch: usize,
    stride: usize,
) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    let out_ch = mid_ch * 4;
    let main = b.chain(
        input,
        [
            L::Conv2d {
                out_channels: mid_ch,
                kernel: 1,
                stride: 1,
                padding: 0,
                groups: 1,
                bias: false,
            },
            L::BatchNorm,
            relu(),
            L::Conv2d {
                out_channels: mid_ch,
                kernel: 3,
                stride,
                padding: 1,
                groups: 1,
                bias: false,
            },
            L::BatchNorm,
            relu(),
            L::Conv2d {
                out_channels: out_ch,
                kernel: 1,
                stride: 1,
                padding: 0,
                groups: 1,
                bias: false,
            },
            L::BatchNorm,
        ],
    );
    let shortcut = if stride != 1 || in_ch != out_ch {
        b.chain(
            input,
            [
                L::Conv2d {
                    out_channels: out_ch,
                    kernel: 1,
                    stride,
                    padding: 0,
                    groups: 1,
                    bias: false,
                },
                L::BatchNorm,
            ],
        )
    } else {
        input
    };
    let sum = b.merge(&[main, shortcut], L::Add);
    b.layer_after(sum, relu())
}

/// Shared stem: 7×7/2 conv + BN + ReLU + 3×3/2 max pool.
fn stem(b: &mut mcdnn_graph::GraphBuilder) -> NodeId {
    let relu = || L::Act(Activation::ReLU);
    let i = b.input(TensorShape::chw(3, 224, 224));
    b.chain(
        i,
        [
            L::Conv2d {
                out_channels: 64,
                kernel: 7,
                stride: 2,
                padding: 3,
                groups: 1,
                bias: false,
            },
            L::BatchNorm,
            relu(),
            L::Pool2d {
                kind: PoolKind::Max,
                kernel: 3,
                stride: 2,
                padding: 1,
            },
        ],
    )
}

/// Generic basic-block ResNet (18/34) given per-stage repeat counts.
fn basic_resnet(name: &str, repeats: [usize; 4]) -> DnnGraph {
    let mut b = DnnGraph::builder(name);
    let mut prev = stem(&mut b);
    let mut in_ch = 64usize;
    for (stage, (out_ch, stride)) in [(64, 1), (128, 2), (256, 2), (512, 2)].into_iter().enumerate()
    {
        for rep in 0..repeats[stage] {
            let s = if rep == 0 { stride } else { 1 };
            prev = basic_block(&mut b, prev, in_ch, out_ch, s);
            in_ch = out_ch;
        }
    }
    b.chain(prev, [L::GlobalAvgPool, L::Flatten, L::dense(1000)]);
    b.build().expect("resnet definition is valid")
}

/// Build the ResNet-18 DAG.
pub fn graph() -> DnnGraph {
    basic_resnet("resnet18", [2, 2, 2, 2])
}

/// Build the ResNet-34 DAG.
pub(crate) fn graph34() -> DnnGraph {
    basic_resnet("resnet34", [3, 4, 6, 3])
}

/// Build the ResNet-50 DAG (bottleneck blocks).
pub(crate) fn graph50() -> DnnGraph {
    let mut b = DnnGraph::builder("resnet50");
    let mut prev = stem(&mut b);
    let mut in_ch = 64usize;
    for (stage, (mid_ch, stride)) in [(64, 1), (128, 2), (256, 2), (512, 2)].into_iter().enumerate()
    {
        let repeats = [3usize, 4, 6, 3][stage];
        for rep in 0..repeats {
            let s = if rep == 0 { stride } else { 1 };
            prev = bottleneck_block(&mut b, prev, in_ch, mid_ch, s);
            in_ch = mid_ch * 4;
        }
    }
    b.chain(prev, [L::GlobalAvgPool, L::Flatten, L::dense(1000)]);
    b.build().expect("resnet50 definition is valid")
}

/// ResNet-18 as a line DNN (articulation collapse + clustering).
pub fn line() -> Result<LineDnn, GraphError> {
    let collapsed = collapse_to_line(&graph())?;
    let (clustered, _) = cluster_virtual_blocks(&collapsed);
    Ok(clustered.with_name("resnet18"))
}

/// ResNet-34 as a line DNN.
pub(crate) fn line34() -> Result<LineDnn, GraphError> {
    let collapsed = collapse_to_line(&graph34())?;
    let (clustered, _) = cluster_virtual_blocks(&collapsed);
    Ok(clustered.with_name("resnet34"))
}

/// ResNet-50 as a line DNN.
pub(crate) fn line50() -> Result<LineDnn, GraphError> {
    let collapsed = collapse_to_line(&graph50())?;
    let (clustered, _) = cluster_virtual_blocks(&collapsed);
    Ok(clustered.with_name("resnet50"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_general_structure() {
        assert!(!graph().is_line_structure());
    }

    #[test]
    fn parameter_count_matches_torchvision() {
        // torchvision resnet18: 11,689,512 parameters.
        assert_eq!(graph().total_params(), 11_689_512);
    }

    #[test]
    fn flops_magnitude() {
        // ~1.8 GMACs = ~3.6 GFLOPs.
        let gflops = graph().total_flops() as f64 / 1e9;
        assert!(
            (3.4..4.0).contains(&gflops),
            "ResNet18 FLOPs {gflops} GF out of band"
        );
    }

    #[test]
    fn stage_shapes() {
        let g = graph();
        for (c, s) in [(64, 56), (128, 28), (256, 14), (512, 7)] {
            assert!(
                g.nodes().iter().any(|n| n.output == TensorShape::chw(c, s, s)),
                "missing stage output [{c}, {s}, {s}]"
            );
        }
    }

    #[test]
    fn line_view_properties() {
        let l = line().unwrap();
        assert!(mcdnn_graph::cluster::is_strictly_decreasing_volume(&l));
        assert_eq!(l.total_flops(), graph().total_flops());
    }

    #[test]
    fn resnet34_parameter_count_matches_torchvision() {
        // torchvision resnet34: 21,797,672 parameters.
        assert_eq!(graph34().total_params(), 21_797_672);
    }

    #[test]
    fn resnet50_parameter_count_matches_torchvision() {
        // torchvision resnet50: 25,557,032 parameters.
        assert_eq!(graph50().total_params(), 25_557_032);
    }

    #[test]
    fn resnet50_flops_magnitude() {
        // ~4.1 GMACs = ~8.2 GFLOPs.
        let gflops = graph50().total_flops() as f64 / 1e9;
        assert!(
            (7.5..9.0).contains(&gflops),
            "ResNet50 FLOPs {gflops} GF out of band"
        );
    }

    #[test]
    fn deeper_resnets_line_views_hold() {
        for line in [line34().unwrap(), line50().unwrap()] {
            assert!(mcdnn_graph::cluster::is_strictly_decreasing_volume(&line));
            assert!(line.k() >= 3);
        }
        assert_eq!(line34().unwrap().total_flops(), graph34().total_flops());
        assert_eq!(line50().unwrap().total_flops(), graph50().total_flops());
    }

    #[test]
    fn bottleneck_expands_channels_4x() {
        let g = graph50();
        // Stage outputs: 256, 512, 1024, 2048 channels.
        for (c, s) in [(256, 56), (512, 28), (1024, 14), (2048, 7)] {
            assert!(
                g.nodes().iter().any(|n| n.output == TensorShape::chw(c, s, s)),
                "missing bottleneck stage output [{c}, {s}, {s}]"
            );
        }
    }

    #[test]
    fn resnet_intermediate_volumes_are_large() {
        // The paper notes ResNet barely benefits at 3G because even its
        // deep intermediate tensors are big. Its smallest conv-stage
        // boundary (512×7×7×4 ≈ 100 KB) exceeds AlexNet's pool5 (36 KB).
        let l = line().unwrap();
        // Cut right before the classifier head: the last spatial tensor.
        let mut spatial_min = usize::MAX;
        for cut in 1..l.k() {
            let v = l.offload_bytes(cut);
            if v > 4096 {
                spatial_min = spatial_min.min(v);
            }
        }
        assert!(spatial_min >= 90_000, "got {spatial_min}");
    }
}
