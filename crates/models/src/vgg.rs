//! VGG-16 (Simonyan & Zisserman), cited by the paper as a canonical
//! line-structure DNN (§3.1).

use mcdnn_graph::{Activation, DnnGraph, GraphError, LayerKind as L, LineDnn, NodeId, TensorShape};

/// VGG-16 configuration "D": conv channel plan per stage.
const STAGES_D: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];

/// VGG-19 configuration "E".
const STAGES_E: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 4), (512, 4), (512, 4)];

/// Build the VGG-16 DAG (line structure).
pub fn graph() -> DnnGraph {
    build("vgg16", &STAGES_D)
}

/// Build the VGG-19 DAG (line structure).
pub(crate) fn graph19() -> DnnGraph {
    build("vgg19", &STAGES_E)
}

fn build(name: &str, stages: &[(usize, usize); 5]) -> DnnGraph {
    let mut b = DnnGraph::builder(name);
    let relu = || L::Act(Activation::ReLU);
    let mut prev: NodeId = b.input(TensorShape::chw(3, 224, 224));
    for &(channels, convs) in stages {
        for _ in 0..convs {
            prev = b.chain(prev, [L::conv(channels, 3, 1, 1), relu()]);
        }
        prev = b.layer_after(prev, L::maxpool(2, 2));
    }
    b.chain(
        prev,
        [
            L::Flatten,
            L::dense(4096),
            relu(),
            L::Dropout,
            L::dense(4096),
            relu(),
            L::Dropout,
            L::dense(1000),
        ],
    );
    b.build().expect("vgg definition is valid")
}

/// VGG-16 as a line DNN.
pub fn line() -> Result<LineDnn, GraphError> {
    LineDnn::from_graph(&graph())
}

/// VGG-19 as a line DNN.
pub(crate) fn line19() -> Result<LineDnn, GraphError> {
    LineDnn::from_graph(&graph19())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_line_structure() {
        assert!(graph().is_line_structure());
    }

    #[test]
    fn parameter_count_matches_reference() {
        // VGG-16: 138,357,544 parameters.
        assert_eq!(graph().total_params(), 138_357_544);
    }

    #[test]
    fn flops_magnitude() {
        // ~15.5 GMACs = ~31 GFLOPs.
        let gflops = graph().total_flops() as f64 / 1e9;
        assert!(
            (29.0..33.0).contains(&gflops),
            "VGG16 FLOPs {gflops} GF out of band"
        );
    }

    #[test]
    fn vgg19_parameter_count_matches_reference() {
        // VGG-19: 143,667,240 parameters.
        assert_eq!(graph19().total_params(), 143_667_240);
    }

    #[test]
    fn vgg19_is_deeper_than_vgg16() {
        assert!(graph19().len() > graph().len());
        assert!(graph19().total_flops() > graph().total_flops());
        assert!(graph19().is_line_structure());
    }

    #[test]
    fn final_pool_shape() {
        let g = graph();
        assert!(g
            .nodes()
            .iter()
            .any(|n| n.output == TensorShape::chw(512, 7, 7)));
    }
}
