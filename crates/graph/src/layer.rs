//! Layer taxonomy with shape inference, parameter counts and FLOP counts.
//!
//! The partition/scheduling algorithms never look inside a layer — they
//! only need (a) the byte size of each layer's output tensor (offloading
//! volume if the cut is placed after the layer) and (b) a compute cost.
//! FLOP counts are the standard architecture-independent compute measure;
//! the profile crate converts them into device-specific time.
//!
//! FLOP conventions follow the usual literature accounting: one
//! multiply-accumulate = 2 FLOPs for conv/dense; pooling, activations and
//! element-wise ops cost ~1 FLOP per output (or per window element for
//! pooling).

use crate::tensor::TensorShape;

/// Activation function applied element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit.
    ReLU,
    /// ReLU clipped at 6 (MobileNet family).
    ReLU6,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// Pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// One DNN layer (a DAG node payload).
///
/// Shape inference (`LayerKind::infer_shape`) maps input shape(s) to the
/// output shape; [`LayerKind::flops`] and [`LayerKind::params`] give the
/// compute and weight volume given the *input* shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Network input placeholder carrying the image tensor shape.
    Input {
        /// Shape of the input tensor (e.g. `[3, 224, 224]`).
        shape: TensorShape,
    },
    /// 2-D convolution.
    Conv2d {
        /// Output channel count.
        out_channels: usize,
        /// Square kernel side length.
        kernel: usize,
        /// Stride (same in both spatial dims).
        stride: usize,
        /// Zero padding on each side.
        padding: usize,
        /// Channel groups; `groups == in_channels` is a depthwise conv.
        groups: usize,
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// Spatial pooling.
    Pool2d {
        /// Max or average.
        kind: PoolKind,
        /// Square window side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Global average pooling: collapses `[C, H, W]` to `[C, 1, 1]`.
    GlobalAvgPool,
    /// Fully-connected layer over a flattened input.
    Dense {
        /// Output feature count.
        out_features: usize,
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// Element-wise activation.
    Act(Activation),
    /// Batch normalization (2 params per channel at inference).
    BatchNorm,
    /// Local response normalization (AlexNet-era).
    Lrn,
    /// Dropout — identity at inference time, zero cost, kept so model
    /// definitions can mirror published architectures.
    Dropout,
    /// Flatten `[C, H, W]` into `[C*H*W]`.
    Flatten,
    /// Channel concatenation of ≥ 2 feature maps (Inception `Filter
    /// Concat`, paper Fig. 3(a)).
    Concat,
    /// Element-wise addition of ≥ 2 identically-shaped tensors (residual
    /// bypass links, paper Fig. 10).
    Add,
    /// Softmax over a flat vector.
    Softmax,
}

/// Broad execution-efficiency class of a layer, for device models that
/// do not execute all layer kinds at the same FLOP rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Dense GEMM-like work (full convolutions, fully-connected): runs
    /// near the device's peak FLOP rate.
    DenseCompute,
    /// Grouped/depthwise convolutions: memory-bound, far below peak on
    /// CPUs (the classic MobileNet-on-ARM effect).
    Depthwise,
    /// Element-wise / pooling / normalization: bandwidth-bound, cheap
    /// in FLOPs but not *that* cheap in time.
    MemoryBound,
}

impl LayerKind {
    /// The execution-efficiency class of this layer (see [`CostClass`]).
    pub fn cost_class(&self) -> CostClass {
        match self {
            LayerKind::Conv2d { groups, .. } if *groups > 1 => CostClass::Depthwise,
            LayerKind::Conv2d { .. } | LayerKind::Dense { .. } => CostClass::DenseCompute,
            _ => CostClass::MemoryBound,
        }
    }

    /// Number of input tensors the layer consumes.
    ///
    /// `Some(n)` for fixed arity; `None` for variadic layers
    /// ([`LayerKind::Concat`], [`LayerKind::Add`]) which require ≥ 2.
    pub(crate) fn arity(&self) -> Option<usize> {
        match self {
            LayerKind::Input { .. } => Some(0),
            LayerKind::Concat | LayerKind::Add => None,
            _ => Some(1),
        }
    }

    /// Infer the output shape from the input shapes.
    ///
    /// Returns `Err(reason)` with a human-readable message when the input
    /// is incompatible; the graph layer wraps it into
    /// [`crate::GraphError::ShapeMismatch`].
    pub(crate) fn infer_shape(&self, inputs: &[TensorShape]) -> Result<TensorShape, String> {
        match self {
            LayerKind::Input { shape } => {
                if inputs.is_empty() {
                    Ok(*shape)
                } else {
                    Err(format!("input layer takes no inputs, got {}", inputs.len()))
                }
            }
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                ..
            } => {
                let one = expect_one(inputs)?;
                let TensorShape::Chw { c, h, w } = one else {
                    return Err(format!("conv2d requires a CHW input, got {one}"));
                };
                if c % groups != 0 {
                    return Err(format!("in_channels {c} not divisible by groups {groups}"));
                }
                if out_channels % groups != 0 {
                    return Err(format!(
                        "out_channels {out_channels} not divisible by groups {groups}"
                    ));
                }
                let oh = conv_out(h, *kernel, *stride, *padding)?;
                let ow = conv_out(w, *kernel, *stride, *padding)?;
                Ok(TensorShape::chw(*out_channels, oh, ow))
            }
            LayerKind::Pool2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                let one = expect_one(inputs)?;
                let TensorShape::Chw { c, h, w } = one else {
                    return Err(format!("pool2d requires a CHW input, got {one}"));
                };
                let oh = conv_out(h, *kernel, *stride, *padding)?;
                let ow = conv_out(w, *kernel, *stride, *padding)?;
                Ok(TensorShape::chw(c, oh, ow))
            }
            LayerKind::GlobalAvgPool => {
                let one = expect_one(inputs)?;
                let TensorShape::Chw { c, .. } = one else {
                    return Err(format!("global avg pool requires a CHW input, got {one}"));
                };
                Ok(TensorShape::chw(c, 1, 1))
            }
            LayerKind::Dense { out_features, .. } => {
                let one = expect_one(inputs)?;
                // Dense layers implicitly flatten spatial inputs, matching
                // framework behaviour when a Flatten node is omitted.
                let _ = one.elements();
                Ok(TensorShape::flat(*out_features))
            }
            LayerKind::Act(_)
            | LayerKind::BatchNorm
            | LayerKind::Lrn
            | LayerKind::Dropout
            | LayerKind::Softmax => Ok(expect_one(inputs)?),
            LayerKind::Flatten => Ok(expect_one(inputs)?.flattened()),
            LayerKind::Concat => {
                if inputs.len() < 2 {
                    return Err(format!("concat requires >= 2 inputs, got {}", inputs.len()));
                }
                let (h0, w0) = inputs[0].spatial();
                let mut c_total = 0usize;
                for s in inputs {
                    let TensorShape::Chw { c, h, w } = *s else {
                        return Err(format!("concat requires CHW inputs, got {s}"));
                    };
                    if (h, w) != (h0, w0) {
                        return Err(format!(
                            "concat spatial mismatch: [{h}, {w}] vs [{h0}, {w0}]"
                        ));
                    }
                    c_total += c;
                }
                Ok(TensorShape::chw(c_total, h0, w0))
            }
            LayerKind::Add => {
                if inputs.len() < 2 {
                    return Err(format!("add requires >= 2 inputs, got {}", inputs.len()));
                }
                let first = inputs[0];
                for s in &inputs[1..] {
                    if *s != first {
                        return Err(format!("add shape mismatch: {s} vs {first}"));
                    }
                }
                Ok(first)
            }
        }
    }

    /// Trainable parameter count given the input shape(s).
    pub fn params(&self, inputs: &[TensorShape]) -> usize {
        match self {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                groups,
                bias,
                ..
            } => {
                let c_in = inputs.first().map_or(0, TensorShape::channels);
                let weights = (c_in / groups) * out_channels * kernel * kernel;
                weights + if *bias { *out_channels } else { 0 }
            }
            LayerKind::Dense { out_features, bias } => {
                let n_in = inputs.first().map_or(0, TensorShape::elements);
                n_in * out_features + if *bias { *out_features } else { 0 }
            }
            LayerKind::BatchNorm => {
                // scale + shift per channel (running stats folded in).
                2 * inputs.first().map_or(0, TensorShape::channels)
            }
            _ => 0,
        }
    }

    /// Floating-point operation count given the input shape(s).
    ///
    /// Uses the 1 MAC = 2 FLOPs convention; cheap element-wise layers
    /// count 1 FLOP per element so their (small but real) cost is visible
    /// to the device model.
    pub fn flops(&self, inputs: &[TensorShape]) -> u64 {
        let out = match self.infer_shape(inputs) {
            Ok(s) => s,
            Err(_) => return 0,
        };
        match self {
            LayerKind::Input { .. } | LayerKind::Dropout => 0,
            LayerKind::Conv2d {
                out_channels,
                kernel,
                groups,
                bias,
                ..
            } => {
                let c_in = inputs[0].channels();
                let (oh, ow) = out.spatial();
                let macs = (c_in / groups) as u64
                    * *out_channels as u64
                    * (*kernel as u64).pow(2)
                    * oh as u64
                    * ow as u64;
                2 * macs + if *bias { out.elements() as u64 } else { 0 }
            }
            LayerKind::Pool2d { kernel, .. } => {
                out.elements() as u64 * (*kernel as u64).pow(2)
            }
            LayerKind::GlobalAvgPool => inputs[0].elements() as u64,
            LayerKind::Dense { out_features, bias } => {
                let n_in = inputs[0].elements() as u64;
                2 * n_in * *out_features as u64
                    + if *bias { *out_features as u64 } else { 0 }
            }
            LayerKind::Act(_) | LayerKind::Flatten => out.elements() as u64,
            // Inference-time batchnorm is a fused scale+shift: 2 FLOPs/elt.
            LayerKind::BatchNorm => 2 * out.elements() as u64,
            // LRN reads a 5-channel neighbourhood per output element.
            LayerKind::Lrn => 5 * out.elements() as u64,
            LayerKind::Concat => 0, // pure memory movement
            LayerKind::Add => {
                out.elements() as u64 * (inputs.len() as u64 - 1)
            }
            // exp + sum + div per element ≈ 3 FLOPs.
            LayerKind::Softmax => 3 * out.elements() as u64,
        }
    }

    /// Short lowercase name used in graph dumps and DOT output.
    pub fn name(&self) -> &'static str {
        match self {
            LayerKind::Input { .. } => "input",
            LayerKind::Conv2d { groups, .. } if *groups > 1 => "conv_grouped",
            LayerKind::Conv2d { .. } => "conv",
            LayerKind::Pool2d {
                kind: PoolKind::Max,
                ..
            } => "maxpool",
            LayerKind::Pool2d {
                kind: PoolKind::Avg,
                ..
            } => "avgpool",
            LayerKind::GlobalAvgPool => "gavgpool",
            LayerKind::Dense { .. } => "dense",
            LayerKind::Act(Activation::ReLU) => "relu",
            LayerKind::Act(Activation::ReLU6) => "relu6",
            LayerKind::Act(Activation::Sigmoid) => "sigmoid",
            LayerKind::Act(Activation::Tanh) => "tanh",
            LayerKind::BatchNorm => "batchnorm",
            LayerKind::Lrn => "lrn",
            LayerKind::Dropout => "dropout",
            LayerKind::Flatten => "flatten",
            LayerKind::Concat => "concat",
            LayerKind::Add => "add",
            LayerKind::Softmax => "softmax",
        }
    }

    /// Convenience: a standard conv with bias, groups = 1.
    pub fn conv(out_channels: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        LayerKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
            groups: 1,
            bias: true,
        }
    }

    /// Convenience: a 1×1 "pointwise" conv (no bias, as used before BN).
    pub fn pointwise(out_channels: usize) -> Self {
        LayerKind::Conv2d {
            out_channels,
            kernel: 1,
            stride: 1,
            padding: 0,
            groups: 1,
            bias: false,
        }
    }

    /// Convenience: a depthwise conv over `channels` channels.
    pub fn depthwise(channels: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        LayerKind::Conv2d {
            out_channels: channels,
            kernel,
            stride,
            padding,
            groups: channels,
            bias: false,
        }
    }

    /// Convenience: max pooling.
    pub fn maxpool(kernel: usize, stride: usize) -> Self {
        LayerKind::Pool2d {
            kind: PoolKind::Max,
            kernel,
            stride,
            padding: 0,
        }
    }

    /// Convenience: dense with bias.
    pub fn dense(out_features: usize) -> Self {
        LayerKind::Dense {
            out_features,
            bias: true,
        }
    }
}

/// Floor-division output size of a conv/pool window sweep.
fn conv_out(input: usize, kernel: usize, stride: usize, padding: usize) -> Result<usize, String> {
    if stride == 0 {
        return Err("stride must be >= 1".to_string());
    }
    if kernel == 0 {
        return Err("kernel must be >= 1".to_string());
    }
    let padded = input + 2 * padding;
    if padded < kernel {
        return Err(format!(
            "kernel {kernel} larger than padded input {padded} ({input}+2*{padding})"
        ));
    }
    Ok((padded - kernel) / stride + 1)
}

fn expect_one(inputs: &[TensorShape]) -> Result<TensorShape, String> {
    match inputs {
        [one] => Ok(*one),
        _ => Err(format!("expected exactly 1 input, got {}", inputs.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorShape as S;

    #[test]
    fn conv_output_size_alexnet_first_layer() {
        // AlexNet conv1: 96 kernels 11x11 stride 4 on 227x227x3 -> 55x55x96.
        let conv = LayerKind::conv(96, 11, 4, 0);
        let out = conv.infer_shape(&[S::chw(3, 227, 227)]).unwrap();
        assert_eq!(out, S::chw(96, 55, 55));
    }

    #[test]
    fn conv_with_padding() {
        // 3x3 stride 1 pad 1 preserves spatial dims.
        let conv = LayerKind::conv(64, 3, 1, 1);
        let out = conv.infer_shape(&[S::chw(3, 224, 224)]).unwrap();
        assert_eq!(out, S::chw(64, 224, 224));
    }

    #[test]
    fn depthwise_conv_shapes_and_params() {
        let dw = LayerKind::depthwise(144, 3, 1, 1);
        let input = S::chw(144, 56, 56);
        assert_eq!(dw.infer_shape(&[input]).unwrap(), S::chw(144, 56, 56));
        // Depthwise params: 1 * k*k per channel.
        assert_eq!(dw.params(&[input]), 144 * 9);
    }

    #[test]
    fn conv_flops_macs_convention() {
        // 1x1 conv, 8 in channels, 16 out, 10x10 spatial, no bias:
        // MACs = 8*16*1*1*10*10 = 12800, FLOPs = 25600.
        let c = LayerKind::pointwise(16);
        assert_eq!(c.flops(&[S::chw(8, 10, 10)]), 25_600);
    }

    #[test]
    fn grouped_conv_divides_flops() {
        let full = LayerKind::Conv2d {
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
            bias: false,
        };
        let grouped = LayerKind::Conv2d {
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 4,
            bias: false,
        };
        let input = S::chw(32, 14, 14);
        assert_eq!(full.flops(&[input]), 4 * grouped.flops(&[input]));
    }

    #[test]
    fn pooling_shrinks_output() {
        let p = LayerKind::maxpool(3, 2);
        let out = p.infer_shape(&[S::chw(96, 55, 55)]).unwrap();
        assert_eq!(out, S::chw(96, 27, 27));
    }

    #[test]
    fn global_avg_pool_collapses_spatial() {
        let g = LayerKind::GlobalAvgPool;
        assert_eq!(
            g.infer_shape(&[S::chw(1024, 7, 7)]).unwrap(),
            S::chw(1024, 1, 1)
        );
    }

    #[test]
    fn dense_flattens_implicitly() {
        let d = LayerKind::dense(4096);
        let out = d.infer_shape(&[S::chw(256, 6, 6)]).unwrap();
        assert_eq!(out, S::flat(4096));
        assert_eq!(d.params(&[S::chw(256, 6, 6)]), 256 * 6 * 6 * 4096 + 4096);
    }

    #[test]
    fn dense_flops() {
        let d = LayerKind::Dense {
            out_features: 10,
            bias: false,
        };
        assert_eq!(d.flops(&[S::flat(100)]), 2 * 100 * 10);
    }

    #[test]
    fn concat_sums_channels() {
        let c = LayerKind::Concat;
        let out = c
            .infer_shape(&[S::chw(64, 28, 28), S::chw(96, 28, 28), S::chw(32, 28, 28)])
            .unwrap();
        assert_eq!(out, S::chw(192, 28, 28));
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let c = LayerKind::Concat;
        assert!(c
            .infer_shape(&[S::chw(64, 28, 28), S::chw(96, 27, 27)])
            .is_err());
    }

    #[test]
    fn concat_rejects_single_input() {
        assert!(LayerKind::Concat.infer_shape(&[S::chw(64, 28, 28)]).is_err());
    }

    #[test]
    fn add_requires_identical_shapes() {
        let a = LayerKind::Add;
        assert_eq!(
            a.infer_shape(&[S::chw(24, 56, 56), S::chw(24, 56, 56)])
                .unwrap(),
            S::chw(24, 56, 56)
        );
        assert!(a
            .infer_shape(&[S::chw(24, 56, 56), S::chw(25, 56, 56)])
            .is_err());
    }

    #[test]
    fn elementwise_layers_preserve_shape() {
        let input = S::chw(256, 13, 13);
        for k in [
            LayerKind::Act(Activation::ReLU),
            LayerKind::BatchNorm,
            LayerKind::Lrn,
            LayerKind::Dropout,
        ] {
            assert_eq!(k.infer_shape(&[input]).unwrap(), input);
        }
    }

    #[test]
    fn flatten_shape() {
        assert_eq!(
            LayerKind::Flatten.infer_shape(&[S::chw(256, 6, 6)]).unwrap(),
            S::flat(9216)
        );
    }

    #[test]
    fn kernel_larger_than_input_is_error() {
        let conv = LayerKind::conv(8, 7, 1, 0);
        assert!(conv.infer_shape(&[S::chw(3, 5, 5)]).is_err());
    }

    #[test]
    fn zero_stride_is_error() {
        let conv = LayerKind::conv(8, 3, 0, 0);
        assert!(conv.infer_shape(&[S::chw(3, 16, 16)]).is_err());
    }

    #[test]
    fn conv_rejects_flat_input() {
        assert!(LayerKind::conv(8, 3, 1, 0).infer_shape(&[S::flat(100)]).is_err());
    }

    #[test]
    fn arity() {
        assert_eq!(LayerKind::Concat.arity(), None);
        assert_eq!(LayerKind::Add.arity(), None);
        assert_eq!(LayerKind::conv(1, 1, 1, 0).arity(), Some(1));
        assert_eq!(
            LayerKind::Input {
                shape: S::flat(1)
            }
            .arity(),
            Some(0)
        );
    }

    #[test]
    fn input_layer_zero_flops() {
        let inp = LayerKind::Input {
            shape: S::chw(3, 224, 224),
        };
        assert_eq!(inp.flops(&[]), 0);
        assert_eq!(inp.infer_shape(&[]).unwrap(), S::chw(3, 224, 224));
    }

    #[test]
    fn batchnorm_params_per_channel() {
        assert_eq!(LayerKind::BatchNorm.params(&[S::chw(64, 10, 10)]), 128);
    }
}
