//! Tensor shapes and element types.
//!
//! Edge weights in the paper's DAG are communication volumes: the byte
//! size of the tensor flowing between two layers. We therefore track the
//! exact shape of every intermediate tensor so the profile crate can turn
//! it into a communication time.

use std::fmt;

/// Element type of a tensor.
///
/// The paper's prototype serialises `float32` PyTorch tensors; quantised
/// deployments commonly use `f16`/`i8`, which scale the offloading volume
/// and therefore shift the optimal cut — so the type is explicit here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit IEEE float (PyTorch default, used in the paper).
    #[default]
    F32,
    /// 16-bit float.
    F16,
    /// 8-bit integer (quantised inference).
    I8,
    /// 64-bit float.
    F64,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::I8 => 1,
            DType::F64 => 8,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::I8 => "i8",
            DType::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// Shape of a tensor flowing along a DAG edge.
///
/// Convolutional feature maps are `CHW` (channels, height, width) as in
/// the paper's Fig. 10 annotations (e.g. `[144, 56, 56]`); dense-layer
/// activations are flat vectors. Batch dimension is implicit: the paper
/// schedules single-image inference jobs, so batch is always 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorShape {
    /// Feature map: channels × height × width.
    Chw {
        /// Number of channels.
        c: usize,
        /// Spatial height.
        h: usize,
        /// Spatial width.
        w: usize,
    },
    /// Flat activation vector of the given length.
    Flat(usize),
}

impl TensorShape {
    /// A `CHW` feature map shape.
    #[inline]
    pub const fn chw(c: usize, h: usize, w: usize) -> Self {
        TensorShape::Chw { c, h, w }
    }

    /// A flat vector shape.
    #[inline]
    pub const fn flat(n: usize) -> Self {
        TensorShape::Flat(n)
    }

    /// Number of scalar elements in the tensor.
    #[inline]
    pub const fn elements(&self) -> usize {
        match *self {
            TensorShape::Chw { c, h, w } => c * h * w,
            TensorShape::Flat(n) => n,
        }
    }

    /// Serialized size in bytes for the given element type.
    ///
    /// This is the DAG edge weight: the offloading volume if the DNN is
    /// cut on this edge.
    #[inline]
    pub const fn bytes(&self, dtype: DType) -> usize {
        self.elements() * dtype.bytes()
    }

    /// Channel count (`c` for CHW, the full length for flat vectors).
    #[inline]
    pub const fn channels(&self) -> usize {
        match *self {
            TensorShape::Chw { c, .. } => c,
            TensorShape::Flat(n) => n,
        }
    }

    /// Spatial dimensions `(h, w)`; flat vectors are `(1, 1)`.
    #[inline]
    pub const fn spatial(&self) -> (usize, usize) {
        match *self {
            TensorShape::Chw { h, w, .. } => (h, w),
            TensorShape::Flat(_) => (1, 1),
        }
    }

    /// Flatten a feature map into a vector shape of the same element count.
    #[inline]
    pub(crate) const fn flattened(&self) -> TensorShape {
        TensorShape::Flat(self.elements())
    }

    /// True when the tensor has spatial structure (CHW).
    #[inline]
    pub const fn is_spatial(&self) -> bool {
        matches!(self, TensorShape::Chw { .. })
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TensorShape::Chw { c, h, w } => write!(f, "[{c}, {h}, {w}]"),
            TensorShape::Flat(n) => write!(f, "[{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::F16.bytes(), 2);
        assert_eq!(DType::I8.bytes(), 1);
        assert_eq!(DType::F64.bytes(), 8);
    }

    #[test]
    fn chw_elements_and_bytes() {
        let s = TensorShape::chw(144, 56, 56);
        assert_eq!(s.elements(), 144 * 56 * 56);
        assert_eq!(s.bytes(DType::F32), 144 * 56 * 56 * 4);
        assert_eq!(s.bytes(DType::I8), 144 * 56 * 56);
    }

    #[test]
    fn flat_elements() {
        let s = TensorShape::flat(4096);
        assert_eq!(s.elements(), 4096);
        assert_eq!(s.channels(), 4096);
        assert_eq!(s.spatial(), (1, 1));
        assert!(!s.is_spatial());
    }

    #[test]
    fn flatten_preserves_count() {
        let s = TensorShape::chw(256, 6, 6);
        assert_eq!(s.flattened(), TensorShape::flat(256 * 6 * 6));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(TensorShape::chw(24, 56, 56).to_string(), "[24, 56, 56]");
        assert_eq!(TensorShape::flat(1000).to_string(), "[1000]");
    }
}
