//! The `(f, g)` cost profile of a line-structure DNN under a concrete
//! device + network configuration — the sole input to the paper's
//! partition and scheduling algorithms.

use mcdnn_graph::LineDnn;
use mcdnn_rng::{fnv_fold, FNV_OFFSET};

use crate::device::{CloudModel, DeviceModel};
use crate::network::NetworkModel;

/// Why a [`CostProfile`] could not be constructed.
///
/// Returned by [`CostProfile::try_new`]; the panicking
/// [`CostProfile::from_vectors`] wraps it and panics with its
/// [`Display`](std::fmt::Display) message, so both surfaces report the
/// same diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// No cut points at all (`f` was empty).
    Empty,
    /// `f` and `g` vectors disagree in length.
    LengthMismatch {
        /// Length of `f`.
        f: usize,
        /// Length of `g`.
        g: usize,
    },
    /// `cloud` vector disagrees in length with `f`.
    CloudLengthMismatch {
        /// Length of `f`.
        f: usize,
        /// Length of `cloud`.
        cloud: usize,
    },
    /// `f(0)` must be zero: cut 0 runs nothing on the mobile device.
    NonzeroF0 {
        /// The offending value.
        value: f64,
    },
    /// `g(k)` must be zero: the local-only cut uploads nothing.
    NonzeroTailG {
        /// The offending value.
        value: f64,
    },
    /// A stage time is NaN, infinite, or negative.
    NonFinite {
        /// Which vector (`"f"`, `"g"` or `"cloud"`).
        which: &'static str,
        /// Index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Empty => write!(fmt, "profile needs at least one cut"),
            ProfileError::LengthMismatch { f, g } => {
                write!(fmt, "f and g length mismatch ({f} vs {g})")
            }
            ProfileError::CloudLengthMismatch { f, cloud } => {
                write!(fmt, "cloud length mismatch ({f} vs {cloud})")
            }
            ProfileError::NonzeroF0 { value } => {
                write!(fmt, "f(0) must be 0 (nothing runs on mobile), got {value}")
            }
            ProfileError::NonzeroTailG { value } => {
                write!(fmt, "g(k) must be 0 (local-only uploads nothing), got {value}")
            }
            ProfileError::NonFinite { which, index, value } => write!(
                fmt,
                "stage times must be finite and >= 0: {which}[{index}] = {value}"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Stage durations for every cut point `l ∈ 0..=k` of one DNN:
///
/// * `f_ms[l]` — mobile computation time of layers `1..=l` (the paper's
///   `f(l)`); `f_ms[0] = 0`.
/// * `g_ms[l]` — upload time of the cut tensor (the paper's `g(l)`);
///   `g_ms[0]` uploads the raw input, `g_ms[k] = 0` (local-only).
/// * `cloud_ms[l]` — cloud computation time of layers `l+1..=k`;
///   all-zero under [`CloudModel::Negligible`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    name: String,
    f_ms: Vec<f64>,
    g_ms: Vec<f64>,
    cloud_ms: Vec<f64>,
}

impl CostProfile {
    /// Evaluate the cost profile of `line` on the given platform.
    pub fn evaluate(
        line: &LineDnn,
        mobile: &DeviceModel,
        network: &NetworkModel,
        cloud: &CloudModel,
    ) -> Self {
        let k = line.k();
        let mut f_ms = Vec::with_capacity(k + 1);
        let mut g_ms = Vec::with_capacity(k + 1);
        let mut cloud_ms = Vec::with_capacity(k + 1);
        for cut in 0..=k {
            f_ms.push(mobile.time_ms(line.mobile_flops(cut), cut));
            g_ms.push(network.upload_ms(line.offload_bytes(cut)));
            cloud_ms.push(cloud.time_ms(line.cloud_flops(cut), k - cut));
        }
        CostProfile {
            name: line.name().to_string(),
            f_ms,
            g_ms,
            cloud_ms,
        }
    }

    /// Build directly from stage vectors (synthetic workloads, tests).
    ///
    /// Panics unless `f[0] == 0`, `g[k] == 0`, lengths match, and all
    /// entries are finite and non-negative. Thin wrapper over
    /// [`CostProfile::try_new`] — prefer that in code that can report
    /// errors instead of aborting.
    pub fn from_vectors(
        name: impl Into<String>,
        f_ms: Vec<f64>,
        g_ms: Vec<f64>,
        cloud_ms: Option<Vec<f64>>,
    ) -> Self {
        Self::try_new(name, f_ms, g_ms, cloud_ms).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor from stage vectors.
    ///
    /// Validates the shape invariants every planner relies on and
    /// reports the first violation as a typed [`ProfileError`]:
    /// non-empty vectors of equal length, `f[0] == 0`, `g[k] == 0`, and
    /// every entry finite and non-negative. A missing `cloud_ms`
    /// defaults to all-zero (the paper's negligible-cloud regime).
    ///
    /// Monotonicity of `f`/`g` is deliberately *not* required here —
    /// non-clustered profiles are legal inputs to the uniform sweep;
    /// strategies that do need it check via [`CostProfile::f_is_monotone`]
    /// at planning time.
    pub fn try_new(
        name: impl Into<String>,
        f_ms: Vec<f64>,
        g_ms: Vec<f64>,
        cloud_ms: Option<Vec<f64>>,
    ) -> Result<Self, ProfileError> {
        if f_ms.is_empty() {
            return Err(ProfileError::Empty);
        }
        if f_ms.len() != g_ms.len() {
            return Err(ProfileError::LengthMismatch {
                f: f_ms.len(),
                g: g_ms.len(),
            });
        }
        let cloud_ms = cloud_ms.unwrap_or_else(|| vec![0.0; f_ms.len()]);
        if f_ms.len() != cloud_ms.len() {
            return Err(ProfileError::CloudLengthMismatch {
                f: f_ms.len(),
                cloud: cloud_ms.len(),
            });
        }
        if f_ms[0] != 0.0 {
            return Err(ProfileError::NonzeroF0 { value: f_ms[0] });
        }
        let tail_g = *g_ms.last().unwrap();
        if tail_g != 0.0 {
            return Err(ProfileError::NonzeroTailG { value: tail_g });
        }
        for (which, vec) in [("f", &f_ms), ("g", &g_ms), ("cloud", &cloud_ms)] {
            if let Some(index) = vec.iter().position(|v| !v.is_finite() || *v < 0.0) {
                return Err(ProfileError::NonFinite {
                    which,
                    index,
                    value: vec[index],
                });
            }
        }
        Ok(CostProfile {
            name: name.into(),
            f_ms,
            g_ms,
            cloud_ms,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers `k` (cuts range over `0..=k`).
    pub fn k(&self) -> usize {
        self.f_ms.len() - 1
    }

    /// Mobile computation time for cut `l`.
    #[inline]
    pub fn f(&self, cut: usize) -> f64 {
        self.f_ms[cut]
    }

    /// Upload time for cut `l`.
    #[inline]
    pub fn g(&self, cut: usize) -> f64 {
        self.g_ms[cut]
    }

    /// Cloud computation time for cut `l`.
    #[inline]
    pub fn cloud(&self, cut: usize) -> f64 {
        self.cloud_ms[cut]
    }

    /// `f` vector (length `k+1`).
    pub fn f_all(&self) -> &[f64] {
        &self.f_ms
    }

    /// `g` vector (length `k+1`).
    pub fn g_all(&self) -> &[f64] {
        &self.g_ms
    }

    /// Cloud vector (length `k+1`).
    pub fn cloud_all(&self) -> &[f64] {
        &self.cloud_ms
    }

    /// True when `f` is non-decreasing — guaranteed by construction for
    /// evaluated profiles, an assumption the theory needs for synthetic
    /// ones.
    pub fn f_is_monotone(&self) -> bool {
        self.f_ms.windows(2).all(|w| w[1] >= w[0] - 1e-12)
    }

    /// True when `g` is non-increasing over interior cuts `0..k`
    /// (the clustered-DNN property; `g(k) = 0` trivially continues it).
    pub fn g_is_monotone(&self) -> bool {
        self.g_ms.windows(2).all(|w| w[1] <= w[0] + 1e-12)
    }

    /// The paper's `l*`: the left-most cut with `f(l) ≥ g(l)`.
    ///
    /// Always exists because `f(k) ≥ 0 = g(k)`. Computed by linear scan;
    /// the partition crate provides the `O(log k)` binary search (Alg. 2)
    /// and tests it against this reference.
    pub fn l_star_linear(&self) -> usize {
        (0..=self.k())
            .find(|&l| self.f(l) >= self.g(l))
            .expect("f(k) >= 0 = g(k) guarantees existence")
    }

    /// Version stamp of this profile: generation 0 (a `CostProfile` is
    /// an immutable snapshot at one fixed bandwidth — re-estimation
    /// builds a *new* profile) plus an FNV-1a digest over the stage
    /// vectors. Two profiles with equal digests carry bit-identical
    /// `(f, g, cloud)` content; the name is deliberately excluded so
    /// renamed but identical workloads share a version.
    pub fn version(&self) -> crate::adapt::ProfileVersion {
        let mut h = fnv_fold(FNV_OFFSET, self.f_ms.len() as u64);
        for vec in [&self.f_ms, &self.g_ms, &self.cloud_ms] {
            for &v in vec.iter() {
                h = fnv_fold(h, v.to_bits());
            }
        }
        crate::adapt::ProfileVersion::base(h)
    }

    /// Local-only latency: run everything on the mobile device.
    pub fn local_only_ms(&self) -> f64 {
        self.f(self.k())
    }

    /// Cloud-only latency for one isolated job: upload the input and run
    /// everything remotely.
    pub fn cloud_only_ms(&self) -> f64 {
        self.g(0) + self.cloud(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_graph::{LineDnn, LineLayer};

    fn line() -> LineDnn {
        LineDnn::from_parts(
            "t",
            1_000_000,
            vec![
                LineLayer {
                    name: "a".into(),
                    flops: 2_000_000,
                    out_bytes: 500_000,
                    nodes: vec![],
                },
                LineLayer {
                    name: "b".into(),
                    flops: 2_000_000,
                    out_bytes: 100_000,
                    nodes: vec![],
                },
            ],
        )
    }

    #[test]
    fn evaluate_formulas() {
        let mobile = DeviceModel::new("m", 1e9, 0.0);
        let net = NetworkModel::new(8.0, 0.0); // 1 byte = 1 microsecond
        let p = CostProfile::evaluate(&line(), &mobile, &net, &CloudModel::Negligible);
        assert_eq!(p.k(), 2);
        assert_eq!(p.f_all(), &[0.0, 2.0, 4.0]);
        assert_eq!(p.g_all(), &[1000.0, 500.0, 0.0]);
        assert_eq!(p.cloud_all(), &[0.0; 3]);
    }

    #[test]
    fn cloud_model_fills_third_stage() {
        let mobile = DeviceModel::new("m", 1e9, 0.0);
        let net = NetworkModel::new(8.0, 0.0);
        let cloud = CloudModel::Device(DeviceModel::new("c", 2e9, 0.0));
        let p = CostProfile::evaluate(&line(), &mobile, &net, &cloud);
        assert_eq!(p.cloud_all(), &[2.0, 1.0, 0.0]);
        assert!((p.cloud_only_ms() - 1002.0).abs() < 1e-9);
    }

    #[test]
    fn monotonicity_detected() {
        let p = CostProfile::from_vectors(
            "s",
            vec![0.0, 1.0, 2.0],
            vec![10.0, 5.0, 0.0],
            None,
        );
        assert!(p.f_is_monotone());
        assert!(p.g_is_monotone());
        let bumpy = CostProfile::from_vectors(
            "b",
            vec![0.0, 1.0, 2.0],
            vec![10.0, 12.0, 0.0],
            None,
        );
        assert!(!bumpy.g_is_monotone());
    }

    #[test]
    fn l_star_linear_scan() {
        let p = CostProfile::from_vectors(
            "s",
            vec![0.0, 2.0, 4.0, 7.0, 9.0],
            vec![20.0, 8.0, 5.0, 2.0, 0.0],
            None,
        );
        // f: 0,2,4,7,9 vs g: 20,8,5,2,0 -> first f>=g at l=3 (7>=2).
        assert_eq!(p.l_star_linear(), 3);
    }

    #[test]
    fn l_star_can_be_zero() {
        // Blazing network: offloading immediately is already balanced.
        let p = CostProfile::from_vectors("s", vec![0.0, 5.0], vec![0.0, 0.0], None);
        assert_eq!(p.l_star_linear(), 0);
    }

    #[test]
    fn extremes() {
        let p = CostProfile::from_vectors(
            "s",
            vec![0.0, 3.0, 8.0],
            vec![10.0, 4.0, 0.0],
            None,
        );
        assert_eq!(p.local_only_ms(), 8.0);
        assert_eq!(p.cloud_only_ms(), 10.0);
    }

    #[test]
    #[should_panic(expected = "f(0) must be 0")]
    fn nonzero_f0_rejected() {
        CostProfile::from_vectors("s", vec![1.0, 2.0], vec![5.0, 0.0], None);
    }

    #[test]
    #[should_panic(expected = "g(k) must be 0")]
    fn nonzero_gk_rejected() {
        CostProfile::from_vectors("s", vec![0.0, 2.0], vec![5.0, 1.0], None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        CostProfile::from_vectors("s", vec![0.0, f64::NAN], vec![5.0, 0.0], None);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            CostProfile::try_new("s", vec![], vec![], None).unwrap_err(),
            ProfileError::Empty
        );
        assert_eq!(
            CostProfile::try_new("s", vec![0.0, 1.0], vec![0.0], None).unwrap_err(),
            ProfileError::LengthMismatch { f: 2, g: 1 }
        );
        assert_eq!(
            CostProfile::try_new("s", vec![0.0, 1.0], vec![5.0, 0.0], Some(vec![0.0]))
                .unwrap_err(),
            ProfileError::CloudLengthMismatch { f: 2, cloud: 1 }
        );
        assert_eq!(
            CostProfile::try_new("s", vec![1.0, 2.0], vec![5.0, 0.0], None).unwrap_err(),
            ProfileError::NonzeroF0 { value: 1.0 }
        );
        assert_eq!(
            CostProfile::try_new("s", vec![0.0, 2.0], vec![5.0, 1.0], None).unwrap_err(),
            ProfileError::NonzeroTailG { value: 1.0 }
        );
        match CostProfile::try_new("s", vec![0.0, -3.0], vec![5.0, 0.0], None) {
            Err(ProfileError::NonFinite { which: "f", index: 1, .. }) => {}
            other => panic!("expected NonFinite for f[1], got {other:?}"),
        }
        // Display messages keep the historical panic substrings.
        assert!(ProfileError::Empty.to_string().contains("at least one cut"));
        assert!(ProfileError::NonzeroF0 { value: 1.0 }
            .to_string()
            .contains("f(0) must be 0"));
    }

    #[test]
    fn version_digests_content_not_name() {
        let a = CostProfile::from_vectors("a", vec![0.0, 2.0], vec![5.0, 0.0], None);
        let b = CostProfile::from_vectors("b", vec![0.0, 2.0], vec![5.0, 0.0], None);
        let c = CostProfile::from_vectors("a", vec![0.0, 3.0], vec![5.0, 0.0], None);
        assert_eq!(a.version(), b.version(), "name excluded from the digest");
        assert_ne!(a.version(), c.version(), "content folded into the digest");
        assert_eq!(a.version().generation, 0);
    }

    #[test]
    fn try_new_accepts_valid_profiles() {
        let p = CostProfile::try_new("ok", vec![0.0, 2.0], vec![5.0, 0.0], None).unwrap();
        assert_eq!(p.k(), 1);
        assert_eq!(p.cloud_all(), &[0.0, 0.0]);
    }
}
