//! # mcdnn-profile
//!
//! Cost models that turn a DNN's structure into the paper's two stage
//! duration functions: `f(l)` — mobile computation time up to cut `l` —
//! and `g(l)` — time to upload the cut tensor. The paper estimates these
//! with a pre-built lookup table (local compute is stable) and a linear
//! regression over message-size/bandwidth ratio (communication); both
//! are reproduced here (§6.1).
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The paper profiles a physical Raspberry Pi 4 and a GTX1080 PC. We
//! replace the hardware with an analytic model: effective sustained
//! FLOP/s plus a fixed per-layer overhead, calibrated so AlexNet's
//! mobile times land in the magnitude band of the paper's Fig. 4 and so
//! that cloud-only at 3G costs > 4 s (the paper reports exactly that).
//! Everything downstream consumes only the resulting `(f, g)` vectors,
//! whose *shape* — increasing ≈linear `f`, decreasing ≈convex `g` — is
//! inherited from the true layer FLOPs and tensor sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod cost;
pub mod device;
pub mod energy;
pub mod lookup;
pub mod measure;
pub mod network;
pub mod regression;

pub use adapt::{AdaptConfig, ProfileEstimator};
pub use cost::{CostProfile, ProfileError};
pub use device::{CloudModel, DeviceModel};
pub use energy::EnergyModel;
pub use lookup::LookupTable;
pub use network::NetworkModel;
pub use regression::LinearRegression;
