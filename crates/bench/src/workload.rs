//! Shared profile/model setup for the bench binaries.
//!
//! `planner_bench`, `frontier_bench` and `serve_bench` all measure
//! against the same reference platform (a Raspberry Pi 4 class device,
//! negligible cloud, 10 ms channel setup) and the same two workload
//! families — real zoo models and seeded synthetic monotone profiles.
//! This module is the single definition of that boilerplate so the
//! benches cannot drift apart on platform constants.

use mcdnn_graph::LineDnn;
use mcdnn_models::Model;
use mcdnn_partition::RateProfile;
use mcdnn_profile::{CloudModel, CostProfile, DeviceModel, NetworkModel};
use mcdnn_rng::Rng;

/// Channel setup latency every bench assumes, ms.
pub const SETUP_MS: f64 = 10.0;

/// The benches' reference mobile device.
pub(crate) fn mobile_device() -> DeviceModel {
    DeviceModel::raspberry_pi4()
}

/// One zoo model pinned to the reference platform: the line view plus
/// the device, from which both profile flavours derive.
pub struct ModelWorkload {
    /// The model's line view.
    pub line: LineDnn,
    /// The reference mobile device.
    pub mobile: DeviceModel,
    /// Channel setup latency, ms.
    pub setup_ms: f64,
}

impl ModelWorkload {
    /// Pin `model` to the reference platform. `None` when the model has
    /// no line view.
    pub fn zoo(model: Model, setup_ms: f64) -> Option<ModelWorkload> {
        Some(ModelWorkload {
            line: model.line().ok()?,
            mobile: mobile_device(),
            setup_ms,
        })
    }

    /// The bandwidth-parameterized profile (frontier compilation).
    pub fn rate_profile(&self) -> RateProfile {
        RateProfile::evaluate(&self.line, &self.mobile, &CloudModel::Negligible, self.setup_ms)
    }

    /// The concrete cost profile at bandwidth `b` Mbps (direct-planner
    /// baselines).
    pub fn cost_profile_at(&self, bandwidth_mbps: f64) -> CostProfile {
        CostProfile::evaluate(
            &self.line,
            &self.mobile,
            &NetworkModel::new(bandwidth_mbps, self.setup_ms),
            &CloudModel::Negligible,
        )
    }
}

/// Every zoo model's rate profile on the reference platform, keeping
/// only those the JPS theory admits (monotone clustered shape) — the
/// fleet the serving bench and equivalence tests draw users from.
pub fn monotone_zoo_rate_profiles(setup_ms: f64) -> Vec<RateProfile> {
    Model::ALL
        .iter()
        .filter_map(|&m| ModelWorkload::zoo(m, setup_ms))
        .map(|w| w.rate_profile())
        .filter(|p| p.check_monotone().is_ok())
        .collect()
}

/// Like [`monotone_zoo_rate_profiles`] but with the suffix costed on
/// the reference cloud GPU instead of an infinitely fast one — the
/// fleet the cloud-contention bench and equivalence tests draw tenants
/// from, since a finite server pool needs nonzero cloud work to
/// stretch.
pub fn monotone_zoo_cloud_rate_profiles(setup_ms: f64) -> Vec<RateProfile> {
    let cloud = CloudModel::Device(DeviceModel::cloud_gtx1080());
    Model::ALL
        .iter()
        .filter_map(|&m| ModelWorkload::zoo(m, setup_ms))
        .map(|w| RateProfile::evaluate(&w.line, &w.mobile, &cloud, w.setup_ms))
        .filter(|p| p.check_monotone().is_ok())
        .collect()
}

/// Monotone synthetic profile with `k + 1` cut points: `f` strictly
/// increasing from 0, `g` non-increasing to 0 — the shape real
/// mobile/uplink profiles take (Fig. 4 of the paper).
pub fn synthetic_profile(k: usize, seed: u64) -> CostProfile {
    let mut rng = Rng::seed_from_u64(seed);
    let mut f = Vec::with_capacity(k + 1);
    f.push(0.0);
    let mut acc = 0.0;
    for _ in 0..k {
        acc += rng.gen_range(0.5..3.0);
        f.push(acc);
    }
    let mut g = Vec::with_capacity(k + 1);
    let mut rem = acc * rng.gen_range(0.8..1.2);
    for _ in 0..k {
        g.push(rem);
        rem = (rem - rng.gen_range(0.5..3.0)).max(0.0);
    }
    g.push(0.0);
    CostProfile::from_vectors(format!("synthetic-k{k}"), f, g, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_profiles_are_monotone_and_plentiful() {
        let profiles = monotone_zoo_rate_profiles(SETUP_MS);
        assert!(profiles.len() >= 4, "the zoo must yield a real fleet");
        for p in &profiles {
            assert!(p.check_monotone().is_ok());
        }
    }

    #[test]
    fn synthetic_profile_shape() {
        let p = synthetic_profile(12, 7);
        assert_eq!(p.k(), 12);
        assert!(p.f_is_monotone() && p.g_is_monotone());
    }

    #[test]
    fn workload_profiles_agree() {
        let w = ModelWorkload::zoo(Model::AlexNet, SETUP_MS).unwrap();
        let rate = w.rate_profile();
        let direct = w.cost_profile_at(10.0);
        let rebuilt = rate.profile_at(10.0);
        assert_eq!(rebuilt.f_all(), direct.f_all());
        assert_eq!(rebuilt.g_all(), direct.g_all());
    }
}
