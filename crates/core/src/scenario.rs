//! High-level planning API: a model + platform = a [`Scenario`] you can
//! plan against with any strategy.

use std::time::{Duration, Instant};

use mcdnn_graph::LineDnn;
use mcdnn_models::Model;
use mcdnn_partition::{Plan, PlanError, Strategy};
use mcdnn_profile::{CloudModel, CostProfile, DeviceModel, NetworkModel};

/// A plan together with the time the planner itself took — the paper's
/// Fig. 12(d) "JPS overhead".
#[derive(Debug, Clone)]
pub struct TimedPlan {
    /// The produced plan.
    pub plan: Plan,
    /// Wall-clock time the planning decision took.
    pub decision_time: Duration,
}

/// A concrete planning situation: one DNN on one mobile/network/cloud
/// platform.
#[derive(Debug, Clone)]
pub struct Scenario {
    line: LineDnn,
    mobile: DeviceModel,
    network: NetworkModel,
    cloud: CloudModel,
    profile: CostProfile,
}

impl Scenario {
    /// Build a scenario from an explicit line DNN and platform models.
    pub fn new(
        line: LineDnn,
        mobile: DeviceModel,
        network: NetworkModel,
        cloud: CloudModel,
    ) -> Self {
        let profile = CostProfile::evaluate(&line, &mobile, &network, &cloud);
        Scenario {
            line,
            mobile,
            network,
            cloud,
            profile,
        }
    }

    /// The paper's default platform: Raspberry Pi 4 mobile device, a
    /// GTX1080-class cloud (negligible in the 2-stage reduction but
    /// carried for auditing), and the given network.
    pub fn paper_default(model: Model, network: NetworkModel) -> Self {
        let line = model.line().expect("zoo models have line views");
        Scenario::new(
            line,
            DeviceModel::raspberry_pi4(),
            network,
            CloudModel::Device(DeviceModel::cloud_gtx1080()),
        )
    }

    /// Same scenario at a different network.
    pub(crate) fn with_network(&self, network: NetworkModel) -> Self {
        Scenario::new(
            self.line.clone(),
            self.mobile.clone(),
            network,
            self.cloud.clone(),
        )
    }

    /// The line DNN being planned.
    pub fn line(&self) -> &LineDnn {
        &self.line
    }

    /// The mobile device model.
    pub fn mobile(&self) -> &DeviceModel {
        &self.mobile
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The derived `(f, g)` cost profile.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// Plan `n` jobs with the given strategy.
    ///
    /// Panics on infeasible inputs (oversized brute force); use
    /// [`Scenario::try_plan`] to receive those as values instead.
    pub fn plan(&self, strategy: Strategy, n: usize) -> Plan {
        strategy.plan(&self.profile, n)
    }

    /// Plan `n` jobs, reporting infeasibility as a [`PlanError`]
    /// instead of panicking (see [`Strategy::try_plan`]).
    pub fn try_plan(&self, strategy: Strategy, n: usize) -> Result<Plan, PlanError> {
        strategy.try_plan(&self.profile, n)
    }

    /// Plan and measure the decision overhead (Fig. 12(d)).
    pub fn plan_timed(&self, strategy: Strategy, n: usize) -> TimedPlan {
        let start = Instant::now();
        let plan = self.plan(strategy, n);
        TimedPlan {
            plan,
            decision_time: start.elapsed(),
        }
    }

    /// Plan `n` jobs with every listed strategy.
    pub fn compare(&self, n: usize, strategies: &[Strategy]) -> Vec<Plan> {
        strategies.iter().map(|&s| self.plan(s, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_builds_for_all_models() {
        for m in Model::ALL {
            let s = Scenario::paper_default(m, NetworkModel::wifi());
            assert!(s.profile().k() >= 1, "{m}");
            assert!(s.profile().f_is_monotone(), "{m}: f not monotone");
            assert!(s.profile().g_is_monotone(), "{m}: g not monotone");
        }
    }

    #[test]
    fn jps_never_loses_to_po_lo_co() {
        for m in Model::EVALUATED {
            for net in [
                NetworkModel::three_g(),
                NetworkModel::four_g(),
                NetworkModel::wifi(),
            ] {
                let s = Scenario::paper_default(m, net);
                let n = 20;
                let jps = s.plan(Strategy::JpsBestMix, n).makespan_ms;
                for other in [
                    Strategy::LocalOnly,
                    Strategy::CloudOnly,
                    Strategy::PartitionOnly,
                ] {
                    let o = s.plan(other, n).makespan_ms;
                    assert!(
                        jps <= o + 1e-6,
                        "{m} at {} Mbps: JPS {jps} > {other:?} {o}",
                        s.network().bandwidth_mbps
                    );
                }
            }
        }
    }

    #[test]
    fn decision_overhead_is_small() {
        // Fig. 12(d): planning must be negligible next to inference.
        let s = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
        let timed = s.plan_timed(Strategy::Jps, 100);
        assert!(
            timed.decision_time < Duration::from_millis(10),
            "JPS decision took {:?}",
            timed.decision_time
        );
        assert_eq!(timed.plan.n(), 100);
    }

    #[test]
    fn with_network_reprofiles() {
        let wifi = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
        let slow = wifi.with_network(NetworkModel::three_g());
        assert!(slow.profile().g(0) > wifi.profile().g(0));
        assert_eq!(slow.profile().f(3), wifi.profile().f(3));
    }

    #[test]
    fn try_plan_reports_oversized_brute_force() {
        let s = Scenario::paper_default(Model::AlexNet, NetworkModel::wifi());
        // Every zoo profile is monotone, so JPS succeeds...
        let plan = s.try_plan(Strategy::Jps, 10).expect("monotone profile");
        assert_eq!(plan.n(), 10);
        // ...while a huge brute force is refused as a value, not a panic.
        match s.try_plan(Strategy::BruteForce, 100_000) {
            Err(PlanError::TooManyCandidates { candidates, limit }) => {
                assert!(candidates > limit)
            }
            other => panic!("expected TooManyCandidates, got {other:?}"),
        }
    }

    #[test]
    fn compare_returns_one_plan_per_strategy() {
        let s = Scenario::paper_default(Model::MobileNetV2, NetworkModel::four_g());
        let plans = s.compare(
            5,
            &[Strategy::LocalOnly, Strategy::Jps, Strategy::PartitionOnly],
        );
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].strategy, Strategy::LocalOnly);
    }
}
