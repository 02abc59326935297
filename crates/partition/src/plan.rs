//! The uniform output of every partition+scheduling strategy.

use mcdnn_flowshop::{gantt, johnson_order, makespan, FlowJob, Gantt};
use mcdnn_profile::CostProfile;

use crate::error::{ParseStrategyError, PlanError};

/// Which planner produced a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// All jobs fully on the mobile device (paper's LO).
    LocalOnly,
    /// All jobs fully offloaded (paper's CO).
    CloudOnly,
    /// Single-DNN optimal cut applied uniformly (paper's PO, the
    /// Neurosurgeon/DADS baseline).
    PartitionOnly,
    /// The paper's joint partition + scheduling (Alg. 2 + Alg. 1).
    Jps,
    /// JPS with the two-type mix chosen by exhaustive scan instead of
    /// the closed-form ratio (our refinement; never worse).
    JpsBestMix,
    /// Exact joint optimum by enumeration (paper's BF, small `n`).
    BruteForce,
}

impl Strategy {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::LocalOnly => "LO",
            Strategy::CloudOnly => "CO",
            Strategy::PartitionOnly => "PO",
            Strategy::Jps => "JPS",
            Strategy::JpsBestMix => "JPS*",
            Strategy::BruteForce => "BF",
        }
    }

    /// Every strategy, in the order experiment tables list them.
    pub fn all() -> [Strategy; 6] {
        [
            Strategy::LocalOnly,
            Strategy::CloudOnly,
            Strategy::PartitionOnly,
            Strategy::Jps,
            Strategy::JpsBestMix,
            Strategy::BruteForce,
        ]
    }

    /// Plan `n` homogeneous jobs with this strategy.
    ///
    /// Lenient surface: accepts non-monotone profiles (the uniform
    /// sweep handles them) and panics on infeasible brute-force sizes.
    /// Use [`Strategy::try_plan`] when failures must reach the caller
    /// as values.
    ///
    /// ```
    /// use mcdnn_partition::Strategy;
    /// use mcdnn_profile::CostProfile;
    ///
    /// let profile = CostProfile::from_vectors(
    ///     "demo",
    ///     vec![0.0, 4.0, 7.0, 20.0],
    ///     vec![99.0, 6.0, 2.0, 0.0],
    ///     None,
    /// );
    /// let jps = Strategy::Jps.plan(&profile, 10);
    /// let lo = Strategy::LocalOnly.plan(&profile, 10);
    /// assert!(jps.makespan_ms < lo.makespan_ms);
    /// assert_eq!(jps.cuts.len(), 10);
    /// ```
    pub fn plan(self, profile: &CostProfile, n: usize) -> Plan {
        match self {
            Strategy::LocalOnly => crate::baselines::local_only_plan(profile, n),
            Strategy::CloudOnly => crate::baselines::cloud_only_plan(profile, n),
            Strategy::PartitionOnly => crate::baselines::partition_only_plan(profile, n),
            Strategy::Jps => crate::jps::jps_plan(profile, n),
            Strategy::JpsBestMix => crate::jps::jps_best_mix_plan(profile, n),
            Strategy::BruteForce => crate::baselines::brute_force_plan(profile, n),
        }
    }

    /// Plan `n` homogeneous jobs, reporting infeasibility as a value.
    ///
    /// Stricter than [`Strategy::plan`]: the JPS strategies require the
    /// clustered-profile monotonicity their theory assumes
    /// ([`PlanError::NonMonotoneF`]/[`PlanError::NonMonotoneG`]), and
    /// brute force refuses oversized instances with
    /// [`PlanError::TooManyCandidates`] instead of panicking. The
    /// baselines (LO/CO/PO) are total and never fail.
    pub fn try_plan(self, profile: &CostProfile, n: usize) -> Result<Plan, PlanError> {
        match self {
            Strategy::Jps | Strategy::JpsBestMix => {
                if let Some(at) = first_f_violation(profile) {
                    return Err(PlanError::NonMonotoneF { at });
                }
                if let Some(at) = first_g_violation(profile) {
                    return Err(PlanError::NonMonotoneG { at });
                }
            }
            Strategy::BruteForce => {
                let candidates = crate::baselines::brute_force_candidates(profile, n);
                if candidates > crate::baselines::BF_CANDIDATE_LIMIT {
                    return Err(PlanError::TooManyCandidates {
                        candidates,
                        limit: crate::baselines::BF_CANDIDATE_LIMIT,
                    });
                }
            }
            _ => {}
        }
        Ok(self.plan(profile, n))
    }
}

impl std::fmt::Display for Strategy {
    /// Canonical lowercase name, accepted back by `FromStr`.
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Strategy::LocalOnly => "lo",
            Strategy::CloudOnly => "co",
            Strategy::PartitionOnly => "po",
            Strategy::Jps => "jps",
            Strategy::JpsBestMix => "jps*",
            Strategy::BruteForce => "bf",
        };
        fmt.write_str(name)
    }
}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Case-insensitive; accepts the canonical names plus the aliases
    /// the CLI has always taken (`local-only`, `best-mix`, …). This is
    /// the single parsing point — the CLI, scenarios and benches all
    /// route through it.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lo" | "local" | "local-only" => Ok(Strategy::LocalOnly),
            "co" | "cloud" | "cloud-only" => Ok(Strategy::CloudOnly),
            "po" | "partition-only" => Ok(Strategy::PartitionOnly),
            "jps" => Ok(Strategy::Jps),
            "jps*" | "jps-star" | "best-mix" => Ok(Strategy::JpsBestMix),
            "bf" | "brute-force" => Ok(Strategy::BruteForce),
            _ => Err(ParseStrategyError { input: s.to_string() }),
        }
    }
}

/// First index where `f` decreases (tolerance matches
/// [`CostProfile::f_is_monotone`]), or `None` when monotone.
fn first_f_violation(profile: &CostProfile) -> Option<usize> {
    profile
        .f_all()
        .windows(2)
        .position(|w| w[1] < w[0] - 1e-12)
        .map(|i| i + 1)
}

/// First index where `g` increases, or `None` when monotone.
fn first_g_violation(profile: &CostProfile) -> Option<usize> {
    profile
        .g_all()
        .windows(2)
        .position(|w| w[1] > w[0] + 1e-12)
        .map(|i| i + 1)
}

/// A complete decision for `n` homogeneous jobs: where each job is cut
/// and in which order the mobile device processes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Strategy that produced this plan.
    pub strategy: Strategy,
    /// Per-job cut points (`cuts[j] ∈ 0..=k`), indexed by job id.
    pub cuts: Vec<usize>,
    /// Processing order (job ids), Johnson-optimal for the cuts.
    pub order: Vec<usize>,
    /// Makespan of the plan in ms.
    pub makespan_ms: f64,
}

impl Plan {
    /// Assemble a plan from cuts: builds the stage durations, applies
    /// Johnson's rule, evaluates the makespan.
    pub fn from_cuts(strategy: Strategy, profile: &CostProfile, cuts: Vec<usize>) -> Plan {
        let jobs = jobs_for_cuts(profile, &cuts);
        let order = johnson_order(&jobs);
        let makespan_ms = makespan(&jobs, &order);
        Plan {
            strategy,
            cuts,
            order,
            makespan_ms,
        }
    }

    /// Number of jobs.
    pub fn n(&self) -> usize {
        self.cuts.len()
    }

    /// Average makespan per job, the paper's `(max_j τ_j) / n` (§4.2).
    pub fn average_makespan_ms(&self) -> f64 {
        if self.cuts.is_empty() {
            0.0
        } else {
            self.makespan_ms / self.n() as f64
        }
    }

    /// The flow-shop jobs this plan induces.
    pub fn jobs(&self, profile: &CostProfile) -> Vec<FlowJob> {
        jobs_for_cuts(profile, &self.cuts)
    }

    /// Full Gantt trace of the plan.
    pub fn gantt(&self, profile: &CostProfile) -> Gantt {
        gantt(&self.jobs(profile), &self.order)
    }

    /// Mean per-job completion time under the plan.
    pub fn average_completion_ms(&self, profile: &CostProfile) -> f64 {
        mcdnn_flowshop::average_completion_ms(&self.jobs(profile), &self.order)
    }
}

/// Map per-job cuts to two-stage flow jobs using the profile's `(f, g)`.
///
/// The (negligible-by-assumption) cloud stage is carried along so
/// three-stage evaluations can audit the assumption.
pub(crate) fn jobs_for_cuts(profile: &CostProfile, cuts: &[usize]) -> Vec<FlowJob> {
    cuts.iter()
        .enumerate()
        .map(|(id, &c)| FlowJob::three_stage(id, profile.f(c), profile.g(c), profile.cloud(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CostProfile {
        CostProfile::from_vectors(
            "p",
            vec![0.0, 4.0, 7.0, 12.0],
            vec![20.0, 6.0, 2.0, 0.0],
            None,
        )
    }

    #[test]
    fn from_cuts_builds_consistent_plan() {
        let p = profile();
        let plan = Plan::from_cuts(Strategy::Jps, &p, vec![1, 2]);
        // Jobs (4,6) and (7,2): the paper's Fig. 2 optimum, makespan 13.
        assert_eq!(plan.makespan_ms, 13.0);
        assert_eq!(plan.order, vec![0, 1]);
        assert_eq!(plan.n(), 2);
        assert!((plan.average_makespan_ms() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn jobs_carry_cloud_stage() {
        let p = CostProfile::from_vectors(
            "p",
            vec![0.0, 4.0],
            vec![9.0, 0.0],
            Some(vec![3.0, 0.0]),
        );
        let jobs = jobs_for_cuts(&p, &[0, 1]);
        assert_eq!(jobs[0].cloud_ms, 3.0);
        assert_eq!(jobs[1].cloud_ms, 0.0);
    }

    #[test]
    fn gantt_matches_makespan() {
        let p = profile();
        let plan = Plan::from_cuts(Strategy::Jps, &p, vec![1, 1, 2, 3]);
        assert!((plan.gantt(&p).makespan() - plan.makespan_ms).abs() < 1e-9);
        assert!(plan.average_completion_ms(&p) <= plan.makespan_ms);
    }

    #[test]
    fn labels() {
        assert_eq!(Strategy::Jps.label(), "JPS");
        assert_eq!(Strategy::PartitionOnly.label(), "PO");
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for s in Strategy::all() {
            assert_eq!(s.to_string().parse::<Strategy>().unwrap(), s);
        }
    }

    #[test]
    fn from_str_accepts_cli_aliases_case_insensitively() {
        assert_eq!("local-only".parse::<Strategy>().unwrap(), Strategy::LocalOnly);
        assert_eq!("CLOUD".parse::<Strategy>().unwrap(), Strategy::CloudOnly);
        assert_eq!("best-mix".parse::<Strategy>().unwrap(), Strategy::JpsBestMix);
        assert_eq!("JPS-Star".parse::<Strategy>().unwrap(), Strategy::JpsBestMix);
        assert_eq!("brute-force".parse::<Strategy>().unwrap(), Strategy::BruteForce);
        let err = "neurosurgeon".parse::<Strategy>().unwrap_err();
        assert!(err.to_string().contains("neurosurgeon"));
        assert!(err.to_string().contains("jps"));
    }

    #[test]
    fn strategy_plan_matches_free_functions() {
        let p = profile();
        for (s, free) in [
            (Strategy::LocalOnly, crate::baselines::local_only_plan(&p, 4)),
            (Strategy::CloudOnly, crate::baselines::cloud_only_plan(&p, 4)),
            (Strategy::Jps, crate::jps::jps_plan(&p, 4)),
            (Strategy::BruteForce, crate::baselines::brute_force_plan(&p, 4)),
        ] {
            assert_eq!(s.plan(&p, 4), free);
            assert_eq!(s.try_plan(&p, 4).unwrap(), free);
        }
    }

    #[test]
    fn try_plan_rejects_non_monotone_profiles_for_jps() {
        // g bumps upward at index 2.
        let p = CostProfile::from_vectors(
            "bumpy",
            vec![0.0, 4.0, 7.0, 12.0],
            vec![20.0, 6.0, 8.0, 0.0],
            None,
        );
        assert_eq!(
            Strategy::Jps.try_plan(&p, 4).unwrap_err(),
            PlanError::NonMonotoneG { at: 2 }
        );
        assert_eq!(
            Strategy::JpsBestMix.try_plan(&p, 4).unwrap_err(),
            PlanError::NonMonotoneG { at: 2 }
        );
        // Baselines are total on the same profile.
        assert!(Strategy::LocalOnly.try_plan(&p, 4).is_ok());
        assert!(Strategy::PartitionOnly.try_plan(&p, 4).is_ok());
    }

    #[test]
    fn try_plan_rejects_oversized_brute_force() {
        let mut f: Vec<f64> = (0..=40).map(|i| i as f64).collect();
        f[0] = 0.0;
        let mut g: Vec<f64> = (0..=40).rev().map(|i| i as f64 * 2.0).collect();
        *g.last_mut().unwrap() = 0.0;
        let p = CostProfile::from_vectors("big", f, g, None);
        match Strategy::BruteForce.try_plan(&p, 50) {
            Err(PlanError::TooManyCandidates { candidates, limit }) => {
                assert!(candidates > limit);
                assert_eq!(limit, crate::baselines::BF_CANDIDATE_LIMIT);
            }
            other => panic!("expected TooManyCandidates, got {other:?}"),
        }
    }
}
