//! Scenario-level chaos harness: fault-sweep a [`Scenario`] and render
//! the results.
//!
//! This is the facade the CLI `chaos` subcommand and the
//! `chaos_sweep` bench drive. It binds the sim-layer primitives
//! together for one concrete model/platform pair:
//!
//! 1. pick the healthy streaming cut for the target rate via the
//!    degradation ladder at factor 1.0,
//! 2. sweep the standard scenario grid × every
//!    [`DegradePolicy`](mcdnn_sim::DegradePolicy)
//!    ([`mcdnn_sim::run_chaos_grid`]) and report each policy's total
//!    makespan relative to the oracle that knew the fault schedule,
//! 3. replay one seeded random fault plan through the DES
//!    ([`mcdnn_sim::chaos_drill`]) and package the canonical event log
//!    plus its FNV-1a digest — the artifact the determinism CI job
//!    diffs across repeated runs of the same seed.
//!
//! Everything here is deterministic in `(scenario, config)`: same
//! inputs, byte-identical [`ChaosReport::render`] output.

use std::fmt::Write as _;

use mcdnn_partition::PlanError;
use mcdnn_sim::{
    chaos_drill, chaos_scenarios, ladder_decision, run_chaos_grid, ChaosDrill, ChaosRow, FaultSpec,
    RetryPolicy,
};

use crate::error::Error;
use crate::scenario::Scenario;

/// Knobs for one chaos sweep. All fields are plain data so front ends
/// (CLI flags, bench constants) can build it directly.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Jobs released per burst.
    pub jobs_per_burst: usize,
    /// Number of bursts each scenario spans (≥ 3).
    pub bursts: usize,
    /// Target frame rate, Hz (the streaming deadline the ladder plans
    /// against).
    pub target_hz: f64,
    /// Utilisation headroom `ρ` in `(0, 1]` passed to
    /// [`mcdnn_sim::best_cut_for_rate`].
    pub rho_limit: f64,
    /// Seed for the flapping scenario and the drill's random fault
    /// plan.
    pub seed: u64,
    /// Retry/backoff policy for lost uploads.
    pub retry: RetryPolicy,
    /// Fault mix for the seeded drill.
    pub spec: FaultSpec,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            jobs_per_burst: 6,
            bursts: 9,
            target_hz: 20.0,
            rho_limit: 0.9,
            seed: 7,
            retry: RetryPolicy::default(),
            spec: FaultSpec::default(),
        }
    }
}

impl ChaosConfig {
    /// Check the knobs the sweep would otherwise assert on:
    /// `jobs_per_burst ≥ 1`, `bursts ≥ 3`, a finite `target_hz > 0` and
    /// `rho_limit` in `(0, 1]`. [`chaos_report`] calls this, so a bad
    /// value is a [`PlanError::BadInput`] instead of a panic.
    pub fn validate(&self) -> Result<(), PlanError> {
        let what = if self.jobs_per_burst == 0 {
            "jobs_per_burst must be at least 1"
        } else if self.bursts < 3 {
            "bursts must be at least 3"
        } else if !(self.target_hz.is_finite() && self.target_hz > 0.0) {
            "target_hz must be finite and > 0"
        } else if !(self.rho_limit > 0.0 && self.rho_limit <= 1.0) {
            "rho_limit must be in (0, 1]"
        } else {
            return Ok(());
        };
        Err(PlanError::BadInput { what })
    }
}

/// Output of [`chaos_report`]: the policy grid, the seeded drill, and
/// the context needed to read them.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario × policy grid rows (deterministic order).
    pub rows: Vec<ChaosRow>,
    /// The healthy cut the ladder starts from.
    pub cut: usize,
    /// Seeded single-run drill through the DES.
    pub drill: ChaosDrill,
    /// The seed the report was produced with.
    pub seed: u64,
}

impl ChaosReport {
    /// Render the report as a deterministic plain-text document: the
    /// grid table (one row per scenario × policy, `vs_oracle` column),
    /// the drill's canonical event log, and its digest. CI diffs this
    /// byte-for-byte across repeated runs of the same seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "chaos grid (seed {}):", self.seed);
        let _ = writeln!(
            out,
            "{:<14} {:<13} {:>12} {:>10}",
            "scenario", "policy", "total_ms", "vs_oracle"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<14} {:<13} {:>12.3} {:>10.4}",
                r.scenario,
                r.policy.to_string(),
                r.total_ms,
                r.vs_oracle
            );
        }
        let _ = writeln!(out, "\ndrill (cut {}, seed {}):", self.cut, self.seed);
        if self.drill.log.is_empty() {
            let _ = writeln!(out, "  (no fault events fired)");
        } else {
            for line in self.drill.log.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        let _ = writeln!(
            out,
            "makespan_ms={:.3} events={} digest={:016x}",
            self.drill.result.makespan_ms,
            self.drill.result.events.len(),
            self.drill.digest
        );
        out
    }
}

/// Run the full chaos sweep for one scenario: standard grid × every
/// policy, plus one seeded drill at the healthy cut. Deterministic in
/// `(scenario, config)`. A config that fails [`ChaosConfig::validate`],
/// or a scenario with a non-finite stage time (a subnormal bandwidth
/// makes the uploads infinite), is an [`Error::Plan`].
pub fn chaos_report(scenario: &Scenario, config: &ChaosConfig) -> Result<ChaosReport, Error> {
    config.validate()?;
    let profile = scenario.profile();
    let finite = |stage: &[f64]| stage.iter().all(|v| v.is_finite());
    if !(finite(profile.f_all()) && finite(profile.g_all())) {
        let what = "scenario stage times must be finite";
        return Err(PlanError::BadInput { what }.into());
    }
    let healthy = ladder_decision(
        profile,
        config.target_hz,
        config.rho_limit,
        1.0,
        config.jobs_per_burst,
    );
    let scenarios = chaos_scenarios(config.bursts, config.seed);
    let rows = run_chaos_grid(
        profile,
        &scenarios,
        config.jobs_per_burst,
        config.target_hz,
        config.rho_limit,
        &config.retry,
    );
    let drill = chaos_drill(
        profile,
        healthy.cut,
        config.jobs_per_burst,
        &config.spec,
        config.seed,
    );
    Ok(ChaosReport {
        rows,
        cut: healthy.cut,
        drill,
        seed: config.seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_models::Model;
    use mcdnn_sim::DegradePolicy;
    use mcdnn_profile::NetworkModel;

    fn scenario() -> Scenario {
        Scenario::paper_default(Model::AlexNet, NetworkModel::wifi())
    }

    #[test]
    fn report_is_deterministic() {
        let s = scenario();
        let cfg = ChaosConfig::default();
        let a = chaos_report(&s, &cfg).unwrap().render();
        let b = chaos_report(&s, &cfg).unwrap().render();
        assert_eq!(a, b, "same scenario + config must render byte-identically");
    }

    #[test]
    fn report_varies_with_seed() {
        let s = scenario();
        let a = chaos_report(&s, &ChaosConfig::default()).unwrap();
        let b = chaos_report(
            &s,
            &ChaosConfig {
                seed: 1234,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        // The flapping scenario and the drill's fault plan both depend
        // on the seed.
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn ladder_bounded_by_mobile_only_on_real_model() {
        let s = scenario();
        let report = chaos_report(&s, &ChaosConfig::default()).unwrap();
        let scenarios: Vec<String> = report
            .rows
            .iter()
            .map(|r| r.scenario.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(!scenarios.is_empty());
        for name in &scenarios {
            let total = |policy: DegradePolicy| {
                report
                    .rows
                    .iter()
                    .find(|r| &r.scenario == name && r.policy == policy)
                    .expect("row present")
                    .total_ms
            };
            assert!(
                total(DegradePolicy::Ladder) <= total(DegradePolicy::MobileOnly) + 1e-9,
                "{name}: ladder must never lose to mobile-only"
            );
        }
    }

    #[test]
    fn render_mentions_digest_and_policies() {
        let s = scenario();
        let doc = chaos_report(&s, &ChaosConfig::default()).unwrap().render();
        assert!(doc.contains("digest="));
        assert!(doc.contains("mobile-only"));
        assert!(doc.contains("steady"));
        assert!(doc.contains("dead_link"));
    }
}
