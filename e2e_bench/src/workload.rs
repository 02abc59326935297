//! The four workloads: how each builds its fleets from a seed, what one
//! `Engine` call over a fleet is, and how a call's report is checked.

use mcdnn::{Engine, Error};
use mcdnn_bench::workload::{
    monotone_zoo_cloud_rate_profiles, monotone_zoo_rate_profiles, SETUP_MS,
};
use mcdnn_partition::{PlanCache, RateProfile, Strategy};
use mcdnn_profile::AdaptConfig;
use mcdnn_sim::{
    serve_fleet_serial, serve_slo_serial, DriftSpec, ServeConfig, ServeReport, SloConfig,
    SloPolicy, SloReport, SloTenant, UserSpec,
};

/// Distinct fleet mixes a cycled workload rotates through.
pub const FLEETS: u64 = 16;

/// serve-drift calls between two `Engine::invalidate_profiles`.
pub const EPISODE_CALLS: u64 = 32;

/// One traffic mix. See the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm `Engine::serve`: 64 users, no drift, no faults.
    ServeSteady,
    /// `Engine::serve` under drift with adaptation and faults, a fresh
    /// fleet every call.
    ServeDrift,
    /// `Engine::serve_slo` at 1.5x overload with shallow queues.
    SloShallow,
    /// `Engine::serve_slo` at 8x overload, deep queues, 2 cloud servers
    /// and joint allocation.
    SloDeep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeSteady,
        Workload::ServeDrift,
        Workload::SloShallow,
        Workload::SloDeep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve-steady",
            Workload::ServeDrift => "serve-drift",
            Workload::SloShallow => "slo-shallow",
            Workload::SloDeep => "slo-deep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cycled workloads rotate through [`FLEETS`] fleet mixes, so every
    /// frontier is cached once warm; serve-drift draws a fresh mix per
    /// call. Either way every call gets fresh traces from its own seed.
    pub fn cycled(self) -> bool {
        self != Workload::ServeDrift
    }

    /// The fleet mix of call `i`.
    pub fn slot(self, i: u64) -> u64 {
        if self.cycled() {
            i % FLEETS
        } else {
            i
        }
    }

    /// serve-drift's plan cache grows with every call it serves, so a
    /// pass's call cost would grow with the pass's length, and so with
    /// the host's speed. The client resets the cache every
    /// [`EPISODE_CALLS`] calls, so every pass measures the same growth.
    pub fn episodes(self) -> bool {
        !self.cycled()
    }

    /// Cold calls a set-up makes: one per mix, or one for serve-drift.
    pub fn warmup_calls(self) -> u64 {
        if self.cycled() {
            FLEETS
        } else {
            1
        }
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeSteady | Workload::ServeDrift)
    }

    /// The zoo profiles the workload's fleets draw from.
    pub fn profiles(self) -> Vec<RateProfile> {
        match self {
            Workload::SloDeep => monotone_zoo_cloud_rate_profiles(SETUP_MS),
            _ => monotone_zoo_rate_profiles(SETUP_MS),
        }
    }

    /// The fleet and config of fleet slot `slot`. The slot alone fixes
    /// the fleet's mix of models, strategies, burst sizes and weights, so
    /// every seed serves the same frontier keys; `seed` drives the
    /// bandwidth, fault, drift and arrival traces.
    pub fn input(self, profiles: &[RateProfile], slot: u64, seed: u64) -> Input {
        match self {
            Workload::ServeSteady => Input::serve(
                profiles,
                slot,
                64,
                ServeConfig {
                    bursts_per_user: 300,
                    fault_every: 0,
                    seed,
                    ..ServeConfig::default()
                },
            ),
            Workload::ServeDrift => Input::serve(
                profiles,
                slot,
                8,
                ServeConfig {
                    bursts_per_user: 300,
                    fault_every: 16,
                    drift: DriftSpec {
                        device_walk: 0.10,
                        link_walk: 0.05,
                        jitter: 0.025,
                        ..DriftSpec::none()
                    },
                    adapt: Some(AdaptConfig::default()),
                    seed,
                    ..ServeConfig::default()
                },
            ),
            Workload::SloShallow => Input::slo(
                profiles,
                slot,
                96,
                SloConfig {
                    requests_per_tenant: 300,
                    overload: 1.5,
                    max_queue: 64,
                    seed,
                    ..SloConfig::default()
                },
            ),
            Workload::SloDeep => Input::slo(
                profiles,
                slot,
                192,
                SloConfig {
                    requests_per_tenant: 100,
                    overload: 8.0,
                    max_queue: 4096,
                    cloud_servers: 2,
                    joint_alloc: true,
                    seed,
                    ..SloConfig::default()
                },
            ),
        }
    }

    /// Seed of call `i`, derived from the benchmark seed and the
    /// workload so no two calls or workloads share a stream.
    pub fn call_seed(self, seed: u64, i: u64) -> u64 {
        let w = Workload::ALL
            .iter()
            .position(|&x| x == self)
            .expect("listed") as u64;
        splitmix(splitmix(splitmix(seed) ^ w) ^ i)
    }
}

/// User `id` of fleet slot `slot`: profiles cycle as in
/// `mcdnn_sim::fleet`, while strategy, burst size (2..=8 jobs) and WFQ
/// weight (1, 2 or 4) come from a hash of the user's position.
fn tenant(profiles: &[RateProfile], slot: u64, users: usize, id: usize, seed: u64) -> SloTenant {
    let k = slot.wrapping_mul(users as u64).wrapping_add(id as u64);
    let h = splitmix(k);
    SloTenant {
        spec: UserSpec {
            id,
            profile: profiles[(k % profiles.len() as u64) as usize].clone(),
            strategy: if h & 1 == 0 {
                Strategy::Jps
            } else {
                Strategy::JpsBestMix
            },
            n_jobs: 2 + ((h >> 1) % 7) as usize,
            seed: splitmix(seed ^ h),
        },
        weight: [1.0, 2.0, 4.0][((h >> 4) % 3) as usize],
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the program receives for one call.
#[derive(Clone)]
pub enum Input {
    Serve {
        specs: Vec<UserSpec>,
        config: ServeConfig,
    },
    Slo {
        tenants: Vec<SloTenant>,
        config: SloConfig,
    },
}

/// What one call returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    Serve(ServeReport),
    Slo(SloReport),
}

impl Input {
    fn serve(profiles: &[RateProfile], slot: u64, users: usize, config: ServeConfig) -> Input {
        Input::Serve {
            specs: (0..users)
                .map(|id| tenant(profiles, slot, users, id, config.seed).spec)
                .collect(),
            config,
        }
    }

    fn slo(profiles: &[RateProfile], slot: u64, tenants: usize, config: SloConfig) -> Input {
        Input::Slo {
            tenants: (0..tenants)
                .map(|id| tenant(profiles, slot, tenants, id, config.seed))
                .collect(),
            config,
        }
    }

    /// Every user (serve) or tenant (slo) spec of the fleet.
    pub fn specs(&self) -> Vec<&UserSpec> {
        match self {
            Input::Serve { specs, .. } => specs.iter().collect(),
            Input::Slo { tenants, .. } => tenants.iter().map(|t| &t.spec).collect(),
        }
    }

    /// The compiled bandwidth range `(lo, hi)`, Mbps.
    pub fn range_mbps(&self) -> (f64, f64) {
        match self {
            Input::Serve { config, .. } => (config.lo_mbps, config.hi_mbps),
            Input::Slo { config, .. } => (config.lo_mbps, config.hi_mbps),
        }
    }

    /// One call through the engine's front door.
    pub fn call(&self, engine: &Engine) -> Result<Report, Error> {
        Ok(match self {
            Input::Serve { specs, config } => Report::Serve(engine.serve(specs, config)?),
            Input::Slo { tenants, config } => {
                Report::Slo(engine.serve_slo(tenants, config, SloPolicy::EdfDegrade)?)
            }
        })
    }

    /// The serial, single-lock reference the pooled call must equal.
    pub fn serial(&self) -> Result<Report, Error> {
        let cache = PlanCache::with_shards(1);
        Ok(match self {
            Input::Serve { specs, config } => {
                Report::Serve(serve_fleet_serial(&cache, specs, config)?)
            }
            Input::Slo { tenants, config } => Report::Slo(serve_slo_serial(
                &cache,
                tenants,
                config,
                SloPolicy::EdfDegrade,
            )?),
        })
    }
}

impl Report {
    /// Work units served: bursts (serve) or offered requests (slo).
    pub fn units(&self) -> u64 {
        match self {
            Report::Serve(r) => r.total_bursts,
            Report::Slo(r) => r.total_requests,
        }
    }

    pub fn digest(&self) -> u64 {
        match self {
            Report::Serve(r) => r.fleet_digest,
            Report::Slo(r) => r.digest,
        }
    }

    /// Invariants every report must hold: with `EdfDegrade`, an
    /// admitted request is a hit.
    pub fn check(&self) -> Result<(), String> {
        match self {
            Report::Slo(r) if r.deadline_hits != r.admitted => Err(format!(
                "edf-degrade admitted {} requests but only {} met their deadline",
                r.admitted, r.deadline_hits
            )),
            _ => Ok(()),
        }
    }
}

/// Deadline hits and virtual-time latency summed over a fixed set of
/// calls, so the quality metrics depend on the seed alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    hits: u64,
    offered: u64,
    shed: u64,
    degraded: u64,
    virtual_sum_ms: f64,
    virtual_weight: u64,
}

impl Quality {
    pub fn add(&mut self, report: &Report) {
        match report {
            Report::Serve(r) => {
                self.hits += r.total_hits;
                self.offered += r.total_bursts;
                for u in &r.users {
                    self.virtual_sum_ms += u.mean_makespan_ms * u.bursts as f64;
                    self.virtual_weight += u.bursts;
                }
            }
            Report::Slo(r) => {
                self.hits += r.deadline_hits;
                self.offered += r.total_requests;
                self.shed += r.shed_queue_full + r.shed_infeasible;
                self.degraded += r.degraded;
                for t in &r.tenants {
                    self.virtual_sum_ms += t.mean_latency_ms * t.admitted as f64;
                    self.virtual_weight += t.admitted;
                }
            }
        }
    }

    /// Deadline hits over work offered; shed requests count as misses.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits as f64, self.offered as f64)
    }

    /// Shed requests over requests offered (0 for serve).
    pub fn shed_ratio(&self) -> f64 {
        ratio(self.shed as f64, self.offered as f64)
    }

    /// Requests served on a degraded rung over requests offered.
    pub fn degraded_ratio(&self) -> f64 {
        ratio(self.degraded as f64, self.offered as f64)
    }

    /// Serve: burst-weighted mean makespan. Slo: admitted-weighted mean
    /// latency. Virtual milliseconds.
    pub fn virtual_mean_ms(&self) -> f64 {
        ratio(self.virtual_sum_ms, self.virtual_weight as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_seeds_are_stable_and_distinct() {
        let w = Workload::ServeSteady;
        assert_eq!(w.call_seed(7, 3), w.call_seed(7, 3));
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4 {
            for w in Workload::ALL {
                for i in 0..64 {
                    assert!(seen.insert(w.call_seed(seed, i)), "{w:?} {seed} {i}");
                }
            }
        }
    }

    #[test]
    fn fleet_mix_depends_on_the_slot_not_the_seed() {
        let profiles = Workload::SloShallow.profiles();
        let key = |t: &SloTenant| {
            (
                t.spec.profile.name().to_string(),
                t.spec.strategy,
                t.spec.n_jobs,
                t.weight as u8,
            )
        };
        let mix = |input: Input| match input {
            Input::Slo { tenants, .. } => tenants,
            Input::Serve { .. } => unreachable!("slo workload"),
        };
        let a = mix(Workload::SloShallow.input(&profiles, 3, 1));
        let b = mix(Workload::SloShallow.input(&profiles, 3, 2));
        let c = mix(Workload::SloShallow.input(&profiles, 4, 1));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| key(x) == key(y) && x.spec.seed != y.spec.seed));
        assert!(a.iter().zip(&c).any(|(x, y)| key(x) != key(y)));
        for n in 2..=8 {
            assert!(
                a.iter().any(|t| t.spec.n_jobs == n),
                "n_jobs {n} never drawn"
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }
}
