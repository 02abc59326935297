//! Discrete-event simulation of the mobile/uplink/cloud pipeline.
//!
//! Resources:
//! * **Mobile CPU** — one core, processes jobs' compute stages in the
//!   schedule order (the paper's machine 1).
//! * **Uplink** — `uplink_channels` parallel transfer channels (the
//!   paper's machine 2 has exactly one; more model multi-connection
//!   offloading, an extension).
//! * **Cloud** — `cloud_slots` parallel execution slots (the paper
//!   treats cloud time as negligible; a finite slot count lets the
//!   2-stage reduction be audited).
//!
//! Stages of one job are strictly ordered compute → upload → cloud.
//! Ready stages grab the earliest-available resource unit; ties resolve
//! by job order, making the simulation deterministic. Optional
//! multiplicative jitter models runtime variance.
//!
//! Faults are data: the [`FaultedRun`] in [`DesConfig::faults`] is
//! replayed by the one event loop, and its default — the empty plan —
//! is the fault-free run by construction.

use mcdnn_flowshop::FlowJob;
use mcdnn_obs::metrics;
use mcdnn_rng::Rng;

use crate::fault::{backoff_ms, FaultEvent, FaultEventKind, FaultedRun, MAX_ATTEMPTS};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// Parallel uplink channels (paper: 1).
    pub uplink_channels: usize,
    /// Parallel cloud execution slots (paper: effectively ∞, times ≈ 0).
    pub cloud_slots: usize,
    /// Multiplicative stage-duration jitter fraction (0 = deterministic).
    pub jitter_frac: f64,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Faults to replay (default: the empty plan, the fault-free run).
    pub faults: FaultedRun,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            uplink_channels: 1,
            cloud_slots: 1,
            jitter_frac: 0.0,
            seed: 0,
            faults: FaultedRun::default(),
        }
    }
}

/// Per-job record in the simulation output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTimeline {
    /// Job id.
    pub id: usize,
    /// Compute stage start, ms.
    pub compute_start: f64,
    /// Compute stage end, ms.
    pub compute_end: f64,
    /// Upload start (equals end of compute when no queueing), ms.
    pub upload_start: f64,
    /// Upload end, ms.
    pub upload_end: f64,
    /// Cloud stage start (equals `upload_end` when the job runs no
    /// cloud stage), ms.
    pub cloud_start: f64,
    /// Cloud stage end == job completion, ms.
    pub completion: f64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct DesResult {
    /// One timeline per job, in schedule order. For jobs that fell back
    /// to local execution, `upload_start..upload_end` records the link
    /// time wasted on lost attempts and `completion` the on-device
    /// finish.
    pub timelines: Vec<JobTimeline>,
    /// Latest completion across jobs.
    pub makespan_ms: f64,
    /// Fault/recovery events, sorted by `(time, job)`.
    pub events: Vec<FaultEvent>,
    /// `(job id, start, end)` of the on-device remainder of each job
    /// that exhausted its retry budget, in exhaustion order. The
    /// remainders run on the mobile CPU after every scheduled compute
    /// stage.
    pub fallbacks: Vec<(usize, f64, f64)>,
}

impl DesResult {
    /// Mean job completion time.
    pub fn average_completion_ms(&self) -> f64 {
        if self.timelines.is_empty() {
            return 0.0;
        }
        self.timelines.iter().map(|t| t.completion).sum::<f64>() / self.timelines.len() as f64
    }

    /// Ids of jobs that completed on-device, in exhaustion order.
    pub fn fallback_jobs(&self) -> Vec<usize> {
        self.fallbacks.iter().map(|&(id, _, _)| id).collect()
    }
}

/// A reusable simulation workspace: the per-run buffers (`next-free`
/// stage queues, timelines, event log, fallback staging) live here and
/// are recycled across calls, so sweeps that replay millions of jobs
/// ([`crate::realized_makespans`], chaos grids, degradation replays)
/// pay for allocation once instead of once per run.
///
/// Results are **bit-exact** with the free [`simulate`] wrapper — it is
/// a one-shot arena over the very same event loop, and it returns the
/// per-job timelines. After an arena run, the crate reads the fault
/// events off the arena until the next run; other callers take them
/// from [`simulate`]'s [`DesResult`]. A warm fault-free run whose job
/// count fits the existing capacity performs no heap allocation
/// (proven by a counting-allocator test); a run with a non-empty plan
/// builds its link timeline per call, so it allocates even when warm.
#[derive(Debug, Default)]
pub struct DesArena {
    uplink_free: Vec<f64>,
    cloud_free: Vec<f64>,
    timelines: Vec<JobTimeline>,
    events: Vec<FaultEvent>,
    staged: Vec<(usize, f64, f64)>,
    fallbacks: Vec<(usize, f64, f64)>,
    warm: bool,
}

impl DesArena {
    /// A cold arena: the first run sizes the buffers.
    pub fn new() -> Self {
        DesArena::default()
    }

    /// Reset buffers for a run, tracking reuse through the
    /// `des.arena.*` counters: `runs` (every prepare), `reused` (the
    /// arena was warm), `grown` (some buffer had to allocate).
    fn prepare(&mut self, config: &DesConfig, n_jobs: usize) {
        assert!(config.uplink_channels >= 1, "need at least one uplink channel");
        assert!(config.cloud_slots >= 1, "need at least one cloud slot");
        assert!((0.0..1.0).contains(&config.jitter_frac), "jitter in [0,1)");
        metrics::DES_ARENA_RUNS.add(1);
        if self.warm {
            metrics::DES_ARENA_REUSED.add(1);
        }
        let grown = self.uplink_free.capacity() < config.uplink_channels
            || self.cloud_free.capacity() < config.cloud_slots
            || self.timelines.capacity() < n_jobs;
        if grown {
            metrics::DES_ARENA_GROWN.add(1);
        }
        self.uplink_free.clear();
        self.uplink_free.resize(config.uplink_channels, 0.0);
        self.cloud_free.clear();
        self.cloud_free.resize(config.cloud_slots, 0.0);
        self.timelines.clear();
        self.timelines.reserve(n_jobs);
        self.events.clear();
        self.staged.clear();
        self.fallbacks.clear();
        self.warm = true;
    }

    /// Timelines of the most recent run, in schedule order.
    #[cfg(test)]
    fn timelines(&self) -> &[JobTimeline] {
        &self.timelines
    }

    /// Fault/recovery events of the most recent run, sorted by
    /// `(time, job)`. Empty after a run with an empty plan.
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `(job id, start, end)` of on-device fallback remainders from the
    /// most recent run, in exhaustion order.
    #[cfg(test)]
    fn fallbacks(&self) -> &[(usize, f64, f64)] {
        &self.fallbacks
    }

    /// Run the simulation in this arena; returns the makespan.
    /// Semantics identical to the free [`simulate`].
    pub fn simulate(&mut self, jobs: &[FlowJob], order: &[usize], config: &DesConfig) -> f64 {
        let run = &config.faults;
        run.check();
        if run.faults.is_empty() {
            metrics::DES_RUNS.add(1);
            metrics::DES_JOBS.add(order.len() as u64);
            self.run(jobs, order, config, None)
        } else {
            metrics::DES_FAULTED_RUNS.add(1);
            self.run(jobs, order, config, Some(run))
        }
    }

    /// The event loop. `faults` is `None` for an empty plan — no
    /// losses, a one-attempt budget, the nominal link, no straggle and
    /// so no fallback — which is the same run with nothing to look up
    /// and no link timeline to build. Inlined into both call sites of
    /// [`DesArena::simulate`] so the fault-free one folds every fault
    /// branch away.
    #[inline(always)]
    fn run(
        &mut self,
        jobs: &[FlowJob],
        order: &[usize],
        config: &DesConfig,
        faults: Option<&FaultedRun>,
    ) -> f64 {
        self.prepare(config, order.len());
        let timeline = faults.map(|run| run.faults.link_timeline());
        let max_attempts = faults.map_or(1, |_| MAX_ATTEMPTS);
        // Seeded only when jitter is on: a run without jitter draws
        // nothing, so it needs no generator.
        let mut rng = (config.jitter_frac != 0.0).then(|| Rng::seed_from_u64(config.seed));
        let mut jitter = |d: f64| -> f64 {
            match rng.as_mut() {
                Some(rng) if d != 0.0 => {
                    let u: f64 = rng.gen_range(-1.0..1.0);
                    (d * (1.0 + config.jitter_frac * u)).max(0.0)
                }
                _ => d,
            }
        };

        // Next-free time of the CPU; the arena holds the channels' and
        // slots'. Fallback placeholders never exceed their final
        // completion, so the running max is the makespan once pass 2
        // folds the fallbacks in.
        let mut cpu_free = 0.0f64;
        let mut makespan = 0.0f64;
        for &idx in order {
            let job = &jobs[idx];
            let compute_start = cpu_free;
            let compute_end = compute_start + jitter(job.compute_ms);
            cpu_free = compute_end;

            let (mut upload_start, mut upload_end) = (compute_end, compute_end);
            let mut cloud_start = compute_end;
            let mut completion = compute_end;
            if job.comm_ms > 0.0 {
                let losses = faults.map_or(0, |run| run.faults.upload_losses(job.id));
                let work = jitter(job.comm_ms);
                let mut ready = compute_end;
                let mut succeeded = false;
                for attempt in 1..=max_attempts {
                    // Earliest-free channel; ties keep the lowest index.
                    let ch = argmin(&self.uplink_free);
                    let start = ready.max(self.uplink_free[ch]);
                    let end = match &timeline {
                        Some(timeline) => timeline.transfer_end(start, work),
                        None => start + work,
                    };
                    self.uplink_free[ch] = end;
                    if attempt == 1 {
                        upload_start = start;
                    }
                    upload_end = end;
                    if attempt <= losses {
                        metrics::FAULT_UPLOAD_LOST.add(1);
                        self.events.push(FaultEvent {
                            t_ms: end,
                            job: job.id,
                            kind: FaultEventKind::UploadLost { attempt },
                        });
                        if attempt < max_attempts {
                            let delay = backoff_ms(attempt);
                            metrics::FAULT_RETRIES.add(1);
                            self.events.push(FaultEvent {
                                t_ms: end,
                                job: job.id,
                                kind: FaultEventKind::RetryScheduled {
                                    attempt: attempt + 1,
                                    delay_ms: delay,
                                },
                            });
                            ready = end + delay;
                        }
                    } else {
                        if attempt > 1 {
                            metrics::RECOVERY_UPLOAD_RECOVERED.add(1);
                            self.events.push(FaultEvent {
                                t_ms: end,
                                job: job.id,
                                kind: FaultEventKind::UploadRecovered { attempts: attempt },
                            });
                        }
                        succeeded = true;
                        break;
                    }
                }
                cloud_start = upload_end;
                completion = upload_end;
                if !succeeded {
                    // Budget exhausted at the last lost attempt's end.
                    metrics::FAULT_LOCAL_FALLBACKS.add(1);
                    self.events.push(FaultEvent {
                        t_ms: upload_end,
                        job: job.id,
                        kind: FaultEventKind::LocalFallback,
                    });
                    let extra = faults.map_or(0.0, |run| run.local_fallback_ms);
                    // (timeline index, ready time, remaining mobile work);
                    // `completion` is a placeholder fixed in pass 2.
                    self.staged
                        .push((self.timelines.len(), upload_end, jitter(extra)));
                } else if job.cloud_ms > 0.0 {
                    let factor = faults.map_or(1.0, |run| run.faults.cloud_factor(job.id));
                    let slot = argmin(&self.cloud_free);
                    cloud_start = upload_end.max(self.cloud_free[slot]);
                    if factor > 1.0 {
                        metrics::FAULT_CLOUD_STRAGGLES.add(1);
                        self.events.push(FaultEvent {
                            t_ms: cloud_start,
                            job: job.id,
                            kind: FaultEventKind::CloudStraggled { factor },
                        });
                    }
                    completion = cloud_start + jitter(job.cloud_ms) * factor;
                    self.cloud_free[slot] = completion;
                }
            }
            makespan = makespan.max(completion);
            self.timelines.push(JobTimeline {
                id: job.id,
                compute_start,
                compute_end,
                upload_start,
                upload_end,
                cloud_start,
                completion,
            });
        }

        // Pass 2: fallback remainders run on the single mobile CPU after
        // every scheduled compute stage, in exhaustion order.
        for i in 0..self.staged.len() {
            let (slot, ready, extra) = self.staged[i];
            let start = cpu_free.max(ready);
            cpu_free = start + extra;
            self.timelines[slot].completion = cpu_free;
            self.fallbacks.push((self.timelines[slot].id, start, cpu_free));
            makespan = makespan.max(cpu_free);
        }
        crate::fault::sort_events(&mut self.events);
        makespan
    }
}

/// Run the simulation for `jobs` processed in `order`, replaying the
/// faults in `config.faults`. Semantics, all deterministic given
/// `(jobs, order, config)`:
///
/// * **Rate faults** — each upload progresses through the plan's
///   piecewise link timeline (no progress during a blackout, scaled
///   progress during a collapse), so an upload started before a fault
///   window stretches across it.
/// * **Upload loss** — a lost attempt occupies its channel for the
///   full (faulted) transfer time before the loss is detected; the
///   retry waits out the exponential backoff and transfers again. When
///   the attempt budget is exhausted the job falls back to the mobile
///   CPU: its remaining layers (`local_fallback_ms`) queue *behind*
///   every scheduled compute stage — the single CPU is never
///   double-booked — in exhaustion order.
/// * **Cloud straggle** — the afflicted job's cloud stage is stretched
///   by its factor.
///
/// An empty plan (the default) is the fault-free run: no events, no
/// fallbacks.
///
/// One-shot convenience over [`DesArena`]; sweeps that simulate many
/// schedules should hold an arena and call [`DesArena::simulate`] to
/// amortize the buffer allocations.
///
/// ```
/// use mcdnn_flowshop::FlowJob;
/// use mcdnn_sim::{simulate, DesConfig};
///
/// let jobs = vec![
///     FlowJob::two_stage(0, 4.0, 6.0),
///     FlowJob::two_stage(1, 7.0, 2.0),
/// ];
/// let result = simulate(&jobs, &[0, 1], &DesConfig::default());
/// assert_eq!(result.makespan_ms, 13.0);
/// assert_eq!(result.timelines.len(), 2);
/// ```
pub fn simulate(jobs: &[FlowJob], order: &[usize], config: &DesConfig) -> DesResult {
    let mut arena = DesArena::new();
    let makespan_ms = arena.simulate(jobs, order, config);
    DesResult {
        timelines: arena.timelines,
        makespan_ms,
        events: arena.events,
        fallbacks: arena.fallbacks,
    }
}

fn argmin(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v < values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_flowshop::{johnson_order, makespan, makespan_three_stage};

    fn jobs(spec: &[(f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
            .collect()
    }

    #[test]
    fn matches_two_stage_recurrence() {
        let cases = [
            vec![(4.0, 6.0), (7.0, 2.0)],
            vec![(3.0, 6.0), (7.0, 2.0), (4.0, 4.0), (5.0, 3.0), (1.0, 5.0)],
            vec![(5.0, 0.0), (1.0, 9.0), (2.0, 2.0)],
        ];
        for spec in &cases {
            let js = jobs(spec);
            for order in [
                (0..js.len()).collect::<Vec<_>>(),
                johnson_order(&js),
            ] {
                let des = simulate(&js, &order, &DesConfig::default());
                let rec = makespan(&js, &order);
                assert!(
                    (des.makespan_ms - rec).abs() < 1e-9,
                    "DES {} vs recurrence {rec} for {spec:?} order {order:?}",
                    des.makespan_ms
                );
            }
        }
    }

    #[test]
    fn default_run_is_the_two_stage_recurrence_bit_for_bit() {
        // A fault-free serve burst is priced by the recurrence instead
        // of this loop, which holds only while the two agree to the bit
        // on every two-stage schedule: times over seven decades, empty
        // compute and upload stages, repeated jobs, shuffled orders.
        let mut rng = Rng::seed_from_u64(0xDE5_2EC);
        let time = |rng: &mut Rng| 10f64.powf(rng.gen_range(-3.0..4.0));
        let (mut drawn, mut local, mut idle, mut repeats) = (0, 0, 0, 0);
        for set in 0..2000 {
            let n = rng.gen_range(0usize..=16);
            let mut js: Vec<FlowJob> = Vec::with_capacity(n);
            for i in 0..n {
                let (f, g) = if i > 0 && rng.gen_bool(0.1) {
                    repeats += 1;
                    let twin = js[rng.gen_range(0..i)];
                    (twin.compute_ms, twin.comm_ms)
                } else {
                    let f = if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        time(&mut rng)
                    };
                    let g = if rng.gen_bool(0.25) {
                        0.0
                    } else {
                        time(&mut rng)
                    };
                    (f, g)
                };
                local += usize::from(g == 0.0);
                idle += usize::from(f == 0.0);
                js.push(FlowJob::two_stage(i, f, g));
            }
            let order = rng.permutation(n);
            let des = simulate(&js, &order, &DesConfig::default()).makespan_ms;
            let rec = makespan(&js, &order);
            assert_eq!(
                des.to_bits(),
                rec.to_bits(),
                "set {set}: DES {des} vs recurrence {rec} for {js:?} in order {order:?}"
            );
            drawn += n;
        }
        // Coverage: every kind of job the property names was drawn.
        assert!(
            local * 5 > drawn && local * 3 < drawn,
            "{local} of {drawn} jobs local-only"
        );
        assert!(
            idle > 0 && repeats > 0,
            "{idle} empty computes, {repeats} repeats"
        );
    }

    #[test]
    fn matches_three_stage_recurrence() {
        let js = vec![
            FlowJob::three_stage(0, 2.0, 3.0, 4.0),
            FlowJob::three_stage(1, 2.0, 3.0, 4.0),
            FlowJob::three_stage(2, 1.0, 1.0, 6.0),
        ];
        let order = vec![0, 1, 2];
        let des = simulate(&js, &order, &DesConfig::default());
        assert!(
            (des.makespan_ms - makespan_three_stage(&js, &order)).abs() < 1e-9
        );
    }

    #[test]
    fn stage_precedence_and_exclusivity() {
        let js = jobs(&[(4.0, 6.0), (7.0, 2.0), (3.0, 3.0)]);
        let order = johnson_order(&js);
        let r = simulate(&js, &order, &DesConfig::default());
        for t in &r.timelines {
            assert!(t.compute_end >= t.compute_start);
            assert!(t.upload_start >= t.compute_end);
            assert!(t.upload_end >= t.upload_start);
            assert!(t.completion >= t.upload_end - 1e-12);
        }
        // Uplink exclusivity with one channel.
        let mut spans: Vec<(f64, f64)> = r
            .timelines
            .iter()
            .filter(|t| t.upload_end > t.upload_start)
            .map(|t| (t.upload_start, t.upload_end))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-12);
        }
    }

    #[test]
    fn more_uplink_channels_never_hurt() {
        let js = jobs(&[(1.0, 8.0), (1.0, 8.0), (1.0, 8.0), (1.0, 8.0)]);
        let order = vec![0, 1, 2, 3];
        let one = simulate(&js, &order, &DesConfig::default()).makespan_ms;
        let two = simulate(
            &js,
            &order,
            &DesConfig {
                uplink_channels: 2,
                ..DesConfig::default()
            },
        )
        .makespan_ms;
        assert!(two < one, "parallel channels should shorten {one} -> {two}");
        // One channel serialises: 1 + 4×8 = 33. Two channels pair the
        // uploads: last upload starts at max(4, 10) = 10 and ends at 18.
        assert!((one - 33.0).abs() < 1e-9);
        assert!((two - 18.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_cloud_slots_recover_two_stage_makespan() {
        // With many slots and tiny cloud times the 3-stage makespan
        // approaches the 2-stage one — the paper's reduction.
        let js: Vec<FlowJob> = (0..6)
            .map(|i| FlowJob::three_stage(i, 5.0, 4.0, 0.05))
            .collect();
        let order: Vec<usize> = (0..6).collect();
        let two_stage: Vec<FlowJob> = js
            .iter()
            .map(|j| FlowJob::two_stage(j.id, j.compute_ms, j.comm_ms))
            .collect();
        let base = simulate(&two_stage, &order, &DesConfig::default()).makespan_ms;
        let with_cloud = simulate(
            &js,
            &order,
            &DesConfig {
                cloud_slots: 6,
                ..DesConfig::default()
            },
        )
        .makespan_ms;
        assert!((with_cloud - base - 0.05).abs() < 1e-9);
    }

    #[test]
    fn jitter_deterministic_per_seed_and_bounded() {
        let js = jobs(&[(10.0, 10.0); 5]);
        let order: Vec<usize> = (0..5).collect();
        let cfg = DesConfig {
            jitter_frac: 0.2,
            seed: 42,
            ..DesConfig::default()
        };
        let a = simulate(&js, &order, &cfg);
        let b = simulate(&js, &order, &cfg);
        assert_eq!(a, b, "same seed must reproduce");
        let clean = simulate(&js, &order, &DesConfig::default()).makespan_ms;
        assert!((a.makespan_ms - clean).abs() <= clean * 0.25);
        let other = simulate(
            &js,
            &order,
            &DesConfig {
                seed: 43,
                ..cfg
            },
        );
        assert_ne!(a, other, "different seed should differ");
    }

    #[test]
    fn average_completion() {
        let js = jobs(&[(1.0, 1.0), (1.0, 1.0)]);
        let r = simulate(&js, &[0, 1], &DesConfig::default());
        // Completions: 2 and 3 -> mean 2.5.
        assert!((r.average_completion_ms() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let r = simulate(&[], &[], &DesConfig::default());
        assert_eq!(r.makespan_ms, 0.0);
        assert_eq!(r.average_completion_ms(), 0.0);
    }

    #[test]
    fn arena_reuse_is_bit_exact_with_one_shot() {
        let cases = [
            jobs(&[(4.0, 6.0), (7.0, 2.0), (3.0, 3.0)]),
            jobs(&[(5.0, 0.0), (1.0, 9.0)]),
            jobs(&[(3.0, 6.0), (7.0, 2.0), (4.0, 4.0), (5.0, 3.0), (1.0, 5.0)]),
        ];
        let cfg = DesConfig {
            jitter_frac: 0.15,
            seed: 11,
            ..DesConfig::default()
        };
        let mut arena = DesArena::new();
        // Cycle through differently-sized schedules in one arena: a
        // dirty warm buffer must never leak into the next run.
        for _ in 0..2 {
            for js in &cases {
                let order: Vec<usize> = (0..js.len()).rev().collect();
                let warm = arena.simulate(js, &order, &cfg);
                let one_shot = simulate(js, &order, &cfg);
                assert_eq!(warm, one_shot.makespan_ms);
                assert_eq!(arena.timelines(), &one_shot.timelines[..]);
                assert!(arena.events().is_empty());
                assert!(arena.fallbacks().is_empty());
            }
        }
    }

    mod faulted {
        use super::*;
        use crate::fault::{format_events, log_digest, Fault, FaultEventKind, FaultPlan};

        /// The default config replaying `run`.
        fn with(run: FaultedRun) -> DesConfig {
            DesConfig {
                faults: run,
                ..DesConfig::default()
            }
        }

        #[test]
        fn blackout_delays_straddling_upload() {
            // Job 0: compute ends at 4, upload needs 6. Blackout [6, 20):
            // 2 ms transferred by 6, stall to 20, done at 24.
            let js = jobs(&[(4.0, 6.0)]);
            let run = FaultedRun {
                faults: FaultPlan::new(vec![Fault::Blackout {
                    from_ms: 6.0,
                    until_ms: 20.0,
                }]),
                ..FaultedRun::default()
            };
            let r = simulate(&js, &[0], &with(run));
            assert!((r.makespan_ms - 24.0).abs() < 1e-9);
        }

        #[test]
        fn lost_upload_retries_with_backoff_then_recovers() {
            let js = jobs(&[(4.0, 6.0)]);
            let run = FaultedRun {
                faults: FaultPlan::new(vec![Fault::UploadLoss { job: 0, losses: 1 }]),
                ..FaultedRun::default()
            };
            let r = simulate(&js, &[0], &with(run));
            // Attempt 1: 4→10 lost; backoff 2; attempt 2: 12→18 succeeds.
            assert!((r.makespan_ms - 18.0).abs() < 1e-9);
            let kinds: Vec<_> = r.events.iter().map(|e| e.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    FaultEventKind::UploadLost { attempt: 1 },
                    FaultEventKind::RetryScheduled {
                        attempt: 2,
                        delay_ms: 2.0
                    },
                    FaultEventKind::UploadRecovered { attempts: 2 },
                ]
            );
            assert!(r.fallbacks.is_empty());
        }

        #[test]
        fn exhausted_retries_fall_back_to_mobile_after_scheduled_computes() {
            // Job 0 loses every attempt; job 1 computes behind it. The
            // fallback remainder must queue after job 1's compute.
            let js = jobs(&[(4.0, 6.0), (10.0, 0.0)]);
            let run = FaultedRun {
                faults: FaultPlan::new(vec![Fault::UploadLoss { job: 0, losses: 9 }]),
                local_fallback_ms: 5.0,
            };
            let r = simulate(&js, &[0, 1], &with(run));
            assert_eq!(r.fallback_jobs(), vec![0]);
            // Attempts: 4→10, 12→18, 22→28, 36→42 (backoffs 2, 4, 8).
            let exhausted_at = 42.0;
            let t0 = &r.timelines[0];
            assert!((t0.upload_end - exhausted_at).abs() < 1e-9);
            // CPU free at 14 (4 + 10): fallback starts at max(14, 42).
            assert!((t0.completion - (exhausted_at + 5.0)).abs() < 1e-9);
            assert!(r
                .events
                .iter()
                .any(|e| e.kind == FaultEventKind::LocalFallback));
        }

        #[test]
        fn cloud_straggle_stretches_cloud_stage() {
            let js = vec![FlowJob::three_stage(0, 2.0, 3.0, 4.0)];
            let run = FaultedRun {
                faults: FaultPlan::new(vec![Fault::CloudStraggle {
                    job: 0,
                    factor: 2.5,
                }]),
                ..FaultedRun::default()
            };
            let r = simulate(&js, &[0], &with(run));
            assert!((r.makespan_ms - (2.0 + 3.0 + 10.0)).abs() < 1e-9);
            assert_eq!(r.events.len(), 1);
        }

        #[test]
        fn identical_fault_schedule_gives_bit_identical_event_log() {
            let js = jobs(&[(4.0, 6.0), (7.0, 2.0), (3.0, 5.0), (6.0, 4.0)]);
            let order = vec![0, 1, 2, 3];
            let spec = crate::fault::FaultSpec {
                loss_prob: 0.8,
                blackout_prob: 1.0,
                ..crate::fault::FaultSpec::default()
            };
            let cfg = DesConfig {
                jitter_frac: 0.1,
                seed: 5,
                ..DesConfig::default()
            };
            for seed in [7u64, 1234] {
                let run = FaultedRun {
                    faults: FaultPlan::random(&spec, 4, 60.0, seed),
                    local_fallback_ms: 3.0,
                };
                let cfg = DesConfig {
                    faults: run,
                    ..cfg.clone()
                };
                let a = simulate(&js, &order, &cfg);
                let b = simulate(&js, &order, &cfg);
                assert_eq!(a, b);
                assert_eq!(
                    log_digest(&format_events(&a.events)),
                    log_digest(&format_events(&b.events))
                );
            }
        }

        #[test]
        fn faulted_arena_reuse_is_bit_exact_with_one_shot() {
            let js = jobs(&[(4.0, 6.0), (7.0, 2.0), (3.0, 5.0), (6.0, 4.0)]);
            let order = vec![0, 1, 2, 3];
            let cfg = DesConfig {
                jitter_frac: 0.1,
                seed: 5,
                ..DesConfig::default()
            };
            let mut arena = DesArena::new();
            for seed in [7u64, 1234, 999] {
                let run = FaultedRun {
                    faults: FaultPlan::random(
                        &crate::fault::FaultSpec {
                            loss_prob: 0.8,
                            blackout_prob: 1.0,
                            ..crate::fault::FaultSpec::default()
                        },
                        4,
                        60.0,
                        seed,
                    ),
                    local_fallback_ms: 3.0,
                };
                let cfg = DesConfig {
                    faults: run,
                    ..cfg.clone()
                };
                let warm = arena.simulate(&js, &order, &cfg);
                let one_shot = simulate(&js, &order, &cfg);
                assert_eq!(warm, one_shot.makespan_ms);
                assert_eq!(arena.timelines(), &one_shot.timelines[..]);
                assert_eq!(arena.events(), &one_shot.events[..]);
                assert_eq!(arena.fallbacks(), &one_shot.fallbacks[..]);
            }
        }

        #[test]
        fn faults_never_speed_up_the_schedule() {
            let js = jobs(&[(4.0, 6.0), (7.0, 2.0), (3.0, 5.0)]);
            let order = vec![0, 1, 2];
            let clean = simulate(&js, &order, &DesConfig::default()).makespan_ms;
            for seed in 0..20u64 {
                let run = FaultedRun {
                    faults: FaultPlan::random(
                        &crate::fault::FaultSpec::default(),
                        3,
                        40.0,
                        seed,
                    ),
                    local_fallback_ms: 6.0,
                };
                let r = simulate(&js, &order, &with(run));
                assert!(
                    r.makespan_ms >= clean - 1e-9,
                    "seed {seed}: faulted {} < clean {clean}",
                    r.makespan_ms
                );
            }
        }
    }

    #[test]
    fn block_kernels_agree_with_des() {
        // The O(1) planner kernels must match the discrete-event
        // simulator, not just the recurrence they were derived from.
        use mcdnn_flowshop::kernels::{two_type_mix_makespan, uniform_makespan};
        for &(n, f, g) in &[(1usize, 4.0, 6.0), (7, 7.0, 2.0), (13, 5.0, 5.0), (9, 3.0, 0.0)] {
            let jobs: Vec<FlowJob> =
                (0..n).map(|i| FlowJob::two_stage(i, f, g)).collect();
            let order = johnson_order(&jobs);
            let des = simulate(&jobs, &order, &DesConfig::default()).makespan_ms;
            assert!(
                (uniform_makespan(n, f, g) - des).abs() < 1e-9,
                "uniform kernel vs DES at n={n} ({f},{g})"
            );
        }
        for &(a, b) in &[(3usize, 4usize), (0, 5), (6, 0), (2, 2)] {
            let mut jobs: Vec<FlowJob> = Vec::new();
            for _ in 0..a {
                jobs.push(FlowJob::two_stage(jobs.len(), 4.0, 6.0));
            }
            for _ in 0..b {
                jobs.push(FlowJob::two_stage(jobs.len(), 7.0, 2.0));
            }
            let order = johnson_order(&jobs);
            let des = simulate(&jobs, &order, &DesConfig::default()).makespan_ms;
            let kernel = two_type_mix_makespan(a, 4.0, 6.0, b, 7.0, 2.0);
            assert!(
                (kernel - des).abs() < 1e-9,
                "mix kernel {kernel} vs DES {des} at a={a} b={b}"
            );
        }
    }
}
