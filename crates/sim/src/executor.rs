//! A real concurrent pipeline executor.
//!
//! Three OS threads — mobile CPU, uplink, cloud — connected by
//! `std::sync::mpsc` channels, mirroring the paper's client/gRPC/server
//! pipeline. Jobs genuinely flow between threads; queueing, FIFO
//! ordering and backpressure emerge from the channels rather than from
//! a formula.
//!
//! Two clock modes:
//!
//! * [`ClockMode::Logical`] (default) — each stage advances a logical
//!   clock; messages carry their ready-times downstream. Deterministic
//!   on any machine (including single-core CI), and asserted to match
//!   the discrete-event simulator *exactly*.
//! * [`ClockMode::WallClock`] — stages burn scaled-down real time with
//!   a spin-wait, so the pipeline is measured, not computed. Only
//!   meaningful with ≥ 3 free cores; tests treat it as a smoke test.
//!
//! Local-only jobs (`comm_ms == 0`) complete at the mobile stage and
//! never enter the uplink queue, matching the scheduling model.
//!
//! Faults are data here too: the stage threads replay the
//! [`FaultedRun`] in [`ExecutorConfig::faults`], and its default — the
//! empty plan — is the fault-free run.

use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mcdnn_flowshop::FlowJob;
use mcdnn_obs::metrics;

use crate::fault::{backoff_ms, FaultEvent, FaultEventKind, FaultedRun, MAX_ATTEMPTS};

/// How stage durations are realised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockMode {
    /// Logical virtual time carried in messages; deterministic.
    Logical,
    /// Burn real wall-clock time, `us_per_virtual_ms` real µs per
    /// virtual ms. Requires enough cores to actually overlap stages.
    WallClock {
        /// Real microseconds burned per virtual millisecond.
        us_per_virtual_ms: f64,
    },
}

/// Executor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// Clock mode (default: logical).
    pub clock: ClockMode,
    /// Faults to replay (default: the empty plan, the fault-free run).
    pub faults: FaultedRun,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            clock: ClockMode::Logical,
            faults: FaultedRun::default(),
        }
    }
}

impl ExecutorConfig {
    /// Wall-clock configuration with the given scale.
    pub fn wall_clock(us_per_virtual_ms: f64) -> Self {
        assert!(us_per_virtual_ms > 0.0, "time scale must be positive");
        ExecutorConfig {
            clock: ClockMode::WallClock { us_per_virtual_ms },
            ..ExecutorConfig::default()
        }
    }
}

/// Result of one executor run.
#[derive(Debug, Clone)]
pub struct ExecTrace {
    /// `(job id, completion in virtual ms)` sorted by completion.
    pub completions: Vec<(usize, f64)>,
    /// Virtual makespan: latest completion.
    pub makespan_ms: f64,
    /// Fault/recovery events, in canonical `(time, job, kind)` order.
    pub events: Vec<FaultEvent>,
    /// Ids of jobs that completed on-device after exhausting retries,
    /// in exhaustion order.
    pub fallback_jobs: Vec<usize>,
}

impl ExecTrace {
    /// Mean virtual completion time.
    pub fn average_completion_ms(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions.iter().map(|c| c.1).sum::<f64>() / self.completions.len() as f64
    }
}

/// Burn wall-clock time precisely with a pure spin (`thread::sleep`
/// granularity can exceed whole stage durations).
fn busy_wait(duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

/// A job travelling down the pipeline with its logical ready-time.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    job: FlowJob,
    /// Logical time at which the previous stage finished (Logical mode).
    ready_at: f64,
}

/// Execute `jobs` in `order` on the three-stage threaded pipeline,
/// replaying the faults in `config.faults`, and return completions in
/// virtual milliseconds. The uplink thread replays rate faults and lost
/// attempts (occupying the link, backing off, retrying), the cloud
/// thread stretches straggled stages, and jobs whose retry budget is
/// exhausted flow *back* to the mobile thread over a dedicated channel
/// to finish on-device after every scheduled compute stage.
///
/// In [`ClockMode::Logical`] the result matches
/// [`simulate`](crate::des::simulate) exactly (tested,
/// single-channel/single-slot, zero jitter). Under
/// [`ClockMode::WallClock`] stage durations (including the faulted
/// transfer times, computed against a logical shadow clock) are burned
/// in real time — queueing is physical, so it is a smoke-grade check
/// only.
///
/// Each stage records per-job virtual-time histograms: how long it
/// worked on the job (busy) and how long the job sat queued before
/// service began, read off the logical shadow clock (wait).
pub fn run_pipeline(jobs: &[FlowJob], order: &[usize], config: &ExecutorConfig) -> ExecTrace {
    let _span = mcdnn_obs::span("sim", "run_pipeline");
    let run = &config.faults;
    run.check();
    let scale = match config.clock {
        ClockMode::Logical => None,
        ClockMode::WallClock { us_per_virtual_ms } => {
            assert!(us_per_virtual_ms > 0.0, "time scale must be positive");
            Some(us_per_virtual_ms)
        }
    };
    let timeline = run.faults.link_timeline();

    let completions: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::with_capacity(order.len()));
    let events: Mutex<Vec<FaultEvent>> = Mutex::new(Vec::new());
    let fallback_jobs: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let start_cell: Mutex<Option<Instant>> = Mutex::new(None);

    // Burn `duration` virtual ms in wall-clock mode and return the
    // measured virtual now; in logical mode return `logical_end`.
    let settle = |duration: f64, logical_end: f64| -> f64 {
        match scale {
            None => logical_end,
            Some(us) => {
                busy_wait(Duration::from_nanos((duration * us * 1e3) as u64));
                let epoch = start_cell
                    .lock()
                    .expect("no stage panicked")
                    .expect("mobile thread sets epoch first");
                epoch.elapsed().as_secs_f64() * 1e6 / us
            }
        }
    };

    let (to_uplink_tx, to_uplink_rx) = mpsc::channel::<InFlight>();
    let (to_cloud_tx, to_cloud_rx) = mpsc::channel::<InFlight>();
    // Exhausted jobs return to the mobile thread: (job id, exhaustion
    // time, remaining on-device work).
    let (to_fallback_tx, to_fallback_rx) = mpsc::channel::<(usize, f64, f64)>();

    // std Receivers are Send but not Sync, so each stage thread takes
    // ownership of its channel ends (`move`) while sharing the clock
    // machinery and result sinks by reference.
    thread::scope(|s| {
        let completions = &completions;
        let events = &events;
        let fallback_jobs = &fallback_jobs;
        let start_cell = &start_cell;
        let settle = &settle;
        let timeline = &timeline;
        // Mobile CPU: scheduled computes first, then returned fallbacks.
        s.spawn(move || {
            *start_cell.lock().expect("no stage panicked") = Some(Instant::now());
            let mut clock = 0.0f64;
            for &idx in order {
                let job = jobs[idx];
                // Every scheduled job is ready at 0 and waits for the
                // computes ahead of it.
                metrics::EXEC_MOBILE_WAIT_MS.observe(clock);
                metrics::EXEC_MOBILE_BUSY_MS.observe(job.compute_ms);
                clock += job.compute_ms;
                let done = settle(job.compute_ms, clock);
                if job.comm_ms > 0.0 {
                    to_uplink_tx
                        .send(InFlight {
                            job,
                            ready_at: done,
                        })
                        .expect("uplink thread alive");
                } else {
                    completions
                        .lock()
                        .expect("no stage panicked")
                        .push((job.id, done));
                }
            }
            drop(to_uplink_tx);
            // The uplink thread closes the fallback channel when its
            // queue drains, ending this loop.
            for (id, ready_at, extra) in to_fallback_rx.iter() {
                metrics::EXEC_MOBILE_WAIT_MS.observe((clock - ready_at).max(0.0));
                metrics::EXEC_MOBILE_BUSY_MS.observe(extra);
                clock = clock.max(ready_at) + extra;
                let done = settle(extra, clock);
                completions
                    .lock()
                    .expect("no stage panicked")
                    .push((id, done));
            }
        });
        // Uplink: replays rate faults, losses, backoff and retries.
        s.spawn(move || {
            let mut clock = 0.0f64;
            for msg in to_uplink_rx.iter() {
                let losses = run.faults.upload_losses(msg.job.id);
                let mut ready = msg.ready_at;
                let mut succeeded = false;
                let mut last_end = msg.ready_at;
                for attempt in 1..=MAX_ATTEMPTS {
                    let start = ready.max(clock);
                    let end = timeline.transfer_end(start, msg.job.comm_ms);
                    metrics::EXEC_UPLINK_WAIT_MS.observe((clock - ready).max(0.0));
                    metrics::EXEC_UPLINK_BUSY_MS.observe(end - start);
                    clock = end;
                    last_end = settle(end - start, end);
                    if attempt <= losses {
                        metrics::FAULT_UPLOAD_LOST.add(1);
                        let mut ev = events.lock().expect("no stage panicked");
                        ev.push(FaultEvent {
                            t_ms: last_end,
                            job: msg.job.id,
                            kind: FaultEventKind::UploadLost { attempt },
                        });
                        if attempt < MAX_ATTEMPTS {
                            let delay = backoff_ms(attempt);
                            metrics::FAULT_RETRIES.add(1);
                            ev.push(FaultEvent {
                                t_ms: last_end,
                                job: msg.job.id,
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
                            events.lock().expect("no stage panicked").push(FaultEvent {
                                t_ms: last_end,
                                job: msg.job.id,
                                kind: FaultEventKind::UploadRecovered { attempts: attempt },
                            });
                        }
                        succeeded = true;
                        break;
                    }
                }
                if succeeded {
                    if msg.job.cloud_ms > 0.0 {
                        to_cloud_tx
                            .send(InFlight {
                                job: msg.job,
                                ready_at: last_end,
                            })
                            .expect("cloud thread alive");
                    } else {
                        completions
                            .lock()
                            .expect("no stage panicked")
                            .push((msg.job.id, last_end));
                    }
                } else {
                    metrics::FAULT_LOCAL_FALLBACKS.add(1);
                    events.lock().expect("no stage panicked").push(FaultEvent {
                        t_ms: last_end,
                        job: msg.job.id,
                        kind: FaultEventKind::LocalFallback,
                    });
                    fallback_jobs
                        .lock()
                        .expect("no stage panicked")
                        .push(msg.job.id);
                    to_fallback_tx
                        .send((msg.job.id, last_end, run.local_fallback_ms))
                        .expect("mobile thread alive");
                }
            }
            drop(to_cloud_tx);
            drop(to_fallback_tx);
        });
        // Cloud: executes the remainder, stretched for stragglers.
        s.spawn(move || {
            let mut clock = 0.0f64;
            for msg in to_cloud_rx.iter() {
                let factor = run.faults.cloud_factor(msg.job.id);
                let duration = msg.job.cloud_ms * factor;
                let start = clock.max(msg.ready_at);
                if factor > 1.0 {
                    metrics::FAULT_CLOUD_STRAGGLES.add(1);
                    events.lock().expect("no stage panicked").push(FaultEvent {
                        t_ms: start,
                        job: msg.job.id,
                        kind: FaultEventKind::CloudStraggled { factor },
                    });
                }
                metrics::EXEC_CLOUD_WAIT_MS.observe((clock - msg.ready_at).max(0.0));
                metrics::EXEC_CLOUD_BUSY_MS.observe(duration);
                clock = start + duration;
                let done = settle(duration, clock);
                completions
                    .lock()
                    .expect("no stage panicked")
                    .push((msg.job.id, done));
            }
        });
    });

    let mut completions = completions.into_inner().expect("scope joined every stage");
    completions.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let makespan_ms = completions.last().map_or(0.0, |c| c.1);
    let mut events = events.into_inner().expect("scope joined every stage");
    crate::fault::sort_events(&mut events);
    ExecTrace {
        completions,
        makespan_ms,
        events,
        fallback_jobs: fallback_jobs.into_inner().expect("scope joined every stage"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{simulate, DesConfig};
    use mcdnn_flowshop::{johnson_order, makespan};

    fn jobs(spec: &[(f64, f64)]) -> Vec<FlowJob> {
        spec.iter()
            .enumerate()
            .map(|(i, &(f, g))| FlowJob::two_stage(i, f, g))
            .collect()
    }

    #[test]
    fn logical_executor_matches_des_exactly_on_fig2() {
        let js = jobs(&[(4.0, 6.0), (7.0, 2.0)]);
        let order = johnson_order(&js);
        let des = simulate(&js, &order, &DesConfig::default());
        let exec = run_pipeline(&js, &order, &ExecutorConfig::default());
        assert!(
            (exec.makespan_ms - des.makespan_ms).abs() < 1e-9,
            "executor {} vs DES {}",
            exec.makespan_ms,
            des.makespan_ms
        );
        assert_eq!(exec.completions.len(), 2);
    }

    #[test]
    fn logical_executor_matches_des_on_many_schedules() {
        let specs: Vec<Vec<(f64, f64)>> = vec![
            vec![(3.0, 5.0), (2.0, 6.0), (5.0, 4.0), (4.0, 1.0), (6.0, 3.0), (1.0, 2.0)],
            vec![(5.0, 0.0), (1.0, 9.0), (2.0, 2.0), (8.0, 0.0)],
            vec![(1.0, 1.0); 20],
        ];
        for spec in &specs {
            let js = jobs(spec);
            for order in [(0..js.len()).collect::<Vec<_>>(), johnson_order(&js)] {
                let des = simulate(&js, &order, &DesConfig::default());
                let exec = run_pipeline(&js, &order, &ExecutorConfig::default());
                assert!(
                    (exec.makespan_ms - des.makespan_ms).abs() < 1e-9,
                    "spec {spec:?} order {order:?}: exec {} vs DES {}",
                    exec.makespan_ms,
                    des.makespan_ms
                );
            }
        }
    }

    #[test]
    fn logical_three_stage_jobs_traverse_cloud() {
        let js = vec![
            FlowJob::three_stage(0, 2.0, 3.0, 4.0),
            FlowJob::three_stage(1, 2.0, 3.0, 4.0),
        ];
        let order = vec![0, 1];
        let des = simulate(&js, &order, &DesConfig::default());
        let exec = run_pipeline(&js, &order, &ExecutorConfig::default());
        assert!((exec.makespan_ms - des.makespan_ms).abs() < 1e-9);
    }

    #[test]
    fn local_only_jobs_bypass_uplink() {
        let js = jobs(&[(1.0, 40.0), (5.0, 0.0)]);
        let exec = run_pipeline(&js, &[0, 1], &ExecutorConfig::default());
        let local = exec
            .completions
            .iter()
            .find(|(id, _)| *id == 1)
            .expect("local job completed");
        assert!(
            (local.1 - 6.0).abs() < 1e-9,
            "local job completes at compute end, got {}",
            local.1
        );
    }

    #[test]
    fn wall_clock_smoke_test() {
        // On a single-core machine spinning stages cannot overlap, so
        // this only checks sanity: all jobs complete and the measured
        // makespan is at least the analytic one (overheads only add).
        let js = jobs(&[(2.0, 3.0), (3.0, 1.0)]);
        let order = johnson_order(&js);
        let exec = run_pipeline(&js, &order, &ExecutorConfig::wall_clock(100.0));
        assert_eq!(exec.completions.len(), 2);
        let analytic = makespan(&js, &order);
        assert!(
            exec.makespan_ms >= analytic * 0.9,
            "measured {} below analytic {}",
            exec.makespan_ms,
            analytic
        );
    }

    #[test]
    fn empty_run() {
        let exec = run_pipeline(&[], &[], &ExecutorConfig::default());
        assert_eq!(exec.makespan_ms, 0.0);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn zero_scale_rejected() {
        ExecutorConfig::wall_clock(0.0);
    }

    mod faulted {
        use super::*;
        use crate::fault::{format_events, FaultPlan, FaultSpec};

        #[test]
        fn logical_faulted_executor_matches_faulted_des_exactly() {
            let specs: Vec<Vec<(f64, f64)>> = vec![
                vec![(4.0, 6.0), (7.0, 2.0), (3.0, 5.0), (6.0, 4.0)],
                vec![(5.0, 0.0), (1.0, 9.0), (2.0, 2.0), (8.0, 0.0)],
                vec![(2.0, 3.0); 12],
            ];
            let spec = FaultSpec {
                loss_prob: 0.6,
                blackout_prob: 1.0,
                collapse_prob: 1.0,
                ..FaultSpec::default()
            };
            for js_spec in &specs {
                let js = jobs(js_spec);
                let order: Vec<usize> = (0..js.len()).collect();
                for seed in [7u64, 1234] {
                    let run = FaultedRun {
                        faults: FaultPlan::random(&spec, js.len(), 80.0, seed),
                        local_fallback_ms: 4.0,
                    };
                    let des = simulate(
                        &js,
                        &order,
                        &DesConfig {
                            faults: run.clone(),
                            ..DesConfig::default()
                        },
                    );
                    let exec = run_pipeline(
                        &js,
                        &order,
                        &ExecutorConfig {
                            faults: run,
                            ..ExecutorConfig::default()
                        },
                    );
                    assert!(
                        (exec.makespan_ms - des.makespan_ms).abs() < 1e-9,
                        "seed {seed}: exec {} vs DES {}",
                        exec.makespan_ms,
                        des.makespan_ms
                    );
                    assert_eq!(
                        format_events(&exec.events),
                        format_events(&des.events),
                        "seed {seed}: event logs must agree bit-for-bit"
                    );
                    assert_eq!(exec.fallback_jobs, des.fallback_jobs());
                    // Per-job completions agree too.
                    let mut des_completions: Vec<(usize, f64)> = des
                        .timelines
                        .iter()
                        .map(|t| (t.id, t.completion))
                        .collect();
                    des_completions
                        .sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    for (a, b) in exec.completions.iter().zip(&des_completions) {
                        assert_eq!(a.0, b.0);
                        assert!((a.1 - b.1).abs() < 1e-9);
                    }
                }
            }
        }

        #[test]
        fn repeated_runs_are_bit_identical() {
            let js = jobs(&[(4.0, 6.0), (7.0, 2.0), (3.0, 5.0)]);
            let order = vec![0, 1, 2];
            let run = FaultedRun {
                faults: FaultPlan::random(&FaultSpec::default(), 3, 40.0, 99),
                local_fallback_ms: 2.0,
            };
            let config = ExecutorConfig {
                faults: run,
                ..ExecutorConfig::default()
            };
            let a = run_pipeline(&js, &order, &config);
            let b = run_pipeline(&js, &order, &config);
            assert_eq!(a.completions, b.completions);
            assert_eq!(format_events(&a.events), format_events(&b.events));
        }

        #[test]
        fn wall_clock_faulted_smoke() {
            let js = jobs(&[(2.0, 3.0), (3.0, 1.0)]);
            let run = FaultedRun {
                faults: FaultPlan::new(vec![crate::fault::Fault::UploadLoss {
                    job: 0,
                    losses: 1,
                }]),
                ..FaultedRun::default()
            };
            let config = ExecutorConfig {
                faults: run,
                ..ExecutorConfig::wall_clock(50.0)
            };
            let exec = run_pipeline(&js, &[0, 1], &config);
            assert_eq!(exec.completions.len(), 2);
            assert!(!exec.events.is_empty());
        }
    }
}
