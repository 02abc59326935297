//! Chrome-trace export: open a schedule in `chrome://tracing` /
//! Perfetto.
//!
//! Rendering goes through the unified [`mcdnn_obs::ChromeTrace`] writer
//! (one JSON emitter for virtual DES intervals *and* real registry
//! spans); this module only maps simulated timelines onto trace
//! events, through one builder, [`faulted_trace`]. Timestamps are
//! microseconds per the format spec; one virtual millisecond maps to
//! 1000 µs.

use mcdnn_flowshop::FlowJob;
use mcdnn_obs::{ChromeTrace, InstantEvent, TraceEvent};

use crate::des::{simulate, DesConfig, DesResult};
use crate::fault::{Fault, FaultEventKind, FaultPlan};

/// Resource (thread) names shown in the trace viewer.
const STAGE_NAMES: [&str; 3] = ["mobile CPU", "uplink", "cloud"];

/// Build (without rendering) the trace of `jobs` in `order` under the
/// given `pid`: the fault-free DES run rendered by [`faulted_trace`],
/// one viewer thread per pipeline stage and one complete event per
/// non-empty stage interval. Callers that want a combined document
/// (e.g. the CLI's `--emit-trace`) add more rows to the returned
/// builder before rendering.
pub fn schedule_trace(jobs: &[FlowJob], order: &[usize], pid: u32) -> ChromeTrace {
    let result = simulate(jobs, order, &DesConfig::default());
    faulted_trace(&result, &FaultPlan::none(), pid)
}

/// Build the trace of a DES run that replayed `plan` under `pid`: the
/// three stage rows read off the realised timelines (upload rows
/// stretch across fault windows; on-device fallback remainders render
/// on the mobile-CPU row). A non-empty plan adds a fourth "faults" row
/// with one slice per injected fault window and one instant flag per
/// fault/recovery event — so the viewer shows exactly *when* each
/// upload was lost, retried, recovered or abandoned.
pub fn faulted_trace(result: &DesResult, plan: &FaultPlan, pid: u32) -> ChromeTrace {
    const FAULT_ROW: u32 = 3;
    let mut trace = ChromeTrace::new();
    for (tid, name) in STAGE_NAMES.iter().enumerate() {
        trace.thread(pid, tid as u32, *name);
    }
    if !plan.is_empty() {
        trace.thread(pid, FAULT_ROW, "faults");
    }
    let fallback_ids = result.fallback_jobs();
    for t in &result.timelines {
        if t.compute_end > t.compute_start {
            trace.push(TraceEvent {
                pid,
                tid: 0,
                name: format!("job {}", t.id),
                cat: "stage0".to_string(),
                ts_us: t.compute_start * 1000.0,
                dur_us: (t.compute_end - t.compute_start) * 1000.0,
            });
        }
        if t.upload_end > t.upload_start {
            trace.push(TraceEvent {
                pid,
                tid: 1,
                name: format!("job {}", t.id),
                cat: "stage1".to_string(),
                ts_us: t.upload_start * 1000.0,
                dur_us: (t.upload_end - t.upload_start) * 1000.0,
            });
        }
        // A job that fell back finishes on the CPU row below, from the
        // recorded fallback interval.
        if t.completion > t.cloud_start && !fallback_ids.contains(&t.id) {
            trace.push(TraceEvent {
                pid,
                tid: 2,
                name: format!("job {}", t.id),
                cat: "stage2".to_string(),
                ts_us: t.cloud_start * 1000.0,
                dur_us: (t.completion - t.cloud_start) * 1000.0,
            });
        }
    }
    for &(id, start, end) in &result.fallbacks {
        if end > start {
            trace.push(TraceEvent {
                pid,
                tid: 0,
                name: format!("job {} (fallback)", id),
                cat: "fallback".to_string(),
                ts_us: start * 1000.0,
                dur_us: (end - start) * 1000.0,
            });
        }
    }
    for fault in plan.faults() {
        let (name, from, until) = match *fault {
            Fault::RateCollapse {
                from_ms,
                until_ms,
                factor,
            } => (format!("rate x{factor:.2}"), from_ms, until_ms),
            Fault::Blackout { from_ms, until_ms } => ("blackout".to_string(), from_ms, until_ms),
            _ => continue, // per-job faults show as instant flags below
        };
        trace.push(TraceEvent {
            pid,
            tid: FAULT_ROW,
            name,
            cat: "fault".to_string(),
            ts_us: from * 1000.0,
            dur_us: (until - from) * 1000.0,
        });
    }
    for ev in &result.events {
        let name = match ev.kind {
            FaultEventKind::UploadLost { attempt } => {
                format!("job {}: upload lost (attempt {attempt})", ev.job)
            }
            FaultEventKind::RetryScheduled { attempt, delay_ms } => {
                format!("job {}: retry {attempt} in {delay_ms:.1} ms", ev.job)
            }
            FaultEventKind::UploadRecovered { attempts } => {
                format!("job {}: recovered after {attempts} attempts", ev.job)
            }
            FaultEventKind::LocalFallback => format!("job {}: local fallback", ev.job),
            FaultEventKind::CloudStraggled { factor } => {
                format!("job {}: cloud straggle x{factor:.2}", ev.job)
            }
        };
        trace.mark(InstantEvent {
            pid,
            tid: FAULT_ROW,
            name,
            cat: "fault".to_string(),
            ts_us: ev.t_ms * 1000.0,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_flowshop::johnson_order;

    #[test]
    fn trace_structure() {
        let jobs = vec![
            FlowJob::two_stage(0, 4.0, 6.0),
            FlowJob::three_stage(1, 7.0, 2.0, 1.0),
        ];
        let order = johnson_order(&jobs);
        let trace = schedule_trace(&jobs, &order, 1).to_json();
        assert!(trace.starts_with('[') && trace.ends_with(']'));
        // 3 thread-name metadata + 5 stage events (2 compute, 2 comm,
        // 1 cloud).
        assert_eq!(trace.matches("\"ph\":\"M\"").count(), 3);
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 5);
        assert!(trace.contains("\"name\":\"mobile CPU\""));
        // Timestamps in microseconds: job 0's compute starts at 0 and
        // lasts 4000 µs.
        assert!(trace.contains("\"ts\":0.0,\"dur\":4000.0"));
        // Balanced braces/brackets (well-formed enough for the viewer).
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }

    #[test]
    fn zero_duration_stages_skipped() {
        let jobs = vec![FlowJob::two_stage(0, 5.0, 0.0)];
        let trace = schedule_trace(&jobs, &[0], 1).to_json();
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 1);
    }

    #[test]
    fn empty_schedule() {
        let trace = schedule_trace(&[], &[], 1).to_json();
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 0);
        assert!(trace.starts_with('[') && trace.ends_with(']'));
    }

    #[test]
    fn faulted_trace_shows_fault_windows_and_event_flags() {
        use crate::fault::FaultedRun;

        let jobs = vec![
            FlowJob::two_stage(0, 4.0, 6.0),
            FlowJob::two_stage(1, 10.0, 0.0),
        ];
        let plan = FaultPlan::new(vec![
            Fault::Blackout {
                from_ms: 5.0,
                until_ms: 15.0,
            },
            Fault::UploadLoss { job: 0, losses: 9 },
        ]);
        let config = DesConfig {
            faults: FaultedRun {
                faults: plan.clone(),
                local_fallback_ms: 3.0,
            },
            ..DesConfig::default()
        };
        let result = simulate(&jobs, &[0, 1], &config);
        let doc = faulted_trace(&result, &plan, 1).to_json();
        // 4 rows: three stages + faults.
        assert_eq!(doc.matches("\"ph\":\"M\"").count(), 4);
        assert!(doc.contains("\"name\":\"faults\""));
        // The blackout renders as a window on the fault row.
        assert!(doc.contains("\"name\":\"blackout\""));
        // Lost attempts and the fallback decision render as flags.
        assert!(doc.contains("upload lost"));
        assert!(doc.contains("local fallback"));
        assert_eq!(
            doc.matches("\"ph\":\"i\"").count(),
            result.events.len(),
            "one flag per fault/recovery event"
        );
        // The fallback remainder renders on the mobile row.
        assert!(doc.contains("(fallback)"));
        // Valid JSON throughout.
        mcdnn_obs::json::parse(&doc).expect("valid JSON");
    }

    #[test]
    fn queued_cloud_stages_do_not_overlap() {
        // Job 1's cloud stage waits for job 0's (2–12 ms) in the one
        // cloud slot: it runs 12–22 ms, not from its upload end at 3.
        let jobs = vec![
            FlowJob::three_stage(0, 1.0, 1.0, 10.0),
            FlowJob::three_stage(1, 1.0, 1.0, 10.0),
        ];
        let result = simulate(&jobs, &[0, 1], &DesConfig::default());
        let doc = faulted_trace(&result, &FaultPlan::none(), 1).to_json();
        let parsed = mcdnn_obs::json::parse(&doc).expect("valid JSON");
        let cloud: Vec<(f64, f64)> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .filter(|e| e.get("tid").and_then(|t| t.as_f64()) == Some(2.0))
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap();
                (field("ts"), field("dur"))
            })
            .collect();
        assert_eq!(cloud, vec![(2000.0, 10000.0), (12000.0, 10000.0)]);
    }

    #[test]
    fn events_sorted_by_timestamp() {
        let jobs = vec![
            FlowJob::two_stage(0, 4.0, 6.0),
            FlowJob::two_stage(1, 7.0, 2.0),
        ];
        let trace = schedule_trace(&jobs, &[0, 1], 1).to_json();
        let parsed = mcdnn_obs::json::parse(&trace).expect("valid JSON");
        let ts: Vec<f64> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }
}
