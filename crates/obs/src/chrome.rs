//! The unified Chrome-trace sink.
//!
//! Emits the trace-event JSON format understood by `chrome://tracing`
//! and Perfetto: an array of thread-name metadata events (`"ph":"M"`)
//! followed by complete events (`"ph":"X"`) sorted by start timestamp.
//! Timestamps and durations are microseconds per the format spec.
//!
//! Anything that can name an interval can render through this one
//! writer: `mcdnn_sim::faulted_trace` feeds it simulated stage
//! intervals in virtual time, and [`ChromeTrace::add_spans`] feeds it real spans
//! drained from the registry — including both in one file (use distinct
//! `pid`s so the viewer groups virtual and wall-clock rows separately).

use std::fmt::Write as _;

use crate::json::escape;
use crate::registry::SpanRecord;

/// One complete ("X") trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Process id (groups rows in the viewer).
    pub pid: u32,
    /// Thread id within the process (one row each).
    pub tid: u32,
    /// Event name shown on the slice.
    pub name: String,
    /// Category (filterable in the viewer).
    pub cat: String,
    /// Start, µs.
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// One instant ("i") trace event — a zero-duration mark rendered as a
/// flag in the viewer (thread-scoped).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Process id.
    pub pid: u32,
    /// Thread id within the process.
    pub tid: u32,
    /// Mark label.
    pub name: String,
    /// Category (filterable in the viewer).
    pub cat: String,
    /// Timestamp, µs.
    pub ts_us: f64,
}

/// Builder for one trace document.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    threads: Vec<(u32, u32, String)>,
    events: Vec<TraceEvent>,
    instants: Vec<InstantEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Name a `(pid, tid)` row. Emitted as a `thread_name` metadata
    /// event so the viewer labels the track.
    pub fn thread(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        self.threads.push((pid, tid, name.into()));
    }

    /// Append one complete event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of complete events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no complete events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append one instant mark (rendered as a flag at its timestamp —
    /// fault injections, recovery points, phase boundaries).
    pub fn mark(&mut self, event: InstantEvent) {
        self.instants.push(event);
    }

    /// Add registry spans under `pid`, assigning one tid per distinct
    /// span category (tids allocated in first-seen order) and naming
    /// each row after the category.
    pub fn add_spans(&mut self, pid: u32, spans: &[SpanRecord]) {
        let mut cats: Vec<&'static str> = Vec::new();
        for s in spans {
            let tid = match cats.iter().position(|&c| c == s.cat) {
                Some(i) => i as u32,
                None => {
                    cats.push(s.cat);
                    let tid = (cats.len() - 1) as u32;
                    self.thread(pid, tid, s.cat);
                    tid
                }
            };
            self.push(TraceEvent {
                pid,
                tid,
                name: s.name.to_string(),
                cat: s.cat.to_string(),
                ts_us: s.ts_us,
                dur_us: s.dur_us,
            });
        }
    }

    /// Render the trace document. Complete events and instant marks
    /// are merged and sorted by timestamp (then pid/tid), so `ts` is
    /// monotone over the array — the property the round-trip tests pin.
    pub fn to_json(&self) -> String {
        enum Ev<'a> {
            X(&'a TraceEvent),
            I(&'a InstantEvent),
        }
        let mut events: Vec<Ev<'_>> = self
            .events
            .iter()
            .map(Ev::X)
            .chain(self.instants.iter().map(Ev::I))
            .collect();
        let key = |e: &Ev<'_>| match e {
            Ev::X(x) => (x.ts_us, x.pid, x.tid),
            Ev::I(i) => (i.ts_us, i.pid, i.tid),
        };
        events.sort_by(|a, b| {
            let (ta, pa, ia) = key(a);
            let (tb, pb, ib) = key(b);
            ta.total_cmp(&tb).then(pa.cmp(&pb)).then(ia.cmp(&ib))
        });
        let mut out = String::from("[");
        let mut first = true;
        for (pid, tid, name) in &self.threads {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            );
        }
        for ev in events {
            if !first {
                out.push(',');
            }
            first = false;
            match ev {
                Ev::X(ev) => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                         \"ts\":{:.1},\"dur\":{:.1},\"pid\":{},\"tid\":{}}}",
                        escape(&ev.name),
                        escape(&ev.cat),
                        ev.ts_us,
                        ev.dur_us,
                        ev.pid,
                        ev.tid
                    );
                }
                Ev::I(ev) => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{:.1},\"pid\":{},\"tid\":{}}}",
                        escape(&ev.name),
                        escape(&ev.cat),
                        ev.ts_us,
                        ev.pid,
                        ev.tid
                    );
                }
            }
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(tid: u32, name: &str, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            pid: 1,
            tid,
            name: name.to_string(),
            cat: "test".to_string(),
            ts_us: ts,
            dur_us: dur,
        }
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        let doc = t.to_json();
        assert_eq!(json::parse(&doc).unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn round_trip_structure() {
        let mut t = ChromeTrace::new();
        t.thread(1, 0, "cpu");
        t.push(ev(0, "b", 10.0, 5.0));
        t.push(ev(0, "a", 0.0, 4.0));
        assert_eq!(t.len(), 2);
        let doc = t.to_json();
        let parsed = json::parse(&doc).expect("valid JSON");
        let arr = parsed.as_array().expect("array document");
        assert_eq!(arr.len(), 3);
        // Metadata first.
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("M"));
        // X events sorted by ts.
        let ts: Vec<f64> = arr[1..]
            .iter()
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(ts, vec![0.0, 10.0]);
        // pid/tid stable across all events.
        for e in arr.iter() {
            assert_eq!(e.get("pid").unwrap().as_f64(), Some(1.0));
            assert_eq!(e.get("tid").unwrap().as_f64(), Some(0.0));
        }
    }

    #[test]
    fn spans_get_one_tid_per_category() {
        let spans = [
            SpanRecord {
                cat: "planner",
                name: "jps_plan",
                ts_us: 0.0,
                dur_us: 10.0,
            },
            SpanRecord {
                cat: "sim",
                name: "des",
                ts_us: 12.0,
                dur_us: 3.0,
            },
            SpanRecord {
                cat: "planner",
                name: "jps_plan",
                ts_us: 20.0,
                dur_us: 7.0,
            },
        ];
        let mut t = ChromeTrace::new();
        t.add_spans(2, &spans);
        let doc = t.to_json();
        let parsed = json::parse(&doc).unwrap();
        let arr = parsed.as_array().unwrap();
        // 2 thread names + 3 events.
        assert_eq!(arr.len(), 5);
        let planner_tids: Vec<f64> = arr
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("planner"))
            .map(|e| e.get("tid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(planner_tids, vec![0.0, 0.0], "same category, same tid");
    }

    #[test]
    fn instant_marks_interleave_sorted_with_complete_events() {
        let mut t = ChromeTrace::new();
        t.thread(1, 0, "cpu");
        t.push(ev(0, "work", 0.0, 20.0));
        t.mark(InstantEvent {
            pid: 1,
            tid: 0,
            name: "fault: blackout".to_string(),
            cat: "fault".to_string(),
            ts_us: 10.0,
        });
        let doc = t.to_json();
        let parsed = json::parse(&doc).expect("valid JSON with instants");
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(arr[2].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(arr[2].get("s").unwrap().as_str(), Some("t"));
        assert_eq!(arr[2].get("ts").unwrap().as_f64(), Some(10.0));
        assert!(arr[2].get("dur").is_none(), "instants carry no duration");
    }

    #[test]
    fn names_are_escaped() {
        let mut t = ChromeTrace::new();
        t.push(TraceEvent {
            pid: 1,
            tid: 0,
            name: "quote \" backslash \\".to_string(),
            cat: "c".to_string(),
            ts_us: 0.0,
            dur_us: 1.0,
        });
        let doc = t.to_json();
        let parsed = json::parse(&doc).expect("escaping keeps JSON valid");
        let arr = parsed.as_array().unwrap();
        assert_eq!(
            arr[0].get("name").unwrap().as_str(),
            Some("quote \" backslash \\")
        );
    }
}
