//! Lightweight spans: scoped intervals on the process monotonic clock.
//!
//! A [`Span`] is an RAII guard: it notes the current [`Instant`] when
//! created and records a [`SpanRecord`] into the registry's bounded
//! span buffer when dropped. While the registry is disabled, [`span`]
//! returns an inert guard — no clock read, no lock, no allocation.
//! Enabled, a span costs two clock reads and a lock, so spans mark
//! coarse phases (a plan, an executor run, a chaos grid), never a
//! per-burst or per-request step; those are counted through
//! [`crate::metrics`].

use std::time::Instant;

use crate::registry::{self, SpanRecord};

/// RAII span guard; records itself into the global registry on drop.
#[must_use = "a span records its interval when dropped; binding it to _ drops it immediately"]
pub struct Span {
    live: Option<Live>,
}

struct Live {
    cat: &'static str,
    name: &'static str,
    start: Instant,
}

/// Open a span. Inert (and allocation-free) while the registry is
/// disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !registry::enabled() {
        return Span { live: None };
    }
    // Fix the clock origin first, so no span starts before it.
    registry::clock_origin();
    Span {
        live: Some(Live {
            cat,
            name,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        // Re-check: if observability was switched off mid-span, drop
        // the record rather than locking.
        if !registry::enabled() {
            return;
        }
        let origin = registry::clock_origin();
        let ts_us = live.start.duration_since(origin).as_secs_f64() * 1e6;
        let dur_us = live.start.elapsed().as_secs_f64() * 1e6;
        registry::record_span(SpanRecord {
            cat: live.cat,
            name: live.name,
            ts_us,
            dur_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        registry::set_enabled(true);
        {
            let _s = span("test", "span.basic");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let spans = registry::drain_spans();
        let ours: Vec<_> = spans.iter().filter(|s| s.name == "span.basic").collect();
        assert!(!ours.is_empty(), "span must be recorded");
        let s = ours.last().unwrap();
        assert_eq!(s.cat, "test");
        assert!(s.dur_us > 0.0, "non-zero duration");
        assert!(s.ts_us >= 0.0, "monotonic since epoch");
    }

    #[test]
    fn nested_spans_order_by_start() {
        registry::set_enabled(true);
        {
            let _outer = span("test", "span.outer");
            let _inner = span("test", "span.inner");
        }
        let spans = registry::drain_spans();
        let outer = spans.iter().rev().find(|s| s.name == "span.outer").unwrap();
        let inner = spans.iter().rev().find(|s| s.name == "span.inner").unwrap();
        assert!(outer.ts_us <= inner.ts_us);
        assert!(outer.dur_us >= inner.dur_us * 0.0); // both recorded
    }
}
