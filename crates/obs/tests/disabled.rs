//! Disabled-mode semantics, isolated in their own process: toggling the
//! process-global enabled flag would race with the crate's unit tests,
//! so everything lives in one test function here.

use mcdnn_obs::metrics;

#[test]
fn disabled_registry_records_nothing() {
    mcdnn_obs::set_enabled(true);
    metrics::ONLINE_REPLANS.add(1);
    let baseline = mcdnn_obs::counter_value("online.replans");

    mcdnn_obs::set_enabled(false);
    assert!(!mcdnn_obs::enabled());

    // Counters, histograms and spans all drop their writes.
    metrics::ONLINE_REPLANS.add(100);
    metrics::ONLINE_BURST_MAKESPAN_MS.observe(5.0);
    {
        let _s = mcdnn_obs::span("disabled", "span");
    }

    mcdnn_obs::set_enabled(true);
    assert_eq!(mcdnn_obs::counter_value("online.replans"), baseline);
    let snap = mcdnn_obs::snapshot();
    assert_eq!(
        snap.histogram("online.burst_makespan_ms")
            .map(|h| h.count()),
        Some(0),
        "the catalogue histogram is exported, empty"
    );
    assert!(mcdnn_obs::drain_spans().iter().all(|s| s.cat != "disabled"));

    // A span opened while enabled but closed while disabled is dropped,
    // not recorded with a bogus duration.
    let s = mcdnn_obs::span("disabled", "mid-flight");
    mcdnn_obs::set_enabled(false);
    drop(s);
    mcdnn_obs::set_enabled(true);
    assert!(mcdnn_obs::drain_spans()
        .iter()
        .all(|s| s.name != "mid-flight"));
}
