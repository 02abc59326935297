//! The span buffer is bounded, in a process of its own so no sibling
//! test drains or fills the buffer meanwhile.

use mcdnn_obs::SPAN_CAPACITY;

#[test]
fn span_buffer_keeps_capacity_and_counts_the_overflow() {
    const EXTRA: usize = 37;
    mcdnn_obs::set_enabled(true);
    for _ in 0..SPAN_CAPACITY + EXTRA {
        let _s = mcdnn_obs::span("cap", "span");
    }
    assert_eq!(mcdnn_obs::drain_spans().len(), SPAN_CAPACITY);
    assert_eq!(mcdnn_obs::counter_value("obs.spans_dropped"), EXTRA as u64);
    // Draining frees the room again.
    {
        let _s = mcdnn_obs::span("cap", "after-drain");
    }
    let after = mcdnn_obs::drain_spans();
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].name, "after-drain");
    assert_eq!(mcdnn_obs::counter_value("obs.spans_dropped"), EXTRA as u64);
}
