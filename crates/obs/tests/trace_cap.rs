//! The trace cap keeps outer spans. Its own test binary: the cap is
//! process-wide, so filling it would starve any other test's trace.

use bitrobust_obs::{
    init, snapshot, span, take_trace, ObsConfig, ObsLevel, TRACE_CAP, TRACE_RESERVE,
};

#[test]
fn outer_span_survives_a_flood_of_inner_spans() {
    init(&ObsConfig { level: ObsLevel::Trace, trace_path: None, report_path: None });
    {
        let _outer = span("test.cap.outer");
        // More inner events than the whole trace holds: under one
        // first-come cap they would fill it before the outer span closes.
        for _ in 0..=TRACE_CAP {
            let _inner = span("test.cap.inner");
        }
    }
    let events = take_trace();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("test.cap.outer"), 1, "the outer span must be in the trace");
    let inner_kept = TRACE_CAP - TRACE_RESERVE;
    assert_eq!(count("test.cap.inner"), inner_kept);
    let snap = snapshot();
    assert_eq!(snap.counter("obs.trace.dropped") as usize, TRACE_CAP + 1 - inner_kept);
    assert_eq!(snap.hist("test.cap.inner").map(|h| h.count as usize), Some(TRACE_CAP + 1));
}
