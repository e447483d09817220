//! Chrome `trace_event` export.
//!
//! The writer emits the JSON-array flavor of the trace-event format —
//! one complete (`"ph": "X"`) event per line plus a `thread_name`
//! metadata record per thread — which both `chrome://tracing` and
//! Perfetto load directly.

use std::collections::BTreeSet;

use crate::json::JsonWriter;

/// One completed span, in process-relative nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Span name (the `span!` argument).
    pub name: &'static str,
    /// Start time in nanoseconds since the process trace origin.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense thread id assigned by obs (not the OS tid).
    pub tid: u64,
}

/// Serialize events as a Chrome trace JSON array. Events should already
/// be in deterministic order (see [`crate::take_trace`]).
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    for tid in tids {
        w.begin_object();
        w.key("name").str("thread_name").key("ph").str("M");
        w.key("pid").uint(1).key("tid").uint(tid);
        w.key("args").begin_object().key("name").str(&format!("bitrobust-{tid}")).end();
        w.end();
    }
    for e in events {
        // trace_event timestamps are microseconds; keep nanosecond
        // precision as three fractional digits.
        w.begin_object();
        w.key("name").str(e.name).key("ph").str("X");
        w.key("ts").fixed(e.ts_ns as f64 / 1e3, 3).key("dur").fixed(e.dur_ns as f64 / 1e3, 3);
        w.key("pid").uint(1).key("tid").uint(e.tid);
        w.end();
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_metadata_then_events_with_commas() {
        let events = [
            TraceEvent { name: "a", ts_ns: 1_500, dur_ns: 2_001, tid: 0 },
            TraceEvent { name: "b", ts_ns: 4_000, dur_ns: 10, tid: 3 },
        ];
        let json = render_chrome_trace(&events);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.ends_with("\n]\n"), "{json}");
        assert!(json.contains("\"name\": \"bitrobust-0\""), "{json}");
        assert!(json.contains("\"name\": \"bitrobust-3\""), "{json}");
        assert!(json.contains("\"ts\": 1.500, \"dur\": 2.001"), "{json}");
        assert!(json.contains("\"ts\": 4.000, \"dur\": 0.010"), "{json}");
        // Commas separate every record but never trail the last one.
        assert_eq!(json.matches(",\n").count(), 3, "{json}");
    }

    #[test]
    fn empty_trace_is_still_a_valid_array() {
        assert_eq!(render_chrome_trace(&[]), "[]\n");
    }
}
