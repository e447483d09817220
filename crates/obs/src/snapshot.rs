//! Aggregated metrics and the `OBS_report.json` writer.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::hist::Hist;
use crate::json::JsonWriter;

/// A gauge sample: the last value written, stamped with a process-wide
/// sequence number so "last" is well defined across threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gauge {
    /// Global write sequence (monotonic across all threads).
    pub seq: u64,
    /// The value at that write.
    pub value: u64,
}

/// A point-in-time aggregate of every counter, gauge, and histogram.
///
/// Merging is commutative and associative: counters and histograms sum,
/// gauges keep the sample with the highest global sequence number. Any
/// merge order over the per-thread states yields byte-identical JSON,
/// which is what lets `OBS_report.json` be compared across runs.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<&'static str, Gauge>,
    /// Log2 histograms by name (spans record their duration here, in ns).
    pub hists: BTreeMap<&'static str, Hist>,
}

impl Snapshot {
    /// Fold another snapshot into this one (order-independent).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, g) in &other.gauges {
            let e = self.gauges.entry(name).or_insert(*g);
            // Strictly greater seq wins; global sequence numbers are
            // unique, so ties only happen for identical samples.
            if g.seq > e.seq {
                *e = *g;
            }
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
    }

    /// Counter value by name (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Last gauge value by name, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|g| g.value)
    }

    /// Histogram by name, if anything was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Render the report document. All maps are `BTreeMap`s, so the
    /// output is canonically ordered.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version").uint(1);
        w.key("counters").begin_object();
        for (name, v) in &self.counters {
            w.key(name).uint(*v);
        }
        w.end();
        w.key("gauges").begin_object();
        for (name, g) in &self.gauges {
            w.key(name).uint(g.value);
        }
        w.end();
        w.key("hists").begin_object();
        for (name, h) in &self.hists {
            w.key(name).begin_object();
            w.key("count").uint(h.count);
            w.key("sum").uint(h.sum);
            w.key("min").uint(if h.count == 0 { 0 } else { h.min });
            w.key("max").uint(h.max);
            w.key("buckets").begin_array();
            for (b, c) in h.nonzero_buckets() {
                w.begin_array().uint(b as u64).uint(c).end();
            }
            w.end();
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// Write the report to `path` (the CI artifact `OBS_report.json`).
    pub fn write_report(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.render_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("b.count", 2);
        s.counters.insert("a.count", 1);
        s.gauges.insert("q.depth", Gauge { seq: 5, value: 7 });
        let mut h = Hist::default();
        h.record(3);
        h.record(1024);
        s.hists.insert("lat.ns", h);
        s
    }

    #[test]
    fn json_is_sorted_and_compact() {
        let json = sample().render_json();
        let a = json.find("a.count").unwrap();
        let b = json.find("b.count").unwrap();
        assert!(a < b, "counters must render in name order:\n{json}");
        assert!(json.contains("\"q.depth\": 7"), "{json}");
        assert!(
            json.contains("\"buckets\": [[2, 1], [11, 1]]"),
            "only occupied buckets serialize:\n{json}"
        );
    }

    #[test]
    fn empty_snapshot_renders_empty_objects() {
        let json = Snapshot::default().render_json();
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"gauges\": {}"), "{json}");
        assert!(json.contains("\"hists\": {}"), "{json}");
    }

    #[test]
    fn merge_sums_counters_and_keeps_latest_gauge() {
        let mut a = sample();
        let mut b = Snapshot::default();
        b.counters.insert("a.count", 10);
        b.gauges.insert("q.depth", Gauge { seq: 9, value: 1 });
        a.merge(&b);
        assert_eq!(a.counter("a.count"), 11);
        assert_eq!(a.counter("b.count"), 2);
        assert_eq!(a.gauge("q.depth"), Some(1), "higher seq wins");
        let mut c = Snapshot::default();
        c.gauges.insert("q.depth", Gauge { seq: 2, value: 99 });
        a.merge(&c);
        assert_eq!(a.gauge("q.depth"), Some(1), "stale seq loses");
    }
}
