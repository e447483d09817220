//! Human and JSON rendering of an analysis run. The JSON document goes
//! through the workspace's one writer, `bitrobust_obs::json`, whose
//! string escaping covers the arbitrary source text finding messages
//! quote.

use bitrobust_obs::json::JsonWriter;

use crate::baseline::{BaselineEntry, BaselineError};
use crate::rules::Finding;

/// Everything one run produced, ready to render.
pub struct Report {
    /// Findings not covered by the baseline (these fail `--deny`).
    pub fresh: Vec<Finding>,
    /// Findings grandfathered by a baseline entry.
    pub baselined: Vec<Finding>,
    /// Baseline entries that matched nothing (violations: delete them).
    pub stale: Vec<BaselineEntry>,
    /// Baseline lines that failed to parse (violations).
    pub baseline_errors: Vec<BaselineError>,
    /// Findings masked by inline `analyze:allow`s.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Total count of conditions that fail a `--deny` run.
    pub fn violations(&self) -> usize {
        self.fresh.len() + self.stale.len() + self.baseline_errors.len()
    }

    /// The human-readable listing printed to stdout.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.fresh {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                f.path, f.line, f.rule, f.message, f.snippet
            ));
        }
        for f in &self.baselined {
            out.push_str(&format!(
                "{}:{}: [{}] baselined: {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        for e in &self.stale {
            out.push_str(&format!(
                "ANALYZE_baseline.txt:{}: stale entry ({} in {}): the finding no longer \
                 exists — delete the line\n",
                e.file_line, e.rule, e.path
            ));
        }
        for e in &self.baseline_errors {
            out.push_str(&format!("ANALYZE_baseline.txt:{}: {}\n", e.file_line, e.message));
        }
        out.push_str(&format!(
            "bitrobust-analyze: {} file(s), {} violation(s) ({} fresh, {} stale baseline, \
             {} baseline error(s)); {} baselined, {} suppressed by analyze:allow\n",
            self.files_scanned,
            self.violations(),
            self.fresh.len(),
            self.stale.len(),
            self.baseline_errors.len(),
            self.baselined.len(),
            self.suppressed,
        ));
        out
    }

    /// The machine-readable document uploaded as the CI artifact.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version").uint(1);
        w.key("files_scanned").uint(self.files_scanned as u64);
        w.key("violations").uint(self.violations() as u64);
        w.key("suppressed").uint(self.suppressed as u64);

        w.key("findings").begin_array();
        let all =
            self.fresh.iter().map(|f| (f, false)).chain(self.baselined.iter().map(|f| (f, true)));
        for (f, baselined) in all {
            w.begin_object();
            w.key("rule").str(f.rule).key("path").str(&f.path).key("line").uint(f.line as u64);
            w.key("baselined").bool(baselined);
            w.key("message").str(&f.message).key("snippet").str(&f.snippet);
            w.end();
        }
        w.end();

        w.key("stale_baseline").begin_array();
        for e in &self.stale {
            w.begin_object();
            w.key("rule").str(&e.rule).key("path").str(&e.path);
            w.key("file_line").uint(e.file_line as u64);
            w.end();
        }
        w.end();

        // Per-rule counts over all findings (fresh + baselined), so the
        // artifact graphs rule activity even when CI is green.
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for f in self.fresh.iter().chain(&self.baselined) {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        w.key("counts").begin_object();
        for (rule, n) in counts {
            w.key(rule).uint(n as u64);
        }
        w.end();
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(fresh: Vec<Finding>) -> Report {
        Report {
            fresh,
            baselined: Vec::new(),
            stale: Vec::new(),
            baseline_errors: Vec::new(),
            suppressed: 0,
            files_scanned: 3,
        }
    }

    fn finding(snippet: &str) -> Finding {
        Finding {
            rule: "cast-boundary",
            path: "crates/quant/src/scheme.rs".to_string(),
            line: 9,
            message: "bare `as f32`".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn json_escapes_quotes_and_backslashes_in_snippets() {
        let r = report_with(vec![finding(r#"let s = "a\"b" as f32; \ tab:	end"#)]);
        let json = r.render_json();
        assert!(json.contains(r#"\"a\\\"b\""#), "{json}");
        assert!(json.contains("\\t"), "{json}");
        // No raw control characters or unescaped quotes survive.
        assert!(!json.contains('\t'));
    }

    #[test]
    fn empty_report_renders_valid_empty_arrays() {
        let r = report_with(Vec::new());
        let json = r.render_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"stale_baseline\": []"));
        assert!(json.contains("\"violations\": 0"));
    }

    #[test]
    fn violations_count_includes_stale_and_errors() {
        let mut r = report_with(vec![finding("x as f32")]);
        r.stale.push(crate::baseline::BaselineEntry {
            rule: "det-rng".into(),
            path: "a.rs".into(),
            hash: 1,
            reason: "r".into(),
            file_line: 4,
        });
        r.baseline_errors
            .push(crate::baseline::BaselineError { file_line: 9, message: "bad".into() });
        assert_eq!(r.violations(), 3);
        let text = r.render_text();
        assert!(text.contains("3 violation(s)"));
        assert!(text.contains("stale entry"));
    }

    #[test]
    fn counts_aggregate_fresh_and_baselined_by_rule() {
        let mut r = report_with(vec![finding("a as f32"), finding("b as f32")]);
        r.baselined.push(finding("c as f32"));
        let json = r.render_json();
        assert!(json.contains("\"cast-boundary\": 3"), "{json}");
    }
}
