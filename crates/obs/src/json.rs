//! The one JSON writer of the workspace: `OBS_report.json`, the Chrome
//! trace, `ANALYZE_report.json` and the `BENCH_*.json` bench reports are
//! all written through [`JsonWriter`], so there is one escaping rule and
//! one layout.
//!
//! Callers open containers, name object members with
//! [`JsonWriter::key`], write values, and close containers in order.
//! Numbers are unsigned integers, or floats at a fixed number of
//! decimals, so every document states the precision of its measurements.
//!
//! Layout: the document root, and each container that is a member of a
//! root object, put one element per line, indented two spaces per level.
//! Every other container goes on one line, with `", "` between elements.
//! Keys are followed by `": "`. A Chrome trace (a root array) thus holds
//! one event per line, and a report's rows stay one line each.

use std::fmt::Write as _;

/// A streaming JSON document writer. See the [module docs](self).
///
/// Misuse (a value in an object without a key, a key outside an object,
/// unbalanced `end`, `finish` with containers open) is a bug in the
/// caller and panics.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// Open containers, innermost last.
    open: Vec<Open>,
    /// A key was written and its value is still due.
    after_key: bool,
}

struct Open {
    /// `}` or `]`.
    close: char,
    /// Elements go one per line.
    multiline: bool,
    /// No element written yet.
    empty: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name the next member of the innermost open object.
    pub fn key(&mut self, name: &str) -> &mut Self {
        let in_object = matches!(self.open.last(), Some(o) if o.close == '}');
        assert!(in_object && !self.after_key, "JsonWriter: misplaced key {name:?}");
        self.separate();
        escape_into(&mut self.out, name);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.start_value();
        escape_into(&mut self.out, s);
        self
    }

    /// An unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.literal(v)
    }

    /// A float value with exactly `decimals` digits after the point
    /// (`{:.N}`). JSON has no NaN or infinity: a non-finite `v` is `null`.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.literal(format_args!("{v:.decimals$}"))
    }

    /// A boolean value.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.literal(b)
    }

    /// A `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.literal("null")
    }

    /// A value written as its `Display` text.
    fn literal(&mut self, v: impl std::fmt::Display) -> &mut Self {
        self.start_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Open an object as the next value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{', '}')
    }

    /// Open an array as the next value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[', ']')
    }

    /// Close the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        assert!(!self.after_key, "JsonWriter: end() right after a key");
        let o = self.open.pop().expect("JsonWriter: end() with no open container");
        if o.multiline && !o.empty {
            self.newline_indent();
        }
        self.out.push(o.close);
        self
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "JsonWriter: finish() with open containers");
        self.out.push('\n');
        self.out
    }

    fn begin(&mut self, open: char, close: char) -> &mut Self {
        self.start_value();
        let multiline = match self.open.as_slice() {
            [] => true,
            [root] => root.close == '}',
            _ => false,
        };
        self.out.push(open);
        self.open.push(Open { close, multiline, empty: true });
        self
    }

    /// Consume a pending key, or else separate an array element.
    fn start_value(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        match self.open.last() {
            None => assert!(self.out.is_empty(), "JsonWriter: second root value"),
            Some(o) => {
                assert!(o.close == ']', "JsonWriter: object member without a key");
                self.separate();
            }
        }
    }

    /// The separator before an element of the innermost container.
    fn separate(&mut self) {
        let o = self.open.last_mut().expect("inside a container");
        let first = std::mem::replace(&mut o.empty, false);
        let multiline = o.multiline;
        if !first {
            self.out.push(',');
        }
        if multiline {
            self.newline_indent();
        } else if !first {
            self.out.push(' ');
        }
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in &self.open {
            self.out.push_str("  ");
        }
    }
}

/// The one JSON string escape: `"` and `\` get a backslash, `\n`, `\r`
/// and `\t` their short forms, the rest of U+0000–U+001F `\u00XX`;
/// everything else, non-ASCII included, passes through unchanged.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string_doc(s: &str) -> String {
        let mut w = JsonWriter::new();
        w.str(s);
        w.finish()
    }

    #[test]
    fn every_control_character_quote_and_backslash_escapes() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let expected = match c {
                '\n' => "\"\\n\"\n".to_string(),
                '\r' => "\"\\r\"\n".to_string(),
                '\t' => "\"\\t\"\n".to_string(),
                _ => format!("\"\\u{code:04x}\"\n"),
            };
            let doc = string_doc(&c.to_string());
            assert_eq!(doc, expected, "U+{code:04X}");
            assert!(!doc[..doc.len() - 1].chars().any(|c| u32::from(c) < 0x20), "U+{code:04X}");
        }
        assert_eq!(string_doc("a\"b"), "\"a\\\"b\"\n");
        assert_eq!(string_doc("a\\b"), "\"a\\\\b\"\n");
        assert_eq!(string_doc("\\\""), "\"\\\\\\\"\"\n");
    }

    #[test]
    fn non_ascii_passes_through_unchanged() {
        assert_eq!(string_doc("µs → Δ 日本 🦀 \u{7f}"), "\"µs → Δ 日本 🦀 \u{7f}\"\n");
    }

    #[test]
    fn keys_escape_like_values() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a\"\u{1}").null().end();
        assert_eq!(w.finish(), "{\n  \"a\\\"\\u0001\": null\n}\n");
    }

    #[test]
    fn empty_containers_render_bare() {
        let mut w = JsonWriter::new();
        w.begin_object().end();
        assert_eq!(w.finish(), "{}\n");
        let mut w = JsonWriter::new();
        w.begin_array().end();
        assert_eq!(w.finish(), "[]\n");
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("o").begin_object().end();
        w.key("a").begin_array().end();
        w.key("deep").begin_object().key("x").begin_array().end().end();
        w.end();
        assert_eq!(
            w.finish(),
            "{\n  \"o\": {},\n  \"a\": [],\n  \"deep\": {\n    \"x\": []\n  }\n}\n"
        );
    }

    #[test]
    fn nested_containers_follow_the_one_layout_without_trailing_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version").uint(1);
        w.key("rows").begin_array();
        for i in 0..2 {
            w.begin_object().key("i").uint(i).key("ok").bool(i == 0);
            w.key("pairs").begin_array();
            w.begin_array().uint(i).uint(7).end();
            w.end();
            w.end();
        }
        w.end();
        w.key("counts").begin_object().key("a").uint(3).key("b").uint(4).end();
        w.end();
        assert_eq!(
            w.finish(),
            "{\n  \"version\": 1,\n  \"rows\": [\n    \
             {\"i\": 0, \"ok\": true, \"pairs\": [[0, 7]]},\n    \
             {\"i\": 1, \"ok\": false, \"pairs\": [[1, 7]]}\n  ],\n  \
             \"counts\": {\n    \"a\": 3,\n    \"b\": 4\n  }\n}\n"
        );
    }

    #[test]
    fn root_array_puts_one_element_per_line() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.begin_object().key("name").str("a").key("ts").fixed(1.5, 3).end();
        w.begin_object().key("name").str("b").end();
        w.end();
        assert_eq!(w.finish(), "[\n  {\"name\": \"a\", \"ts\": 1.500},\n  {\"name\": \"b\"}\n]\n");
    }

    #[test]
    fn fixed_numbers_keep_the_requested_digits() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.fixed(2.0, 3).fixed(2.41851, 3).fixed(0.000_012_345_678_9, 9).fixed(1.0 / 3.0, 6);
        w.fixed(1.0, 0).fixed(-0.5, 1).fixed(f64::NAN, 3).fixed(f64::INFINITY, 3);
        w.uint(u64::MAX);
        w.end();
        assert_eq!(
            w.finish(),
            "[\n  2.000,\n  2.419,\n  0.000012346,\n  0.333333,\n  1,\n  -0.5,\n  null,\n  \
             null,\n  18446744073709551615\n]\n"
        );
    }

    #[test]
    #[should_panic(expected = "without a key")]
    fn object_member_without_key_panics() {
        let mut w = JsonWriter::new();
        w.begin_object().uint(1);
    }

    #[test]
    #[should_panic(expected = "open containers")]
    fn unfinished_document_panics() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.finish();
    }
}
