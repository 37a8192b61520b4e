//! Minimal hand-rolled JSON document model and writer.
//!
//! The workspace has no serde_json, so every machine-readable artifact of
//! the crate — the structured experiment reports of [`crate::report`] and
//! the `BENCH_serving.json`/`BENCH_reliability.json` sweeps — is emitted
//! through this one serializer instead of per-file `format!` templates.
//!
//! The model is deliberately tiny: ordered objects (insertion order is
//! preserved, so output is deterministic), arrays, strings with full RFC 8259
//! escaping, integers, and floats.  Floats come in two flavours:
//! [`Json::Float`] renders via Rust's shortest-round-trip `Display`, while
//! [`Json::Fixed`] renders with a fixed number of decimals (the convention of
//! the perf reports).  Non-finite floats have no JSON representation and are
//! written as `null`.

use std::fmt::Write as _;

/// A JSON value with deterministic, insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    /// Rendered via `f64`'s shortest-round-trip `Display`; `NaN`/`±inf`
    /// become `null`.
    Float(f64),
    /// Rendered with a fixed decimal count (`format!("{:.*}")`);
    /// `NaN`/`±inf` become `null`.
    Fixed(f64, usize),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(value: impl Into<String>) -> Self {
        Json::Str(value.into())
    }

    /// Convenience constructor for an ordered object.
    pub fn object(fields: Vec<(&str, Json)>) -> Self {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Pretty-prints the document with two-space indentation and a trailing
    /// newline — the on-disk convention of every JSON artifact in this repo.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Fixed(v, precision) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.precision$}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Writes `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters (`\u00XX` for the ones without a short form).
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_every_special_class() {
        let mut out = String::new();
        write_escaped("a\"b\\c\nd\te\u{01}f\u{08}\u{0c}é", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\\b\\fé\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
        assert_eq!(Json::Fixed(f64::INFINITY, 3).render(), "null\n");
    }

    #[test]
    fn fixed_floats_keep_their_precision() {
        assert_eq!(Json::Fixed(1.5, 6).render(), "1.500000\n");
        assert_eq!(Json::Float(0.1).render(), "0.1\n");
    }

    #[test]
    fn renders_nested_documents_deterministically() {
        let doc = Json::object(vec![
            ("name", Json::str("x")),
            ("values", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Array(vec![])),
            ("nested", Json::object(vec![("ok", Json::Bool(true))])),
        ]);
        assert_eq!(
            doc.render(),
            concat!(
                "{\n",
                "  \"name\": \"x\",\n",
                "  \"values\": [\n    1,\n    2\n  ],\n",
                "  \"empty\": [],\n",
                "  \"nested\": {\n    \"ok\": true\n  }\n",
                "}\n"
            )
        );
    }
}
