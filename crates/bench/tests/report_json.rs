//! Round-trip and escaping tests of the shared JSON writer behind the
//! structured experiment reports and the `BENCH_*.json` perf trajectories.
//!
//! There is no serde_json in the build container, so these tests include a
//! minimal strict JSON reader (objects, arrays, strings with escapes,
//! numbers, booleans, null) used to parse the writer's output back and
//! compare the decoded content — a genuine writer → parser round trip, not
//! a string comparison.

use optima_bench::json::Json;
use optima_bench::report::{Column, Report, Scalar, Table};

/// A minimal strict JSON value for round-trip checking.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(text: &'a str) -> Value {
        let mut parser = Parser::new(text);
        parser.skip_whitespace();
        let value = parser.parse_value();
        parser.skip_whitespace();
        assert_eq!(
            parser.pos,
            parser.bytes.len(),
            "trailing garbage after JSON"
        );
        value
    }

    fn peek(&self) -> u8 {
        self.bytes[self.pos]
    }

    fn bump(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, token: &str) {
        assert!(
            self.bytes[self.pos..].starts_with(token.as_bytes()),
            "expected {token:?} at byte {}",
            self.pos
        );
        self.pos += token.len();
    }

    fn parse_value(&mut self) -> Value {
        match self.peek() {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Value::Str(self.parse_string()),
            b't' => {
                self.expect("true");
                Value::Bool(true)
            }
            b'f' => {
                self.expect("false");
                Value::Bool(false)
            }
            b'n' => {
                self.expect("null");
                Value::Null
            }
            _ => self.parse_number(),
        }
    }

    fn parse_object(&mut self) -> Value {
        self.expect("{");
        self.skip_whitespace();
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.bump();
            return Value::Object(fields);
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string();
            self.skip_whitespace();
            self.expect(":");
            self.skip_whitespace();
            fields.push((key, self.parse_value()));
            self.skip_whitespace();
            match self.bump() {
                b',' => continue,
                b'}' => return Value::Object(fields),
                other => panic!("unexpected byte {other:?} in object"),
            }
        }
    }

    fn parse_array(&mut self) -> Value {
        self.expect("[");
        self.skip_whitespace();
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.bump();
            return Value::Array(items);
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value());
            self.skip_whitespace();
            match self.bump() {
                b',' => continue,
                b']' => return Value::Array(items),
                other => panic!("unexpected byte {other:?} in array"),
            }
        }
    }

    fn parse_string(&mut self) -> String {
        assert_eq!(self.bump(), b'"', "expected a string");
        let mut out = String::new();
        loop {
            match self.bump() {
                b'"' => return out,
                b'\\' => match self.bump() {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0c}'),
                    b'u' => {
                        let hex: String = (0..4).map(|_| self.bump() as char).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .unwrap_or_else(|_| panic!("bad \\u escape {hex:?}"));
                        out.push(char::from_u32(code).expect("valid BMP code point"));
                    }
                    other => panic!("unknown escape \\{}", other as char),
                },
                // Multi-byte UTF-8: recover the full character.
                b if b < 0x20 => panic!("raw control byte {b:#x} inside JSON string"),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    let start = self.pos - 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn parse_number(&mut self) -> Value {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Value::Number(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    match value {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing field {key:?}"))
                .1
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn report_json_round_trips_through_a_strict_parser() {
    // Strings chosen to hit every escape class: quotes, backslashes,
    // newlines, tabs, raw control characters and non-ASCII text.
    let nasty = "he said \"x\\y\"\nline2\ttab\u{01}bell é τ0";
    let mut table = Table::new(vec![Column::unit("tau0", "ns"), Column::plain(nasty)]);
    table.push_row(vec![Scalar::Float(0.16, 2), Scalar::text(nasty)]);
    table.push_row(vec![Scalar::Int(-7), Scalar::Suffixed(101.4, 0, "x")]);
    let mut report = Report::new();
    report
        .heading(1, "Title with \\ and \"quotes\"")
        .blank()
        .note(nasty)
        .metric("worst error", Scalar::Float(0.88, 2), Some("mV"))
        .hidden_metric("nan_metric", Scalar::Float(f64::NAN, 3), None)
        .table(table);

    let rendered = report.to_json().render();
    let parsed = Parser::parse_document(&rendered);

    let items = match &parsed {
        Value::Array(items) => items,
        other => panic!("expected a top-level array, got {other:?}"),
    };
    // Blank lines are layout-only: heading, note, 2 metrics, table.
    assert_eq!(items.len(), 5);

    assert_eq!(
        field(&items[0], "text"),
        &Value::Str("Title with \\ and \"quotes\"".to_string())
    );
    // The nasty note string survives the escape → unescape round trip.
    assert_eq!(field(&items[1], "text"), &Value::Str(nasty.to_string()));
    assert_eq!(
        field(&items[2], "key"),
        &Value::Str("worst error".to_string())
    );
    assert_eq!(field(&items[2], "value"), &Value::Number(0.88));
    assert_eq!(field(&items[2], "unit"), &Value::Str("mV".to_string()));
    // Non-finite metric values have no JSON representation: null.
    assert_eq!(field(&items[3], "value"), &Value::Null);

    let rows = match field(&items[4], "rows") {
        Value::Array(rows) => rows,
        other => panic!("expected rows array, got {other:?}"),
    };
    assert_eq!(rows.len(), 2);
    match &rows[0] {
        Value::Array(cells) => {
            assert_eq!(cells[0], Value::Number(0.16));
            assert_eq!(cells[1], Value::Str(nasty.to_string()));
        }
        other => panic!("expected a cell array, got {other:?}"),
    }
    // Suffixed scalars keep a numeric value and preserve the (trimmed)
    // suffix, which may carry a per-cell unit.
    match &rows[1] {
        Value::Array(cells) => {
            assert_eq!(cells[0], Value::Number(-7.0));
            assert_eq!(field(&cells[1], "value"), &Value::Number(101.0));
            assert_eq!(field(&cells[1], "suffix"), &Value::Str("x".to_string()));
        }
        other => panic!("expected a cell array, got {other:?}"),
    }

    // Column units round-trip as string-or-null.
    let columns = match field(&items[4], "columns") {
        Value::Array(columns) => columns,
        other => panic!("expected columns array, got {other:?}"),
    };
    assert_eq!(field(&columns[0], "unit"), &Value::Str("ns".to_string()));
    assert_eq!(field(&columns[1], "unit"), &Value::Null);
    assert_eq!(field(&columns[1], "name"), &Value::Str(nasty.to_string()));
}

#[test]
fn nested_envelope_documents_round_trip() {
    // An envelope object holding an array of nested objects.
    let document = Json::object(vec![
        ("report", Json::str("dnn-inference-hot-path")),
        ("profile", Json::str("fast")),
        ("quantized_equivalence", Json::str("bit-identical")),
        (
            "workloads",
            Json::Array(vec![Json::object(vec![
                ("name", Json::str("conv2d_forward")),
                ("iterations", Json::Int(30)),
                ("baseline_seconds", Json::Fixed(0.123456789, 6)),
                ("speedup", Json::Fixed(8.7, 2)),
            ])]),
        ),
    ]);
    let parsed = Parser::parse_document(&document.render());
    assert_eq!(
        field(&parsed, "quantized_equivalence"),
        &Value::Str("bit-identical".to_string())
    );
    let workloads = match field(&parsed, "workloads") {
        Value::Array(workloads) => workloads,
        other => panic!("expected workloads array, got {other:?}"),
    };
    // Fixed-precision floats are truncated to their declared decimals.
    assert_eq!(
        field(&workloads[0], "baseline_seconds"),
        &Value::Number(0.123457)
    );
    assert_eq!(field(&workloads[0], "iterations"), &Value::Number(30.0));
}

#[test]
fn empty_reports_are_detectable() {
    let report = Report::new();
    assert!(report.is_empty());
    assert_eq!(report.to_json().render(), "[]\n");
}
