//! Structured experiment reports.
//!
//! Every [`crate::experiments::Experiment`] returns a [`Report`]: an ordered
//! sequence of headings, prose notes, typed tables (columns carry units) and
//! key/scalar metrics.  Two deterministic renderers consume it:
//!
//! * [`Report::render_text`] — the human-readable form.  It reproduces the
//!   Markdown-table conventions of the original per-binary `println!`
//!   harnesses byte-for-byte (golden-tested).
//! * [`Report::to_json`] — the machine-readable form, emitted through the
//!   shared hand-rolled serializer in [`crate::json`] (the same one behind
//!   `BENCH_serving.json`/`BENCH_reliability.json`).
//!
//! Tables are *typed*: a cell is a [`Scalar`] carrying its numeric value and
//! display precision, so the JSON output exposes real numbers while the text
//! renderer prints the exact historical formatting.

use crate::json::Json;

/// One typed cell or metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// An integer, rendered via `Display`.
    Int(i64),
    /// A float rendered with a fixed number of decimals.
    Float(f64, usize),
    /// A float rendered with fixed decimals and a display suffix glued on
    /// (e.g. `102x`); the JSON form stays numeric.
    Suffixed(f64, usize, &'static str),
    /// Free-form text.
    Text(String),
}

impl Scalar {
    /// Convenience constructor for text cells.
    pub fn text(value: impl Into<String>) -> Self {
        Scalar::Text(value.into())
    }

    /// The exact text-renderer form.
    pub fn render(&self) -> String {
        match self {
            Scalar::Int(i) => i.to_string(),
            Scalar::Float(v, precision) => format!("{v:.precision$}"),
            Scalar::Suffixed(v, precision, suffix) => format!("{v:.precision$}{suffix}"),
            Scalar::Text(s) => s.clone(),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Scalar::Int(i) => Json::Int(*i),
            Scalar::Float(v, precision) => Json::Fixed(*v, *precision),
            // The suffix often carries a per-cell unit (tables whose column
            // mixes mV and fJ rows) — keep the value numeric but preserve
            // the suffix so JSON consumers don't lose it.
            Scalar::Suffixed(v, precision, suffix) => Json::object(vec![
                ("value", Json::Fixed(*v, *precision)),
                ("suffix", Json::str(suffix.trim())),
            ]),
            Scalar::Text(s) => Json::str(s.clone()),
        }
    }
}

/// A table column: header text plus an optional unit.
///
/// The text renderer prints `header [unit]` when a unit is present — the
/// bracket convention of every table of the original harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub header: String,
    pub unit: Option<String>,
}

impl Column {
    /// A unit-less column.
    pub fn plain(header: impl Into<String>) -> Self {
        Column {
            header: header.into(),
            unit: None,
        }
    }

    /// A column with a unit, rendered as `header [unit]`.
    pub fn unit(header: impl Into<String>, unit: impl Into<String>) -> Self {
        Column {
            header: header.into(),
            unit: Some(unit.into()),
        }
    }

    fn render(&self) -> String {
        match &self.unit {
            Some(unit) => format!("{} [{}]", self.header, unit),
            None => self.header.clone(),
        }
    }
}

/// A typed table with unit-annotated columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub columns: Vec<Column>,
    pub rows: Vec<Vec<Scalar>>,
}

impl Table {
    /// Creates an empty table over `columns`.
    pub fn new(columns: Vec<Column>) -> Self {
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row width does not match the column count — a
    /// malformed table is an experiment bug, not a recoverable condition.
    pub fn push_row(&mut self, row: Vec<Scalar>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table row width must match the declared columns"
        );
        self.rows.push(row);
    }

    fn render_text(&self, out: &mut String) {
        let header: Vec<String> = self.columns.iter().map(Column::render).collect();
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Scalar::render).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
    }

    fn columns_json(&self) -> Json {
        Json::Array(
            self.columns
                .iter()
                .map(|c| {
                    Json::object(vec![
                        ("name", Json::str(c.header.clone())),
                        ("unit", c.unit.clone().map(Json::Str).unwrap_or(Json::Null)),
                    ])
                })
                .collect(),
        )
    }

    fn rows_json(&self) -> Json {
        Json::Array(
            self.rows
                .iter()
                .map(|row| Json::Array(row.iter().map(Scalar::to_json).collect()))
                .collect(),
        )
    }
}

/// How a metric appears in the text rendering (it is always in the JSON).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricDisplay {
    /// `key: value unit`
    KeyValue,
    /// A verbatim line (for prose that embeds the value).
    Line(String),
    /// JSON-only; the surrounding prose is carried by separate notes.
    Hidden,
}

/// One key/scalar metric with an optional unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub key: String,
    pub value: Scalar,
    pub unit: Option<String>,
    pub display: MetricDisplay,
}

/// One ordered element of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A Markdown heading (`#`, `##`, ... according to `level`).
    Heading {
        level: usize,
        text: String,
    },
    /// One verbatim prose line.
    Note(String),
    /// An empty line.
    Blank,
    Metric(Metric),
    Table(Table),
}

/// A structured experiment report: ordered headings, notes, metrics and
/// typed tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    items: Vec<Item>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    /// The ordered items (for tests and renderers).
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// A report with no items carries no evidence; the runner treats it as
    /// an experiment failure.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn heading(&mut self, level: usize, text: impl Into<String>) -> &mut Self {
        self.items.push(Item::Heading {
            level,
            text: text.into(),
        });
        self
    }

    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.items.push(Item::Note(text.into()));
        self
    }

    pub fn blank(&mut self) -> &mut Self {
        self.items.push(Item::Blank);
        self
    }

    /// A metric rendered as `key: value unit`.
    pub fn metric(
        &mut self,
        key: impl Into<String>,
        value: Scalar,
        unit: Option<&str>,
    ) -> &mut Self {
        self.items.push(Item::Metric(Metric {
            key: key.into(),
            value,
            unit: unit.map(str::to_string),
            display: MetricDisplay::KeyValue,
        }));
        self
    }

    /// A metric whose text form is the verbatim `line` (prose embedding the
    /// value); the typed value still lands in the JSON.
    pub fn metric_line(
        &mut self,
        key: impl Into<String>,
        value: Scalar,
        unit: Option<&str>,
        line: impl Into<String>,
    ) -> &mut Self {
        self.items.push(Item::Metric(Metric {
            key: key.into(),
            value,
            unit: unit.map(str::to_string),
            display: MetricDisplay::Line(line.into()),
        }));
        self
    }

    /// A JSON-only metric (the surrounding prose is carried by notes).
    pub fn hidden_metric(
        &mut self,
        key: impl Into<String>,
        value: Scalar,
        unit: Option<&str>,
    ) -> &mut Self {
        self.items.push(Item::Metric(Metric {
            key: key.into(),
            value,
            unit: unit.map(str::to_string),
            display: MetricDisplay::Hidden,
        }));
        self
    }

    pub fn table(&mut self, table: Table) -> &mut Self {
        self.items.push(Item::Table(table));
        self
    }

    /// Renders the human-readable text form; every line is `\n`-terminated.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Heading { level, text } => {
                    out.push_str(&"#".repeat((*level).max(1)));
                    out.push(' ');
                    out.push_str(text);
                    out.push('\n');
                }
                Item::Note(text) => {
                    out.push_str(text);
                    out.push('\n');
                }
                Item::Blank => out.push('\n'),
                Item::Metric(metric) => match &metric.display {
                    MetricDisplay::KeyValue => {
                        out.push_str(&metric.key);
                        out.push_str(": ");
                        out.push_str(&metric.value.render());
                        if let Some(unit) = &metric.unit {
                            out.push(' ');
                            out.push_str(unit);
                        }
                        out.push('\n');
                    }
                    MetricDisplay::Line(line) => {
                        out.push_str(line);
                        out.push('\n');
                    }
                    MetricDisplay::Hidden => {}
                },
                Item::Table(table) => table.render_text(&mut out),
            }
        }
        out
    }

    /// The machine-readable form: an ordered item array.  Blank lines are
    /// layout, not data, and are omitted; hidden metrics are included.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.items
                .iter()
                .filter_map(|item| match item {
                    Item::Heading { level, text } => Some(Json::object(vec![
                        ("type", Json::str("heading")),
                        ("level", Json::Int(*level as i64)),
                        ("text", Json::str(text.clone())),
                    ])),
                    Item::Note(text) => Some(Json::object(vec![
                        ("type", Json::str("note")),
                        ("text", Json::str(text.clone())),
                    ])),
                    Item::Blank => None,
                    Item::Metric(metric) => Some(Json::object(vec![
                        ("type", Json::str("metric")),
                        ("key", Json::str(metric.key.clone())),
                        ("value", metric.value.to_json()),
                        (
                            "unit",
                            metric.unit.clone().map(Json::Str).unwrap_or(Json::Null),
                        ),
                    ])),
                    Item::Table(table) => Some(Json::object(vec![
                        ("type", Json::str("table")),
                        ("columns", table.columns_json()),
                        ("rows", table.rows_json()),
                    ])),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_matches_the_legacy_table_conventions() {
        let mut table = Table::new(vec![Column::unit("t", "ns"), Column::plain("VDD=0.9 V")]);
        table.push_row(vec![Scalar::Float(0.5, 1), Scalar::Float(0.8149, 4)]);
        let mut report = Report::new();
        report
            .heading(1, "Fig. X — demo")
            .blank()
            .table(table)
            .blank()
            .note("closing prose.");
        assert_eq!(
            report.render_text(),
            concat!(
                "# Fig. X — demo\n",
                "\n",
                "| t [ns] | VDD=0.9 V |\n",
                "|---|---|\n",
                "| 0.5 | 0.8149 |\n",
                "\n",
                "closing prose.\n"
            )
        );
    }

    #[test]
    fn metric_display_modes() {
        let mut report = Report::new();
        report
            .metric("worst error", Scalar::Float(0.88, 2), Some("mV"))
            .metric_line(
                "speedup",
                Scalar::Suffixed(4.0, 0, "x"),
                None,
                "went 4x faster",
            )
            .hidden_metric("samples", Scalar::Int(100), None);
        assert_eq!(
            report.render_text(),
            "worst error: 0.88 mV\nwent 4x faster\n"
        );
        // All three metrics are present in the JSON.
        match report.to_json() {
            Json::Array(items) => assert_eq!(items.len(), 3),
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_are_rejected() {
        let mut table = Table::new(vec![Column::plain("a"), Column::plain("b")]);
        table.push_row(vec![Scalar::Int(1)]);
    }
}
