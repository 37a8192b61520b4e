//! In-memory span and count recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer, on the benchmark's thread, so they nest strictly: a span's self
//! time is its duration minus the durations of its direct children.  With
//! tracing off every call is a no-op apart from running the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.calibration.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier of the unit of work the span belongs to.
    pub unit: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (inert when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; with `enabled = false` nothing is recorded.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Sets the unit identifier attached to subsequent spans.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id` together with any span opened inside it and left open
    /// (an early error return between `begin` and `end`).
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = f();
        self.end(id);
        result
    }

    /// Adds `value` to the count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The accumulated count `name` (0 when never recorded).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total duration (seconds) and number of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .fold((0.0, 0), |(sum, n), span| (sum + span.seconds(), n + 1))
    }

    /// Total duration (seconds) of the spans named `name` in unit `unit`.
    pub fn total_in_unit(&self, name: &str, unit: u64) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.name == name && span.unit == unit)
            .map(Span::seconds)
            .sum()
    }

    /// Mean duration (seconds) of the spans named `name`, 0 when none.
    pub fn mean(&self, name: &str) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (sum, n) => sum / n as f64,
        }
    }

    /// Self time (seconds) of every span: its duration minus the durations
    /// of its direct children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut self_times: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_times[parent] -= span.seconds();
            }
        }
        self_times
    }

    /// Self time (seconds) per span name over the spans named `root` and
    /// everything nested in them, plus the total duration of the roots.
    /// The self times sum to that total.
    pub fn self_times_within(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
        let mut inside = vec![false; self.spans.len()];
        let mut by_name = BTreeMap::new();
        let mut total = 0.0;
        for ((index, span), self_time) in self.spans.iter().enumerate().zip(self.self_times()) {
            // A parent is always recorded before its children.
            inside[index] = span.name == root || span.parent.is_some_and(|p| inside[p]);
            if span.name == root {
                total += span.seconds();
            }
            if inside[index] {
                *by_name.entry(span.name).or_insert(0.0) += self_time;
            }
        }
        (by_name, total)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.unit
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("a", || 7);
        tracer.count("c", 1.0);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.counted("c"), 0.0);
    }

    #[test]
    fn self_times_subtract_direct_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        tracer.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        let self_times = tracer.self_times();
        let total: f64 = self_times.iter().sum();
        assert!((total - spans[0].seconds()).abs() < 1e-9);
        assert!(self_times[1] >= 0.002);
        tracer.span("outside", || ());
        let (by_name, root_total) = tracer.self_times_within("outer");
        assert_eq!(
            by_name.keys().copied().collect::<Vec<_>>(),
            ["inner", "outer"]
        );
        assert!((by_name.values().sum::<f64>() - root_total).abs() < 1e-9);
    }
}
