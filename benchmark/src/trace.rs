//! Spans around the calls into each layer, recorded from the benchmark's
//! own files: name, start, end and the span that caused it. Spans stay in
//! memory until the workload ends and are then written as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

use crate::contract::json_string;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<stage>`; the layer is the crate the call goes into.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// An extra call an untraced iteration does not make (it exists only
    /// to attribute cost to a layer); excluded from the tracing overhead.
    pub extra: bool,
}

impl Span {
    /// Length of the span in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Switched off it reads no clock and records nothing, so
/// the traced and untraced iterations share one pipeline.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer { origin: Instant::now(), enabled: true, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that only forwards calls.
    pub fn off() -> Tracer {
        Tracer { enabled: false, ..Tracer::on() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span called `name`, nested in the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, false, f)
    }

    /// Run `f`, a call only the traced iteration makes, inside a span.
    pub fn extra<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        extra: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns, extra });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total seconds inside spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.total_ns(|s| s.name == name) as f64 / 1e9
    }

    /// Total seconds inside the extra calls.
    pub fn extra_seconds(&self) -> f64 {
        self.total_ns(|s| s.extra) as f64 / 1e9
    }

    fn total_ns(&self, pick: impl Fn(&Span) -> bool) -> u64 {
        self.spans.iter().filter(|s| pick(s)).map(Span::duration_ns).sum()
    }

    /// Self time of span `id`: its duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// The spans as Chrome trace-event JSON, each tagged with the workload
    /// and iteration it belongs to.
    pub fn chrome_json(&self, workload: &str, iteration: usize) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let _ = writeln!(
                s,
                "  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
                 \"workload\": {}, \"iteration\": {iteration}, \"extra\": {}, \
                 \"self_us\": {:.3}}}}}{comma}",
                json_string(span.name),
                json_string(layer),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                json_string(workload),
                span.extra,
                self.self_ns(id) as f64 / 1e3,
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() -> u64 {
        std::hint::black_box((0..20_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31)))
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("a.root", |t| {
            t.span("b.child", |_| spin());
            t.extra("b.probe", |_| spin());
            spin()
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[2].extra && !spans[1].extra);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(t.self_ns(0), spans[0].duration_ns() - children);
        assert_eq!(t.self_ns(1), spans[1].duration_ns());
        assert!((t.extra_seconds() - spans[2].duration_ns() as f64 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing_but_still_runs_the_work() {
        let mut t = Tracer::off();
        let v = t.span("a.root", |t| t.span("b.child", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.seconds("a.root"), 0.0);
    }

    #[test]
    fn chrome_json_lists_every_span_with_its_parent() {
        let mut t = Tracer::on();
        t.span("a.root", |t| t.span("b.child", |_| spin()));
        let json = t.chrome_json("wl", 3);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"b.child\", \"cat\": \"b\""));
        assert!(json.contains("\"parent\": 0, \"workload\": \"wl\", \"iteration\": 3"));
        assert!(json.contains("\"parent\": null"));
    }
}
