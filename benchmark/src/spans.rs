//! Spans recorded by the benchmark around its calls into each layer, the
//! self-time / coverage arithmetic over them, and the `.spans.jsonl` file.
//!
//! The program's own `Trace` keeps per-phase *totals* for one query, not
//! individual spans, so each phase becomes one span per request: its
//! duration is the measured total, its start is laid out after its earlier
//! siblings inside the parent.  Durations are measured; positions inside a
//! parent are a layout.  The README says which spans are computed.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json;

/// The layers a span (and so a share of wall-clock) can belong to.  A
/// root `client` span's self time is what no layer accounted for.
pub const LAYERS: [&str; 7] = [
    "walks", "cache", "core", "rankjoin", "engine", "server", "router",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    /// `0` for the root span of a trace.
    pub parent_id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Spans of one traced run, kept in memory until the run ends.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    next_trace: u64,
    next_span: u64,
}

/// Builds one request's tree: children are laid out back to back from the
/// parent's start and clipped to its end.
pub struct TraceBuilder<'l> {
    log: &'l mut SpanLog,
    trace_id: u64,
    /// Per open span: where its next child starts.
    cursor: HashMap<u64, f64>,
}

impl SpanLog {
    /// Opens a new trace whose root is `client.request` over
    /// `[start_us, end_us]`; returns the builder and the root's id.
    pub fn begin(&mut self, start_us: f64, end_us: f64) -> (TraceBuilder<'_>, u64) {
        self.next_trace += 1;
        let trace_id = self.next_trace;
        let mut builder = TraceBuilder {
            log: self,
            trace_id,
            cursor: HashMap::new(),
        };
        let root = builder.push(0, "client", "request", start_us, end_us);
        (builder, root)
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for span in &self.spans {
            let _ = writeln!(
                out,
                "{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"layer\":{},\"name\":{},\"start_us\":{},\"end_us\":{}}}",
                span.trace_id,
                span.span_id,
                span.parent_id,
                json::quote(span.layer),
                json::quote(span.name),
                json::number(span.start_us),
                json::number(span.end_us),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl TraceBuilder<'_> {
    fn push(
        &mut self,
        parent_id: u64,
        layer: &'static str,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        self.log.next_span += 1;
        let span_id = self.log.next_span;
        self.log.spans.push(Span {
            trace_id: self.trace_id,
            span_id,
            parent_id,
            layer,
            name,
            start_us,
            end_us,
        });
        self.cursor.insert(span_id, start_us);
        span_id
    }

    /// Adds a child of `parent` lasting `duration_us`, placed after the
    /// parent's earlier children; returns its id.  Zero-length children
    /// are recorded too (a cache hit the program only counted).
    pub fn child(
        &mut self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        duration_us: f64,
    ) -> u64 {
        let parent_end = self
            .log
            .spans
            .iter()
            .rev()
            .find(|s| s.span_id == parent)
            .map_or(f64::MAX, |s| s.end_us);
        let start = self.cursor.get(&parent).copied().unwrap_or(0.0);
        let start = start.min(parent_end);
        let end = (start + duration_us.max(0.0)).min(parent_end);
        self.cursor.insert(parent, end);
        self.push(parent, layer, name, start, end)
    }
}

/// Self time per layer and what the spans leave unexplained.
#[derive(Debug, Default, PartialEq)]
pub struct Summary {
    /// Root spans (= traced requests).
    pub traces: usize,
    /// Σ root durations, µs.
    pub total_us: f64,
    /// Σ self time per layer, µs, in [`LAYERS`] order.
    pub self_us: [f64; LAYERS.len()],
    /// Σ self time of the `client` roots: wall-clock no layer's span covers.
    pub unattributed_us: f64,
}

impl Summary {
    /// Share of the traced wall-clock some layer accounts for.
    pub fn coverage(&self) -> f64 {
        if self.total_us > 0.0 {
            1.0 - self.unattributed_us / self.total_us
        } else {
            0.0
        }
    }

    /// Self-time share of `layer` (or of `"unattributed"`); the shares of
    /// all layers plus `unattributed` sum to 1.
    pub fn share(&self, layer: &str) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        let us = match LAYERS.iter().position(|l| *l == layer) {
            Some(index) => self.self_us[index],
            None => self.unattributed_us,
        };
        us / self.total_us
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are finite"));
    let mut total = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover; a layer's is the sum over its spans.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: HashMap<(u64, u64), Vec<(f64, f64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent_id != 0) {
        children
            .entry((span.trace_id, span.parent_id))
            .or_default()
            .push((span.start_us, span.end_us));
    }
    let mut summary = Summary::default();
    for span in spans {
        let kids = children
            .remove(&(span.trace_id, span.span_id))
            .unwrap_or_default();
        let self_us = span.duration_us() - covered(kids, span.start_us, span.end_us);
        if span.parent_id == 0 {
            summary.traces += 1;
            summary.total_us += span.duration_us();
        }
        match LAYERS.iter().position(|l| *l == span.layer) {
            Some(index) => summary.self_us[index] += self_us,
            None => summary.unattributed_us += self_us,
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        start: f64,
        end: f64,
    ) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            layer,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_and_coverage_on_a_hand_built_tree() {
        // client.request 0..100
        //   engine.run   10..90          self 80 - 70 = 10
        //     core.join  20..90          self 70 - (30 + 10) = 30
        //       walks.column_build 20..50   self 30
        //       rankjoin.topk      80..90   self 10
        let spans = vec![
            span(1, 0, "client", "request", 0.0, 100.0),
            span(2, 1, "engine", "run", 10.0, 90.0),
            span(3, 2, "core", "join", 20.0, 90.0),
            span(4, 3, "walks", "column_build", 20.0, 50.0),
            span(5, 3, "rankjoin", "topk", 80.0, 90.0),
        ];
        let s = summarize(&spans);
        assert_eq!(s.traces, 1);
        assert_eq!(s.total_us, 100.0);
        assert_eq!(s.unattributed_us, 20.0);
        assert!((s.coverage() - 0.8).abs() < 1e-12);
        assert!((s.share("engine") - 0.10).abs() < 1e-12);
        assert!((s.share("core") - 0.30).abs() < 1e-12);
        assert!((s.share("walks") - 0.30).abs() < 1e-12);
        assert!((s.share("rankjoin") - 0.10).abs() < 1e-12);
        assert_eq!(s.share("server"), 0.0);
        let sum: f64 = LAYERS.iter().map(|l| s.share(l)).sum::<f64>() + s.share("unattributed");
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to 1, got {sum}");
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span(1, 0, "client", "request", 0.0, 100.0),
            span(2, 1, "server", "parse", 0.0, 60.0),
            span(3, 1, "server", "queue", 40.0, 120.0), // overlaps, overruns
        ];
        let s = summarize(&spans);
        assert_eq!(s.unattributed_us, 0.0, "union of children covers the root");
        assert_eq!(s.coverage(), 1.0);
    }

    #[test]
    fn builder_lays_children_out_inside_their_parent() {
        let mut log = SpanLog::default();
        let (mut t, root) = log.begin(0.0, 50.0);
        let run = t.child(root, "engine", "run", 40.0);
        let plan = t.child(run, "engine", "plan", 5.0);
        let join = t.child(run, "core", "join", 100.0); // clipped to run's end
        let _ = (plan, join);
        assert_eq!(log.spans.len(), 4);
        assert_eq!((log.spans[2].start_us, log.spans[2].end_us), (0.0, 5.0));
        assert_eq!((log.spans[3].start_us, log.spans[3].end_us), (5.0, 40.0));
        let s = summarize(&log.spans);
        assert_eq!(s.unattributed_us, 10.0);
        assert_eq!(
            s.self_us[LAYERS.iter().position(|l| *l == "engine").unwrap()],
            5.0
        );
        let (_, second_root) = log.begin(50.0, 60.0);
        assert_eq!(log.spans[second_root as usize - 1].trace_id, 2);
    }
}
