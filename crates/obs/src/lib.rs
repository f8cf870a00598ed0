//! # dht-obs
//!
//! Dependency-free observability primitives for the workspace: a metrics
//! registry of atomically-updated counters, gauges and fixed-boundary
//! log₂-bucket histograms with a Prometheus-compatible text exposition
//! renderer, and lightweight per-query trace spans carried through
//! `QueryCtx` / `Session`.
//!
//! ## Metrics
//!
//! [`Registry`] owns the metric families a process exposes.  Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s shared between the
//! registry (for rendering) and the hot paths (for updating), so recording
//! is a single atomic op with no lock.  Histograms use **exact counts in
//! fixed log₂ buckets** — no sampling, no reservoir bias: every
//! observation lands in the bucket `2^i µs ≤ v < 2^(i+1) µs`, percentiles
//! are estimated by linear interpolation inside the bucket that crosses
//! the requested rank, and the estimate is deterministic for a given
//! multiset of observations regardless of arrival order or thread count.
//!
//! [`Registry::render`] emits the standard text exposition format
//! (`# HELP` / `# TYPE` / `name{label="value"} 123`), terminated by a
//! `# EOF` line so socket scrapers know where the dump ends.
//!
//! ## Traces
//!
//! [`Trace`] records monotonic-clock phase timings ([`Phase`]) for one
//! query.  A disabled trace is a single `Option` branch — no clock reads,
//! no allocation — so instrumentation can stay on the hot path
//! permanently (the `trace_overhead` bench row pins <5% with tracing
//! *enabled* on a cache-hot stream).  Tracing never perturbs answers:
//! it only ever reads clocks and bumps counters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable gauge holding one `f64` (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Log₂-bucket histogram
// ---------------------------------------------------------------------------

/// Number of finite log₂ buckets: bucket `i` holds observations in
/// `[2^(i-1), 2^i) µs` (bucket 0 holds `[0, 1) µs`), so the last finite
/// boundary is `2^(BUCKETS-1) µs ≈ 134 s`; anything larger lands in the
/// overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// An exact-count latency histogram with fixed log₂ bucket boundaries in
/// microseconds.  Every observation is counted (no sampling); updates are
/// lock-free atomics, safe from any thread.
#[derive(Debug)]
pub struct Histogram {
    /// `counts[i]`: observations with `value_µs < 2^i` and (for `i > 0`)
    /// `value_µs ≥ 2^(i-1)`.  `counts[HISTOGRAM_BUCKETS]` is the overflow
    /// bucket (`+Inf`).
    counts: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    /// Total of all observations, in microseconds.
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The index of the bucket holding an observation of `micros`.
    fn bucket_index(micros: u64) -> usize {
        if micros == 0 {
            return 0;
        }
        // Observations in [2^(i-1), 2^i) land in bucket i: bit-length of
        // the value, capped at the overflow bucket.
        let bits = 64 - micros.leading_zeros() as usize;
        bits.min(HISTOGRAM_BUCKETS)
    }

    /// The *upper* boundary (exclusive, in µs) of finite bucket `i`.
    fn bucket_upper_micros(i: usize) -> f64 {
        (1u64 << i) as f64
    }

    /// The *lower* boundary (inclusive, in µs) of bucket `i`.
    fn bucket_lower_micros(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (1u64 << (i - 1)) as f64
        }
    }

    /// Records one observation of `micros` microseconds.
    pub fn observe_micros(&self, micros: u64) {
        self.counts[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records one observation of `ms` milliseconds.
    pub fn observe_ms(&self, ms: f64) {
        self.observe_micros((ms.max(0.0) * 1_000.0).round() as u64);
    }

    /// Records one observed duration.
    pub fn observe(&self, elapsed: Duration) {
        self.observe_micros(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations, in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1_000.0
    }

    /// Estimates the `p`-quantile (`0.0 ≤ p ≤ 1.0`) in milliseconds by
    /// linear interpolation inside the log₂ bucket that crosses the rank.
    /// Exact for the bucket boundaries; within a bucket the estimate is
    /// at most a factor-2 envelope, which is the histogram's resolution
    /// contract.  Returns 0 for an empty histogram.
    pub fn quantile_ms(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cumulative + count;
            if (next as f64) >= rank {
                if i == HISTOGRAM_BUCKETS {
                    // Overflow bucket: report its lower edge (a floor, not
                    // an invention of an upper bound that doesn't exist).
                    return Self::bucket_upper_micros(HISTOGRAM_BUCKETS - 1) / 1_000.0;
                }
                let lower = Self::bucket_lower_micros(i);
                let upper = Self::bucket_upper_micros(i);
                let into = (rank - cumulative as f64) / count as f64;
                return (lower + (upper - lower) * into) / 1_000.0;
            }
            cumulative = next;
        }
        Self::bucket_upper_micros(HISTOGRAM_BUCKETS - 1) / 1_000.0
    }

    /// Cumulative bucket counts paired with their upper boundaries in
    /// **seconds** (the exposition unit), ending with `(+Inf, total)`.
    fn cumulative_seconds(&self) -> Vec<(f64, u64)> {
        let mut cumulative = 0u64;
        let mut out = Vec::with_capacity(HISTOGRAM_BUCKETS + 1);
        for i in 0..HISTOGRAM_BUCKETS {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            out.push((Self::bucket_upper_micros(i) / 1e6, cumulative));
        }
        cumulative += self.counts[HISTOGRAM_BUCKETS].load(Ordering::Relaxed);
        out.push((f64::INFINITY, cumulative));
        out
    }
}

// ---------------------------------------------------------------------------
// Registry and exposition
// ---------------------------------------------------------------------------

/// The kind of one metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// `(rendered label set, handle)`; the label set is pre-rendered as
    /// `{k="v",…}` (empty string for no labels).
    samples: Vec<(String, Handle)>,
}

/// A process-wide collection of metric families with a text exposition
/// renderer.  Registration is cheap and lock-guarded; updates go straight
/// through the returned `Arc` handles and never touch the registry lock.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// Escapes a HELP string (backslash and newline).
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value (backslash, quote, newline).
fn escape_label_value(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a label set as `{k="v",…}`; empty for no labels.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders an `f64` sample value the exposition way (`+Inf`, integers
/// without a trailing `.0`).
fn render_value(value: f64) -> String {
    if value.is_infinite() {
        return if value > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Handle {
        let handle = match kind {
            Kind::Counter => Handle::Counter(Arc::new(Counter::new())),
            Kind::Gauge => Handle::Gauge(Arc::new(Gauge::new())),
            Kind::Histogram => Handle::Histogram(Arc::new(Histogram::new())),
        };
        let clone = match &handle {
            Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
            Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
            Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
        };
        let rendered = render_labels(labels);
        let mut families = self.families.lock().expect("registry lock poisoned");
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert!(
                family.kind == kind,
                "metric family '{name}' re-registered with a different kind"
            );
            family.samples.push((rendered, clone));
        } else {
            families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: vec![(rendered, clone)],
            });
        }
        handle
    }

    /// Registers (or extends) a counter family and returns the handle.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers a labelled counter in the family `name`.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, Kind::Counter, labels) {
            Handle::Counter(c) => c,
            _ => unreachable!("registered a counter"),
        }
    }

    /// Registers (or extends) a gauge family and returns the handle.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers a labelled gauge in the family `name`.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, Kind::Gauge, labels) {
            Handle::Gauge(g) => g,
            _ => unreachable!("registered a gauge"),
        }
    }

    /// Registers (or extends) a histogram family and returns the handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers a labelled histogram in the family `name`.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, Kind::Histogram, labels) {
            Handle::Histogram(h) => h,
            _ => unreachable!("registered a histogram"),
        }
    }

    /// Renders every family in the text exposition format, terminated by a
    /// `# EOF` line so socket scrapers know where the dump ends.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry lock poisoned");
        let mut out = String::new();
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.name());
            for (labels, handle) in &family.samples {
                match handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{}{labels} {}", family.name, c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{}{labels} {}", family.name, render_value(g.get()));
                    }
                    Handle::Histogram(h) => {
                        // Histogram sub-samples carry the family labels
                        // plus `le`; the exposition unit is seconds.
                        for (upper, cumulative) in h.cumulative_seconds() {
                            let le = render_value(upper);
                            let joined = if labels.is_empty() {
                                format!("{{le=\"{le}\"}}")
                            } else {
                                format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
                            };
                            let _ = writeln!(out, "{}_bucket{joined} {cumulative}", family.name);
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{labels} {}",
                            family.name,
                            render_value(h.sum_ms() / 1_000.0)
                        );
                        let _ = writeln!(out, "{}_count{labels} {}", family.name, h.count());
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// The phases a traced query's wall-clock is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Parsing the request line into a spec.
    Parse,
    /// Waiting in the admission queue for a worker.
    QueueWait,
    /// Planning (`Auto` specs, `EXPLAIN`).
    Plan,
    /// Building a backward column the cache did not hold.
    ColumnBuild,
    /// Cloning a backward column out of the cache.
    ColumnHit,
    /// Building a `Y_l⁺` bound table.
    YBuild,
    /// Reusing a cached `Y_l⁺` bound table.
    YHit,
    /// The join itself (everything inside the algorithm entry point).
    Join,
    /// Top-k selection / merge bookkeeping.
    TopK,
    /// Rendering the answer onto the wire.
    Serialize,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 10;

    /// Every phase, in rendering order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Parse,
        Phase::QueueWait,
        Phase::Plan,
        Phase::ColumnBuild,
        Phase::ColumnHit,
        Phase::YBuild,
        Phase::YHit,
        Phase::Join,
        Phase::TopK,
        Phase::Serialize,
    ];

    /// The phase's key in trace lines and the slow-query log.
    pub fn key(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::QueueWait => "queue",
            Phase::Plan => "plan",
            Phase::ColumnBuild => "column_build",
            Phase::ColumnHit => "column_hit",
            Phase::YBuild => "y_build",
            Phase::YHit => "y_hit",
            Phase::Join => "join",
            Phase::TopK => "topk",
            Phase::Serialize => "serialize",
        }
    }
}

/// Per-phase accumulators of one enabled trace.  Relaxed atomics: a trace
/// belongs to one session, but the context carrying it must stay `Sync`
/// (fork closures capture `&QueryCtx`), and interior mutability keeps
/// recording possible through `&Trace` so spans don't fight the borrow
/// checker across `&mut QueryCtx` call chains.
#[derive(Debug, Default)]
struct TraceData {
    nanos: [AtomicU64; Phase::COUNT],
    counts: [AtomicU64; Phase::COUNT],
}

/// A per-query phase-timing recorder.  Disabled by default: every
/// recording call is then a single branch on an `Option` — no clock
/// reads, no allocation — so traces can be threaded through the hot path
/// unconditionally.
#[derive(Debug, Default)]
pub struct Trace {
    data: Option<Box<TraceData>>,
}

impl Trace {
    /// A disabled trace (every recording call is a no-op branch).
    pub fn disabled() -> Self {
        Trace { data: None }
    }

    /// An enabled trace with zeroed accumulators.
    pub fn enabled() -> Self {
        Trace {
            data: Some(Box::default()),
        }
    }

    /// Enables or disables this trace in place, clearing accumulators.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.data = enabled.then(Box::default);
    }

    /// Whether phase timings are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.data.is_some()
    }

    /// Starts a span: `Some(now)` when enabled, `None` (no clock read)
    /// when disabled.  Pair with [`Trace::finish`].
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.data.as_ref().map(|_| Instant::now())
    }

    /// Finishes a span begun with [`Trace::begin`], attributing the
    /// elapsed time to `phase`.  No-op on `None`.
    #[inline]
    pub fn finish(&self, started: Option<Instant>, phase: Phase) {
        if let (Some(data), Some(started)) = (self.data.as_deref(), started) {
            let nanos = started.elapsed().as_nanos() as u64;
            data.nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
            data.counts[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an instantaneous event of `phase` (count bump, no time) —
    /// e.g. a cache hit whose cost is a pointer clone.
    #[inline]
    pub fn event(&self, phase: Phase) {
        if let Some(data) = self.data.as_deref() {
            data.counts[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds an externally measured duration to `phase` (e.g. queue wait
    /// measured by the admission path before the trace reached a worker).
    #[inline]
    pub fn add(&self, phase: Phase, elapsed: Duration) {
        if let Some(data) = self.data.as_deref() {
            data.nanos[phase as usize].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            data.counts[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An RAII span: records into `phase` when dropped.  Cheap no-op when
    /// the trace is disabled.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        SpanGuard {
            trace: self,
            phase,
            started: self.begin(),
        }
    }

    /// Total recorded time of `phase`, in milliseconds.
    pub fn phase_ms(&self, phase: Phase) -> f64 {
        self.data.as_deref().map_or(0.0, |d| {
            d.nanos[phase as usize].load(Ordering::Relaxed) as f64 / 1e6
        })
    }

    /// Number of spans/events recorded for `phase`.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.data
            .as_deref()
            .map_or(0, |d| d.counts[phase as usize].load(Ordering::Relaxed))
    }

    /// Zeroes the accumulators (keeps enablement).
    pub fn reset(&mut self) {
        if let Some(data) = self.data.as_deref_mut() {
            for cell in &data.nanos {
                cell.store(0, Ordering::Relaxed);
            }
            for cell in &data.counts {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Renders the span breakdown as the one-line `# trace:` wire comment:
    /// `# trace: total_ms=<t>` followed by `<key>_ms=<t>` (and
    /// `<key>_n=<count>` for phases recorded more than once or with no
    /// time) for every phase that recorded anything, in [`Phase::ALL`]
    /// order.  Empty phases are omitted.
    pub fn render_comment(&self, total_ms: f64) -> String {
        let mut out = format!("# trace: total_ms={total_ms:.3}");
        for phase in Phase::ALL {
            let count = self.phase_count(phase);
            if count == 0 {
                continue;
            }
            let ms = self.phase_ms(phase);
            let _ = write!(out, " {}_ms={ms:.3}", phase.key());
            if count > 1 || ms == 0.0 {
                let _ = write!(out, " {}_n={count}", phase.key());
            }
        }
        out
    }
}

/// RAII span guard returned by [`Trace::span`]; attributes the elapsed
/// time to its phase on drop.
pub struct SpanGuard<'t> {
    trace: &'t Trace,
    phase: Phase,
    started: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.trace.finish(self.started.take(), self.phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2_in_micros() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
        // Every boundary is exactly a power of two: the lower edge of
        // bucket i is the upper edge of bucket i-1.
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(
                Histogram::bucket_lower_micros(i),
                Histogram::bucket_upper_micros(i - 1)
            );
        }
    }

    #[test]
    fn histogram_counts_are_exact_and_quantiles_interpolate() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ms(0.5), 0.0, "empty histogram");
        // 100 observations of 1 ms (bucket [512µs, 1024µs)): the median
        // interpolates inside that bucket, so it is bounded by its edges.
        for _ in 0..100 {
            h.observe_ms(1.0)
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum_ms() - 100.0).abs() < 1e-9);
        let p50 = h.quantile_ms(0.5);
        assert!((0.512..=1.024).contains(&p50), "{p50}");
        // Tail observations move only the tail quantile.
        for _ in 0..5 {
            h.observe_ms(1000.0)
        }
        let p50 = h.quantile_ms(0.5);
        assert!((0.512..=1.024).contains(&p50), "{p50}");
        let p99 = h.quantile_ms(0.99);
        assert!(p99 > 500.0, "{p99}");
        // p0 reports the lowest non-empty bucket; p1 the highest.
        assert!(h.quantile_ms(0.0) <= 1.024);
        assert!(h.quantile_ms(1.0) > 500.0);
    }

    #[test]
    fn overflow_bucket_reports_its_floor() {
        let h = Histogram::new();
        h.observe_micros(u64::MAX);
        let q = h.quantile_ms(0.5);
        assert_eq!(q, (1u64 << (HISTOGRAM_BUCKETS - 1)) as f64 / 1_000.0);
    }

    #[test]
    fn quantiles_are_order_independent() {
        let a = Histogram::new();
        let b = Histogram::new();
        let sample = [0.1, 5.0, 0.2, 80.0, 0.3, 2.5, 40.0, 0.4];
        for &ms in &sample {
            a.observe_ms(ms);
        }
        for &ms in sample.iter().rev() {
            b.observe_ms(ms);
        }
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile_ms(p), b.quantile_ms(p), "p={p}");
        }
    }

    #[test]
    fn exposition_renders_help_type_samples_and_eof() {
        let registry = Registry::new();
        let served = registry.counter("dht_requests_served_total", "Requests answered.");
        served.add(42);
        let depth = registry.gauge_with(
            "dht_queue_depth",
            "Queued requests.",
            &[("class", "interactive")],
        );
        depth.set(7.0);
        let latency = registry.histogram("dht_latency_seconds", "Latency.");
        latency.observe_ms(1.0);
        let text = registry.render();
        assert!(text.contains("# HELP dht_requests_served_total Requests answered.\n"));
        assert!(text.contains("# TYPE dht_requests_served_total counter\n"));
        assert!(text.contains("dht_requests_served_total 42\n"));
        assert!(text.contains("# TYPE dht_queue_depth gauge\n"));
        assert!(text.contains("dht_queue_depth{class=\"interactive\"} 7\n"));
        assert!(text.contains("# TYPE dht_latency_seconds histogram\n"));
        assert!(text.contains("dht_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("dht_latency_seconds_count 1\n"));
        assert!(text.ends_with("# EOF\n"));
        // One HELP/TYPE block per family, even with several samples.
        let another =
            registry.gauge_with("dht_queue_depth", "Queued requests.", &[("class", "batch")]);
        another.set(0.0);
        let text = registry.render();
        assert_eq!(text.matches("# TYPE dht_queue_depth gauge").count(), 1);
        assert!(text.contains("dht_queue_depth{class=\"batch\"} 0\n"));
    }

    #[test]
    fn labelled_histograms_merge_le_into_the_label_set() {
        let registry = Registry::new();
        let h = registry.histogram_with(
            "dht_latency_seconds",
            "Latency.",
            &[("class", "interactive")],
        );
        h.observe_ms(0.5);
        let text = registry.render();
        assert!(
            text.contains("dht_latency_seconds_bucket{class=\"interactive\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("dht_latency_seconds_sum{class=\"interactive\"}"));
        assert!(text.contains("dht_latency_seconds_count{class=\"interactive\"} 1\n"));
    }

    #[test]
    fn exposition_escapes_label_values_and_help() {
        let registry = Registry::new();
        let g = registry.gauge_with(
            "dht_test",
            "line1\nline2 \\ backslash",
            &[("path", "a\"b\\c\nd")],
        );
        g.set(1.0);
        let text = registry.render();
        assert!(text.contains("# HELP dht_test line1\\nline2 \\\\ backslash\n"));
        assert!(text.contains("dht_test{path=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn disabled_traces_record_nothing_and_cost_one_branch() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        assert!(trace.begin().is_none(), "no clock read when disabled");
        trace.finish(None, Phase::Join);
        trace.event(Phase::ColumnHit);
        drop(trace.span(Phase::Plan));
        assert_eq!(trace.phase_count(Phase::ColumnHit), 0);
        assert_eq!(trace.render_comment(1.0), "# trace: total_ms=1.000");
    }

    #[test]
    fn enabled_traces_accumulate_spans_events_and_external_durations() {
        let mut trace = Trace::enabled();
        assert!(trace.is_enabled());
        let started = trace.begin();
        assert!(started.is_some());
        trace.finish(started, Phase::Join);
        trace.event(Phase::ColumnHit);
        trace.event(Phase::ColumnHit);
        trace.add(Phase::QueueWait, Duration::from_micros(1500));
        {
            let _guard = trace.span(Phase::Plan);
        }
        assert_eq!(trace.phase_count(Phase::Join), 1);
        assert_eq!(trace.phase_count(Phase::ColumnHit), 2);
        assert_eq!(trace.phase_count(Phase::Plan), 1);
        assert!((trace.phase_ms(Phase::QueueWait) - 1.5).abs() < 1e-9);
        let line = trace.render_comment(2.5);
        assert!(line.starts_with("# trace: total_ms=2.500"), "{line}");
        assert!(line.contains("queue_ms=1.500"), "{line}");
        assert!(line.contains("column_hit_n=2"), "{line}");
        assert!(line.contains("join_ms="), "{line}");
        // Phases appear in canonical order: queue before plan before join.
        let queue = line.find("queue_ms").unwrap();
        let plan = line.find("plan_ms").unwrap();
        let join = line.find("join_ms").unwrap();
        assert!(queue < plan && plan < join, "{line}");
        trace.reset();
        assert_eq!(trace.phase_count(Phase::ColumnHit), 0);
        assert!(trace.is_enabled(), "reset keeps enablement");
        trace.set_enabled(false);
        assert!(!trace.is_enabled());
    }
}
