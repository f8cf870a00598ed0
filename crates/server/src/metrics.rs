//! Per-request latency tracking and serving counters, surfaced over the
//! wire by the `STATS` verb and the full `METRICS` exposition dump.
//!
//! Everything lives on a [`dht_obs::Registry`]: counters and latency
//! histograms update lock-free on the hot path, and `STATS` is now a
//! *view* over the registry — its `p50/p90/p99/max` fields read the exact
//! log₂-bucket histograms ([`dht_obs::Histogram`]) instead of the old
//! bounded sampling reservoir, so percentiles count **every** request
//! with no sampling bias (at the histograms' factor-2 bucket resolution).
//! Latencies are tracked in three histograms: one global and one per
//! priority class — so `STATS` can show that interactive p99 stays
//! bounded while batch p99 balloons under a flood, which is the whole
//! point of the two-level queue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dht_core::queryline::Priority;
use dht_obs::{Counter, Gauge, Histogram, Registry};
use dht_walks::CacheStats;

/// Build identification reported by `STATS` (`build=`): the crate version,
/// which the workspace pins to the same value `dht --version` prints — so
/// fleet operators (and the router's backend health lines) can tell
/// mixed-version backends apart.
pub const BUILD_ID: &str = env!("CARGO_PKG_VERSION");

/// Minimum interval between slow-query log lines (bounded-rate: a storm
/// of over-budget queries must not turn stderr into the bottleneck).
const SLOW_LOG_INTERVAL: Duration = Duration::from_millis(250);

/// `p`-th percentile (0 ≤ p ≤ 1) of an ascending-sorted sample, `0.0` when
/// empty — the same convention `dht querystream` reports.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

/// Registry handles for one registered graph's sampled (set-at-scrape)
/// gauges: shared-cache state and planner decisions.
#[derive(Debug)]
pub(crate) struct GraphGauges {
    /// Served requests against this graph (`dht_graph_served_total`).
    pub(crate) served: Arc<Counter>,
    /// Shared column-cache hits / misses / evictions.
    pub(crate) cache_hits: Arc<Gauge>,
    /// See [`GraphGauges::cache_hits`].
    pub(crate) cache_misses: Arc<Gauge>,
    /// See [`GraphGauges::cache_hits`].
    pub(crate) cache_evictions: Arc<Gauge>,
    /// Shared Y-table hits / misses.
    pub(crate) y_hits: Arc<Gauge>,
    /// See [`GraphGauges::y_hits`].
    pub(crate) y_misses: Arc<Gauge>,
    /// Configured column-cache byte budget.
    pub(crate) cache_bytes: Arc<Gauge>,
    /// Planner `Auto` decisions per algorithm `Auto` can pick, in
    /// `dht_engine::PlanCounters::SLOTS` order.
    pub(crate) plan_chosen: Vec<Arc<Gauge>>,
    /// `Auto` plans made.
    pub(crate) plans: Arc<Gauge>,
}

/// What the server measures while running; shared by every worker and
/// connection thread.  All counters/histograms are registry handles, so
/// `METRICS` renders them without any snapshot plumbing.
#[derive(Debug)]
pub(crate) struct Metrics {
    registry: Registry,
    interactive_served: Arc<Counter>,
    batch_served: Arc<Counter>,
    rejected: Arc<Counter>,
    quota_rejected: Arc<Counter>,
    expired: Arc<Counter>,
    dropped: Arc<Counter>,
    traced: Arc<Counter>,
    slow_logged: Arc<Counter>,
    connections_accepted: Arc<Counter>,
    connections_closed: Arc<Counter>,
    latencies: Arc<Histogram>,
    interactive_latencies: Arc<Histogram>,
    batch_latencies: Arc<Histogram>,
    // Set-at-scrape gauges (sampled from live structures on STATS/METRICS).
    interactive_depth: Arc<Gauge>,
    batch_depth: Arc<Gauge>,
    interactive_capacity: Arc<Gauge>,
    batch_capacity: Arc<Gauge>,
    connections: Arc<Gauge>,
    workers_gauge: Arc<Gauge>,
    uptime: Arc<Gauge>,
    worker_column_hits: Arc<Gauge>,
    worker_column_misses: Arc<Gauge>,
    worker_y_hits: Arc<Gauge>,
    worker_y_misses: Arc<Gauge>,
    pub(crate) graphs: Vec<GraphGauges>,
    /// Per-worker `(column cache, (y hits, y misses))` snapshots, refreshed
    /// by each worker after every batch — so `STATS` can report cache hit
    /// rates without reaching into live sessions (meaningful for private
    /// caches too, where the engine has no global counters).
    worker_caches: Mutex<Vec<(CacheStats, (u64, u64))>>,
    /// When the server started, for the `uptime_ms=` field.
    started: Instant,
    /// Milliseconds-since-start of the last slow-query log line (the
    /// bounded-rate gate).
    last_slow_log_ms: AtomicU64,
}

impl Metrics {
    pub(crate) fn new(workers: usize, graph_names: &[&str]) -> Self {
        let registry = Registry::new();
        let interactive_served = registry.counter_with(
            "dht_requests_served_total",
            "Query requests answered (successfully or with an EXEC error).",
            &[("class", "interactive")],
        );
        let batch_served = registry.counter_with(
            "dht_requests_served_total",
            "Query requests answered (successfully or with an EXEC error).",
            &[("class", "batch")],
        );
        let reject_help = "Query requests refused before execution, by reason.";
        let rejected = registry.counter_with(
            "dht_requests_rejected_total",
            reject_help,
            &[("reason", "busy")],
        );
        let quota_rejected = registry.counter_with(
            "dht_requests_rejected_total",
            reject_help,
            &[("reason", "quota")],
        );
        let expired = registry.counter_with(
            "dht_requests_rejected_total",
            reject_help,
            &[("reason", "deadline")],
        );
        let dropped = registry.counter(
            "dht_responses_dropped_total",
            "Responses dropped (and queued requests skipped) for dead connections.",
        );
        let traced = registry.counter(
            "dht_traced_requests_total",
            "Requests answered with per-query trace spans enabled.",
        );
        let slow_logged = registry.counter(
            "dht_slow_queries_total",
            "Served requests over the --slow-ms budget (logged at bounded rate).",
        );
        let connections_accepted = registry.counter(
            "dht_connections_accepted_total",
            "Connections accepted by the event loop.",
        );
        let connections_closed = registry.counter(
            "dht_connections_closed_total",
            "Connections closed (gracefully or dropped as dead).",
        );
        let latency_help = "Per-request latency, receive to response ready.";
        let latencies = registry.histogram_with(
            "dht_request_latency_seconds",
            latency_help,
            &[("class", "all")],
        );
        let interactive_latencies = registry.histogram_with(
            "dht_request_latency_seconds",
            latency_help,
            &[("class", "interactive")],
        );
        let batch_latencies = registry.histogram_with(
            "dht_request_latency_seconds",
            latency_help,
            &[("class", "batch")],
        );
        let depth_help = "Requests queued at scrape time.";
        let interactive_depth =
            registry.gauge_with("dht_queue_depth", depth_help, &[("class", "interactive")]);
        let batch_depth = registry.gauge_with("dht_queue_depth", depth_help, &[("class", "batch")]);
        let cap_help = "Configured queue capacity.";
        let interactive_capacity =
            registry.gauge_with("dht_queue_capacity", cap_help, &[("class", "interactive")]);
        let batch_capacity =
            registry.gauge_with("dht_queue_capacity", cap_help, &[("class", "batch")]);
        let connections = registry.gauge(
            "dht_connections",
            "Connections currently registered with the event loop.",
        );
        let workers_gauge = registry.gauge("dht_workers", "Worker (session) threads.");
        workers_gauge.set(workers as f64);
        let uptime = registry.gauge("dht_uptime_seconds", "Seconds since the server started.");
        let cache_help = "Worker-session column cache counters (summed across workers).";
        let worker_column_hits =
            registry.gauge_with("dht_column_cache", cache_help, &[("event", "hit")]);
        let worker_column_misses =
            registry.gauge_with("dht_column_cache", cache_help, &[("event", "miss")]);
        let y_help = "Worker-session Y-bound-table counters (summed across workers).";
        let worker_y_hits = registry.gauge_with("dht_y_table", y_help, &[("event", "hit")]);
        let worker_y_misses = registry.gauge_with("dht_y_table", y_help, &[("event", "miss")]);
        let build_info = registry.gauge_with(
            "dht_build_info",
            "Constant 1; the version label carries the build id.",
            &[("version", BUILD_ID)],
        );
        build_info.set(1.0);
        let names: Vec<&str> = if graph_names.is_empty() {
            vec!["default"]
        } else {
            graph_names.to_vec()
        };
        let graphs = names
            .iter()
            .map(|name| GraphGauges {
                served: registry.counter_with(
                    "dht_graph_served_total",
                    "Served requests per registered graph.",
                    &[("graph", name)],
                ),
                cache_hits: registry.gauge_with(
                    "dht_shared_cache",
                    "Cross-session column-cache counters per graph.",
                    &[("graph", name), ("event", "hit")],
                ),
                cache_misses: registry.gauge_with(
                    "dht_shared_cache",
                    "Cross-session column-cache counters per graph.",
                    &[("graph", name), ("event", "miss")],
                ),
                cache_evictions: registry.gauge_with(
                    "dht_shared_cache",
                    "Cross-session column-cache counters per graph.",
                    &[("graph", name), ("event", "eviction")],
                ),
                y_hits: registry.gauge_with(
                    "dht_shared_y_table",
                    "Cross-session Y-bound-table counters per graph.",
                    &[("graph", name), ("event", "hit")],
                ),
                y_misses: registry.gauge_with(
                    "dht_shared_y_table",
                    "Cross-session Y-bound-table counters per graph.",
                    &[("graph", name), ("event", "miss")],
                ),
                cache_bytes: registry.gauge_with(
                    "dht_cache_budget_bytes",
                    "Configured column-cache byte budget per graph.",
                    &[("graph", name)],
                ),
                plan_chosen: dht_engine::PlanCounters::SLOTS
                    .iter()
                    .map(|slot| {
                        registry.gauge_with(
                            "dht_plan_chosen",
                            "Planner Auto decisions per algorithm (sampled at scrape).",
                            &[("graph", name), ("algorithm", slot)],
                        )
                    })
                    .collect(),
                plans: registry.gauge_with(
                    "dht_plans",
                    "Auto plans made per graph (sampled at scrape).",
                    &[("graph", name)],
                ),
            })
            .collect();
        Metrics {
            registry,
            interactive_served,
            batch_served,
            rejected,
            quota_rejected,
            expired,
            dropped,
            traced,
            slow_logged,
            connections_accepted,
            connections_closed,
            latencies,
            interactive_latencies,
            batch_latencies,
            interactive_depth,
            batch_depth,
            interactive_capacity,
            batch_capacity,
            connections,
            workers_gauge,
            uptime,
            worker_column_hits,
            worker_column_misses,
            worker_y_hits,
            worker_y_misses,
            graphs,
            worker_caches: Mutex::new(vec![Default::default(); workers]),
            started: Instant::now(),
            last_slow_log_ms: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_served(&self, latency: Duration, class: Priority, graph: usize) {
        if let Some(gauges) = self.graphs.get(graph) {
            gauges.served.inc();
        }
        self.latencies.observe(latency);
        let (counter, histogram) = match class {
            Priority::Interactive => (&self.interactive_served, &self.interactive_latencies),
            Priority::Batch => (&self.batch_served, &self.batch_latencies),
        };
        counter.inc();
        histogram.observe(latency);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.inc();
    }

    pub(crate) fn record_quota_rejected(&self) {
        self.quota_rejected.inc();
    }

    pub(crate) fn record_expired(&self) {
        self.expired.inc();
    }

    pub(crate) fn record_dropped(&self, count: u64) {
        self.dropped.add(count);
    }

    pub(crate) fn record_traced(&self) {
        self.traced.inc();
    }

    pub(crate) fn record_connection_opened(&self) {
        self.connections_accepted.inc();
    }

    pub(crate) fn record_connection_closed(&self) {
        self.connections_closed.inc();
    }

    /// Counts a served request that blew the `--slow-ms` budget; returns
    /// `true` when the caller should emit a log line (at most one per
    /// [`SLOW_LOG_INTERVAL`], so a storm of slow queries cannot turn
    /// stderr into the bottleneck).
    pub(crate) fn record_slow(&self) -> bool {
        self.slow_logged.inc();
        let now_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_slow_log_ms.load(Ordering::Relaxed);
        // now_ms == 0 (a slow query in the server's first millisecond)
        // loses the race against the initial value; accept one suppressed
        // line over an extra sentinel.
        if now_ms.saturating_sub(last) < SLOW_LOG_INTERVAL.as_millis() as u64 && last != 0 {
            return false;
        }
        self.last_slow_log_ms
            .compare_exchange(last, now_ms.max(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    pub(crate) fn store_worker_caches(
        &self,
        worker: usize,
        columns: CacheStats,
        y_tables: (u64, u64),
    ) {
        let mut caches = self.worker_caches.lock().expect("metrics lock poisoned");
        if let Some(slot) = caches.get_mut(worker) {
            *slot = (columns, y_tables);
        }
    }

    /// Sums the per-worker cache snapshots.
    fn worker_cache_totals(&self) -> (CacheStats, (u64, u64), usize) {
        let caches = self.worker_caches.lock().expect("metrics lock poisoned");
        let mut columns = CacheStats::default();
        let (mut y_hits, mut y_misses) = (0u64, 0u64);
        for (cache, (hits, misses)) in caches.iter() {
            columns = columns.merged(*cache);
            y_hits += hits;
            y_misses += misses;
        }
        (columns, (y_hits, y_misses), caches.len())
    }

    /// Refreshes every set-at-scrape gauge from the live queue/connection
    /// state, then renders the full text exposition (ending `# EOF`).
    /// Per-graph gauges are the caller's job (the server samples its
    /// engines before calling this).
    pub(crate) fn render_exposition(
        &self,
        interactive_depth: usize,
        batch_depth: usize,
        queue_capacity: usize,
        batch_queue_capacity: usize,
        connections: usize,
    ) -> String {
        self.interactive_depth.set(interactive_depth as f64);
        self.batch_depth.set(batch_depth as f64);
        self.interactive_capacity.set(queue_capacity as f64);
        self.batch_capacity.set(batch_queue_capacity as f64);
        self.connections.set(connections as f64);
        self.uptime.set(self.started.elapsed().as_secs_f64());
        let (columns, (y_hits, y_misses), workers) = self.worker_cache_totals();
        self.workers_gauge.set(workers as f64);
        self.worker_column_hits.set(columns.hits as f64);
        self.worker_column_misses.set(columns.misses as f64);
        self.worker_y_hits.set(y_hits as f64);
        self.worker_y_misses.set(y_misses as f64);
        self.registry.render()
    }

    pub(crate) fn snapshot(
        &self,
        interactive_depth: usize,
        batch_depth: usize,
        queue_capacity: usize,
        batch_queue_capacity: usize,
        connections: usize,
    ) -> StatsSnapshot {
        let (columns, (y_hits, y_misses), workers) = self.worker_cache_totals();
        let interactive_served = self.interactive_served.get();
        let batch_served = self.batch_served.get();
        StatsSnapshot {
            served: interactive_served + batch_served,
            rejected: self.rejected.get(),
            quota_rejected: self.quota_rejected.get(),
            expired: self.expired.get(),
            dropped: self.dropped.get(),
            interactive_served,
            batch_served,
            queue_depth: interactive_depth + batch_depth,
            interactive_depth,
            batch_depth,
            queue_capacity,
            batch_queue_capacity,
            workers,
            connections,
            p50_ms: self.latencies.quantile_ms(0.50),
            p90_ms: self.latencies.quantile_ms(0.90),
            p99_ms: self.latencies.quantile_ms(0.99),
            max_ms: self.latencies.quantile_ms(1.0),
            interactive_p99_ms: self.interactive_latencies.quantile_ms(0.99),
            batch_p99_ms: self.batch_latencies.quantile_ms(0.99),
            column_hits: columns.hits,
            column_misses: columns.misses,
            y_hits,
            y_misses,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            build: BUILD_ID.to_string(),
            graph_served: self
                .graphs
                .iter()
                .map(|gauges| gauges.served.get())
                .collect(),
        }
    }
}

/// A point-in-time view of the server's counters — what `STATS` serialises
/// and [`crate::Server::shutdown`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Query requests answered (successfully or with an `EXEC` error).
    pub served: u64,
    /// Query requests rejected with `BUSY` because their class was full.
    pub rejected: u64,
    /// Query requests refused with `ERR QUOTA` by per-connection rate
    /// limiting.
    pub quota_rejected: u64,
    /// Requests answered `ERR DEADLINE` because their budget ran out in
    /// the queue (never executed).
    pub expired: u64,
    /// Response lines dropped because the client had disconnected (plus
    /// queued requests skipped for dead connections).
    pub dropped: u64,
    /// Served requests in the interactive class.
    pub interactive_served: u64,
    /// Served requests in the batch class.
    pub batch_served: u64,
    /// Requests queued at snapshot time, both classes combined.
    pub queue_depth: usize,
    /// Requests queued in the interactive class at snapshot time.
    pub interactive_depth: usize,
    /// Requests queued in the batch class at snapshot time.
    pub batch_depth: usize,
    /// Configured interactive-class queue capacity.
    pub queue_capacity: usize,
    /// Configured batch-class queue capacity.
    pub batch_queue_capacity: usize,
    /// Worker (session) count.
    pub workers: usize,
    /// Connections currently registered with the event loop at snapshot
    /// time (accepted and not yet closed).
    pub connections: usize,
    /// Median per-request latency, receive → response ready, in ms
    /// (estimated from the exact log₂-bucket histogram).
    pub p50_ms: f64,
    /// 90th-percentile latency in ms.
    pub p90_ms: f64,
    /// 99th-percentile latency in ms.
    pub p99_ms: f64,
    /// Upper envelope of the slowest request's histogram bucket, in ms.
    pub max_ms: f64,
    /// 99th-percentile latency of interactive-class requests, in ms.
    pub interactive_p99_ms: f64,
    /// 99th-percentile latency of batch-class requests, in ms.
    pub batch_p99_ms: f64,
    /// Backward-column cache hits summed over the worker sessions.
    pub column_hits: u64,
    /// Backward-column cache misses summed over the worker sessions.
    pub column_misses: u64,
    /// Y-bound-table hits summed over the worker sessions.
    pub y_hits: u64,
    /// Y-bound-table misses summed over the worker sessions.
    pub y_misses: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Build identification ([`BUILD_ID`] — the `dht --version` version).
    pub build: String,
    /// Served requests per registered graph, in registration order (one
    /// entry, equal to `served`, on a single-graph server).
    pub graph_served: Vec<u64>,
}

impl StatsSnapshot {
    /// Fraction of column lookups served from cache (0 when none).
    pub fn column_hit_rate(&self) -> f64 {
        let total = self.column_hits + self.column_misses;
        if total == 0 {
            0.0
        } else {
            self.column_hits as f64 / total as f64
        }
    }

    /// The single-line `STATS` payload (without the leading `OK `).
    pub fn wire_line(&self) -> String {
        format!(
            "STATS served={} rejected={} queue_depth={} queue_capacity={} workers={} \
             p50_ms={:.4} p90_ms={:.4} p99_ms={:.4} max_ms={:.4} \
             column_hits={} column_misses={} column_hit_rate={:.4} y_hits={} y_misses={} \
             quota_rejected={} expired={} dropped={} \
             interactive_served={} batch_served={} \
             interactive_p99_ms={:.4} batch_p99_ms={:.4} batch_queue_capacity={} \
             interactive_depth={} batch_depth={} connections={} \
             uptime_ms={} build={}",
            self.served,
            self.rejected,
            self.queue_depth,
            self.queue_capacity,
            self.workers,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.max_ms,
            self.column_hits,
            self.column_misses,
            self.column_hit_rate(),
            self.y_hits,
            self.y_misses,
            self.quota_rejected,
            self.expired,
            self.dropped,
            self.interactive_served,
            self.batch_served,
            self.interactive_p99_ms,
            self.batch_p99_ms,
            self.batch_queue_capacity,
            self.interactive_depth,
            self.batch_depth,
            self.connections,
            self.uptime_ms,
            self.build,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_percentiles_and_counters() {
        let metrics = Metrics::new(2, &["default"]);
        for ms in [1.0f64, 2.0, 3.0, 4.0] {
            metrics.record_served(Duration::from_secs_f64(ms / 1e3), Priority::Interactive, 0);
        }
        metrics.record_rejected();
        metrics.store_worker_caches(
            0,
            CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0,
            },
            (2, 1),
        );
        metrics.store_worker_caches(
            1,
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
            },
            (0, 1),
        );
        let snap = metrics.snapshot(3, 2, 16, 16, 7);
        assert_eq!(snap.served, 4);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queue_depth, 5, "combined depth is the class sum");
        assert_eq!(snap.interactive_depth, 3);
        assert_eq!(snap.batch_depth, 2);
        assert_eq!(snap.workers, 2);
        // Histogram percentiles land inside the log₂ bucket of the true
        // value — a factor-2 envelope, not an exact order statistic.
        assert!(snap.p50_ms >= 1.0 && snap.p50_ms <= 4.1, "{}", snap.p50_ms);
        assert!(snap.max_ms >= 4.0 && snap.max_ms <= 8.2, "{}", snap.max_ms);
        assert!(snap.p50_ms <= snap.p90_ms && snap.p90_ms <= snap.p99_ms);
        assert_eq!((snap.column_hits, snap.column_misses), (4, 2));
        assert_eq!((snap.y_hits, snap.y_misses), (2, 2));
        assert!((snap.column_hit_rate() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(snap.connections, 7);
        assert_eq!(snap.graph_served, vec![4], "single-graph count = served");
        let line = snap.wire_line();
        assert!(line.starts_with("STATS served=4 rejected=1"), "{line}");
        assert!(line.contains("p99_ms="), "{line}");
        assert!(line.contains("column_hit_rate=0.6667"), "{line}");
        assert!(line.contains("connections=7"), "{line}");
        assert!(line.contains("uptime_ms="), "{line}");
        assert!(line.contains(&format!("build={BUILD_ID}")), "{line}");
    }

    #[test]
    fn per_graph_served_counters_split_by_registration_index() {
        let metrics = Metrics::new(1, &["a", "b", "c"]);
        let ms = Duration::from_millis(1);
        metrics.record_served(ms, Priority::Interactive, 0);
        metrics.record_served(ms, Priority::Interactive, 2);
        metrics.record_served(ms, Priority::Batch, 2);
        // An out-of-range graph index still counts globally.
        metrics.record_served(ms, Priority::Interactive, 9);
        let snap = metrics.snapshot(0, 0, 8, 8, 0);
        assert_eq!(snap.served, 4);
        assert_eq!(snap.graph_served, vec![1, 0, 2]);
        assert!(snap.uptime_ms < 60_000, "uptime is measured, not garbage");
    }

    #[test]
    fn per_class_counters_and_percentiles_are_split() {
        let metrics = Metrics::new(1, &["default"]);
        for ms in [1.0f64, 2.0] {
            metrics.record_served(Duration::from_secs_f64(ms / 1e3), Priority::Interactive, 0);
        }
        for ms in [50.0f64, 60.0, 70.0] {
            metrics.record_served(Duration::from_secs_f64(ms / 1e3), Priority::Batch, 0);
        }
        metrics.record_quota_rejected();
        metrics.record_quota_rejected();
        metrics.record_expired();
        metrics.record_dropped(3);
        let snap = metrics.snapshot(0, 0, 8, 4, 0);
        assert_eq!(snap.served, 5, "global count spans both classes");
        assert_eq!(snap.interactive_served, 2);
        assert_eq!(snap.batch_served, 3);
        assert_eq!(snap.quota_rejected, 2);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.batch_queue_capacity, 4);
        assert!(
            snap.interactive_p99_ms < 5.0 && snap.batch_p99_ms > 50.0,
            "class percentiles must not mix: interactive {} batch {}",
            snap.interactive_p99_ms,
            snap.batch_p99_ms
        );
        let line = snap.wire_line();
        assert!(line.contains("quota_rejected=2"), "{line}");
        assert!(line.contains("expired=1"), "{line}");
        assert!(line.contains("dropped=3"), "{line}");
        assert!(line.contains("interactive_served=2"), "{line}");
        assert!(line.contains("batch_served=3"), "{line}");
        assert!(line.contains("interactive_p99_ms="), "{line}");
        assert!(line.contains("batch_p99_ms="), "{line}");
        assert!(line.contains("interactive_depth=0"), "{line}");
        assert!(line.contains("batch_depth=0"), "{line}");
    }

    #[test]
    fn exposition_carries_every_required_family_and_eof() {
        let metrics = Metrics::new(2, &["default", "web"]);
        metrics.record_served(Duration::from_millis(2), Priority::Interactive, 0);
        metrics.record_connection_opened();
        metrics.record_traced();
        let text = metrics.render_exposition(1, 0, 16, 8, 3);
        for family in [
            "dht_requests_served_total",
            "dht_requests_rejected_total",
            "dht_responses_dropped_total",
            "dht_request_latency_seconds",
            "dht_queue_depth",
            "dht_queue_capacity",
            "dht_connections",
            "dht_connections_accepted_total",
            "dht_workers",
            "dht_uptime_seconds",
            "dht_graph_served_total",
            "dht_plan_chosen",
            "dht_build_info",
            "dht_traced_requests_total",
            "dht_slow_queries_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "{family} missing"
            );
        }
        assert!(
            text.contains("dht_requests_served_total{class=\"interactive\"} 1"),
            "{text}"
        );
        assert!(text.contains("dht_queue_depth{class=\"interactive\"} 1"));
        assert!(text.contains("dht_connections 3"));
        assert!(text.contains("dht_graph_served_total{graph=\"web\"} 0"));
        assert!(text.contains("dht_request_latency_seconds_count{class=\"all\"} 1"));
        assert!(text.contains("dht_traced_requests_total 1"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn slow_query_logging_is_bounded_rate() {
        let metrics = Metrics::new(1, &["default"]);
        assert!(metrics.record_slow(), "first slow query logs");
        // Immediately after, the gate is closed (interval not elapsed).
        assert!(!metrics.record_slow());
        assert!(!metrics.record_slow());
        // Counter still counts every slow query, logged or not.
        let text = metrics.render_exposition(0, 0, 1, 1, 0);
        assert!(text.contains("dht_slow_queries_total 3"), "{text}");
    }

    #[test]
    fn percentiles_match_the_querystream_convention() {
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 0.5), 3.0);
        assert_eq!(percentile(&sample, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
