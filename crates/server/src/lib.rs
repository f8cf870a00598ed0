//! # dht-server
//!
//! A hermetic TCP front end for the query engine: one long-lived
//! [`dht_engine::Engine`] per served graph, a pool of warm
//! [`dht_engine::Session`]s answering for any number of concurrent
//! clients, and a line protocol that is exactly the `dht querystream`
//! query language plus three control verbs.  Everything is `std::net` +
//! `std::thread` — no async runtime, no registry dependencies — matching
//! the workspace's hermetic-build rule.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──TCP──▶ event thread ──────────────▶ bounded queue
//!                   (poll(2) readiness loop:         │ try_push
//!                    accept, per-connection          ▼ pop_batch
//!                    line reader + reorder       worker pool
//!                    buffer + partial-write      (one Session each,
//!                    flush)  ◀── wake token ◀──  shared engine cache)
//! ```
//!
//! * **Event thread** — one thread multiplexes the listener and *every*
//!   connection with level-triggered `poll(2)` (via the hermetic
//!   [`dht_poll`] shim): nonblocking sockets, a per-connection state
//!   machine for line assembly and response reordering, and a self-wake
//!   socket pair that lets workers interrupt the poll the moment an
//!   answer is ready.  An idle connection costs one buffer, not two OS
//!   thread stacks, so thousands of concurrent clients are practical
//!   (`event.rs` holds the loop; live fan-in shows as `STATS
//!   connections=`).
//! * **Bounded two-level request queue** — the backpressure and
//!   scheduling point: readers never block; when the request's priority
//!   class (*interactive* by default, *batch* via the `PRIO batch` line
//!   prefix) is at capacity the request is rejected *immediately* with a
//!   typed `ERR BUSY` line, so overload degrades into fast rejections
//!   instead of unbounded memory growth.  Each class has its own
//!   capacity and workers drain in strict priority order, so a batch
//!   flood can never exhaust interactive admission nor delay interactive
//!   requests behind queued batch work.  Clients re-send rejected queries
//!   (the load generator does this automatically), and answers are
//!   unaffected — re-running a query is always bit-identical.
//! * **Per-connection rate limiting** — with `--rate` on, each connection
//!   owns a token bucket ([`ServerConfig::rate`] tokens/s, burst
//!   [`ServerConfig::burst`]); a query line arriving to an empty bucket
//!   is refused `ERR QUOTA` with a deterministic retry-after hint, before
//!   it is even parsed.  Control verbs are exempt, so throttled clients
//!   can still probe the server.
//! * **Request deadlines** — a `DEADLINE <ms>` line prefix bounds how
//!   long the request may wait; the deadline is enforced **at dequeue
//!   time**, so an expired request answers `ERR DEADLINE` without ever
//!   burning a worker session on an answer the client stopped waiting
//!   for.
//! * **Worker pool** — `workers` threads, each owning one warm `Session`
//!   over the shared engine, so concurrent clients warm each other's
//!   backward columns and Y-bound tables exactly as in-process sessions
//!   do.  Workers pop **micro-batches** (up to `batch` requests per
//!   dequeue), amortising queue synchronisation across several answers
//!   from one warm session.
//! * **Ordered, readiness-driven writes** — responses arrive from
//!   whichever worker answered, tagged with the request's per-connection
//!   sequence number, and park in a reorder buffer until their turn; in-
//!   order lines move to a per-connection output buffer that is flushed
//!   as far as the socket accepts, with the partial remainder retried on
//!   the next writable event.  A client that disconnects (or stops
//!   reading for longer than the write-stall limit) has its connection
//!   marked dead: pending responses are dropped (counted in
//!   `STATS dropped=`) and workers skip its still-queued requests instead
//!   of executing answers nobody reads.
//! * **Graceful shutdown** — a shutdown flag (raised by the `SHUTDOWN`
//!   verb or [`Server::shutdown`]) closes the listener, lets workers
//!   drain the queue, flushes and closes every connection (idle ones
//!   after a short read grace) and joins all threads.
//!
//! ## Protocol
//!
//! One request per line; every request gets exactly one response line
//! (blank lines and `#` comments are ignored).  Requests:
//!
//! ```text
//! PING                     → OK PONG
//! STATS                    → OK STATS served=… p50_ms=… (see StatsSnapshot::wire_line)
//! METRICS                  → OK METRICS + the full metrics exposition, ending `# EOF`
//! USE <graph>              → OK USE <graph>  (select this connection's graph)
//! SETS                     → OK SETS <name…> (the current graph's set names)
//! SHUTDOWN                 → OK BYE (then graceful drain)
//! EXPLAIN <query line>     → OK PLAN <plan>     (planned, not executed)
//! <query line>             → OK TWOWAY …  |  OK NWAY …   (see wire)
//! ```
//!
//! where `<query line>` is the shared `dht_core::queryline` language
//! (`LEFT RIGHT [k] [ALGORITHM]` / `nway SHAPE S1 … [k] [ALGO] [AGG]`),
//! optionally prefixed with QoS / namespace directives in any order:
//!
//! ```text
//! DEADLINE 250 P Q 3           — answer within 250 ms or ERR DEADLINE
//! PRIO batch P Q 3             — schedule in the batch (low) class
//! DEADLINE 40 PRIO batch P Q   — both
//! @yeast P Q 3                 — answer against graph `yeast` (this line only)
//! TRACE P Q 3                  — prepend a `# trace:` phase-timing comment
//! ```
//!
//! A `TRACE`d answer arrives as **two lines in one response unit**: a
//! `# trace: total_ms=… parse_ms=… join_ms=…` comment followed by the
//! ordinary answer line.  The comment carries scheduling metadata only —
//! the answer line is bit-identical with and without the prefix.
//!
//! ## Multi-graph serving
//!
//! A server started with [`Server::start_registry`] hosts **N named
//! graphs behind one port**: a [`dht_engine::GraphRegistry`] arbitrates
//! one global cache budget across per-graph engines, each worker holds
//! one warm session *per graph*, and connections pick their graph with
//! the `USE <graph>` verb (sticky) or the `@<graph>` line prefix (that
//! line only).  Graph selection is pure routing: the same query line
//! answers bit-identically whether the graph was reached by `USE`, by
//! `@<graph>`, or by being the only graph of a single-graph server.
//! `STATS` reports per-graph blocks (`graph.<name>.served=` …) next to
//! the global counters.
//!
//! Error responses are typed: `ERR BUSY …` (the request's class is full),
//! `ERR QUOTA …` (rate limit, with a `retry after <ms> ms` hint),
//! `ERR DEADLINE …` (budget exhausted while queued; never executed),
//! `ERR PARSE …` (malformed line, with the offending token), `ERR EXEC …`
//! (execution failure).  A request line that is not valid UTF-8 answers `ERR PARSE`;
//! one still unterminated past 64 KiB gets one `ERR PARSE` and the
//! connection is dropped.  Scores travel as exact `f64` bit patterns ([`wire`]), so
//! responses are **bit-identical** to in-process [`dht_engine::Session`]
//! answers at any worker count, cache mode and rejection schedule — the
//! repository's loopback parity proptest pins this.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod loadgen;
pub mod metrics;
pub mod wire;

mod event;
mod qos;
mod queue;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dht_core::queryline::{self, ParseOptions, Priority};
use dht_core::QuerySpec;
use dht_engine::{Engine, GraphRegistry, QueryPlan, Session};
use dht_graph::NodeSet;

pub use metrics::StatsSnapshot;

use metrics::Metrics;
use qos::TokenBucket;
use queue::RequestQueue;

/// Default weighted-dequeue ratio: interactive pops served per waiting
/// batch pop (see [`ServerConfig::batch_weight`]).
pub const DEFAULT_BATCH_WEIGHT: u32 = queue::DEFAULT_BATCH_WEIGHT;

/// Construction-time knobs of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// TCP port to bind on `127.0.0.1` (`0` picks an ephemeral port; read
    /// it back with [`Server::local_addr`]).
    pub port: u16,
    /// Worker sessions answering queries (≥ 1).
    pub workers: usize,
    /// Bounded **interactive-class** queue capacity; interactive pushes
    /// beyond it are rejected with `ERR BUSY` (≥ 1).
    pub queue_capacity: usize,
    /// Bounded **batch-class** queue capacity (`PRIO batch` requests);
    /// independent of the interactive capacity, so batch floods cannot
    /// exhaust interactive admission (≥ 1).
    pub batch_queue_capacity: usize,
    /// Maximum requests a worker dequeues per batch (≥ 1).
    pub batch: usize,
    /// Per-connection rate limit in query lines per second; `0` disables
    /// rate limiting (the default).
    pub rate: u32,
    /// Token-bucket burst capacity per connection (clamped to ≥ 1 when
    /// `rate` is on): a connection may send this many lines back-to-back
    /// before the rate applies.
    pub burst: u32,
    /// Weighted-dequeue ratio: interactive requests popped per waiting
    /// batch request (clamped to ≥ 1).  `7` means sustained interactive
    /// load still lets one batch request through every 7 pops instead of
    /// starving the class forever.
    pub batch_weight: u32,
    /// Server-side default deadline (ms) applied to **interactive** lines
    /// that carry no `DEADLINE` prefix; `0` (the default) applies none.
    pub default_deadline_interactive_ms: u64,
    /// Server-side default deadline (ms) applied to **batch** lines that
    /// carry no `DEADLINE` prefix; `0` (the default) applies none.
    pub default_deadline_batch_ms: u64,
    /// Slow-query budget in milliseconds: a served request slower than
    /// this (receive → response ready) is counted in
    /// `dht_slow_queries_total` and logged to stderr with its full span
    /// breakdown, plan and cache residency — at a bounded rate, so a
    /// storm of slow queries cannot make logging the bottleneck.  `0`
    /// (the default) disables the log.  A non-zero budget enables trace
    /// spans on every request (two clock reads per phase; answers are
    /// bit-identical either way).
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    /// Ephemeral port, 2 workers, 128-deep queues per class, micro-batches
    /// of 8, no rate limit, 7:1 interactive:batch dequeue, no default
    /// deadlines.
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 2,
            queue_capacity: 128,
            batch_queue_capacity: 128,
            batch: 8,
            rate: 0,
            burst: 32,
            batch_weight: DEFAULT_BATCH_WEIGHT,
            default_deadline_interactive_ms: 0,
            default_deadline_batch_ms: 0,
            slow_ms: 0,
        }
    }
}

impl ServerConfig {
    /// Returns a copy with a different port.
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Returns a copy with a different worker count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns a copy with a different queue capacity (minimum 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Returns a copy with a different batch-class queue capacity
    /// (minimum 1).
    pub fn with_batch_queue_capacity(mut self, capacity: usize) -> Self {
        self.batch_queue_capacity = capacity.max(1);
        self
    }

    /// Returns a copy with a different micro-batch bound (minimum 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Returns a copy with a per-connection rate limit (`0` disables).
    pub fn with_rate(mut self, rate: u32) -> Self {
        self.rate = rate;
        self
    }

    /// Returns a copy with a different token-bucket burst capacity.
    pub fn with_burst(mut self, burst: u32) -> Self {
        self.burst = burst;
        self
    }

    /// Returns a copy with a different weighted-dequeue ratio (minimum 1).
    pub fn with_batch_weight(mut self, weight: u32) -> Self {
        self.batch_weight = weight.max(1);
        self
    }

    /// Returns a copy with a server-side default deadline for interactive
    /// lines without a `DEADLINE` prefix (`0` applies none).
    pub fn with_default_deadline_interactive(mut self, ms: u64) -> Self {
        self.default_deadline_interactive_ms = ms;
        self
    }

    /// Returns a copy with a server-side default deadline for batch lines
    /// without a `DEADLINE` prefix (`0` applies none).
    pub fn with_default_deadline_batch(mut self, ms: u64) -> Self {
        self.default_deadline_batch_ms = ms;
        self
    }

    /// Returns a copy with a slow-query budget in ms (`0` disables the
    /// slow-query log).
    pub fn with_slow_ms(mut self, ms: u64) -> Self {
        self.slow_ms = ms;
        self
    }

    /// The configured default deadline for `class`, if any.
    fn default_deadline(&self, class: Priority) -> Option<Duration> {
        let ms = match class {
            Priority::Interactive => self.default_deadline_interactive_ms,
            Priority::Batch => self.default_deadline_batch_ms,
        };
        (ms > 0).then(|| Duration::from_millis(ms))
    }
}

/// How often blocked loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Longest request line (terminator excluded) the connection reader will
/// buffer.  A line still unterminated past this is a protocol violation
/// (or a runaway sender): the reader answers with a typed `ERR PARSE` and
/// drops the connection rather than growing the buffer without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// The one response an oversized line gets before its connection closes.
fn oversized_line_error() -> String {
    format!("ERR PARSE line exceeds {MAX_LINE_BYTES} bytes")
}

/// How long the event loop tolerates a *continuous* write stall on one
/// connection (a client that stopped reading while the kernel send buffer
/// is full) before declaring the connection dead and dropping its
/// responses.  Long enough that a merely-slow reader on loopback never
/// trips it; short enough that a never-reading hostile client cannot hold
/// the flush path (and therefore [`Server::join`]) hostage.
const WRITE_STALL_LIMIT: Duration = Duration::from_millis(750);

/// Liveness flag shared by one connection's event-loop state machine and
/// its queued requests.  The event loop flips it off when the client is
/// gone (write error) or has stalled past [`WRITE_STALL_LIMIT`]; workers
/// then skip the connection's queued requests.
struct ConnectionState {
    alive: AtomicBool,
}

impl ConnectionState {
    fn new() -> Arc<ConnectionState> {
        Arc::new(ConnectionState {
            alive: AtomicBool::new(true),
        })
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
    }
}

/// One queued query request.
struct Request {
    /// Per-connection sequence number (response-ordering key).
    seq: u64,
    spec: QuerySpec,
    /// Registry index of the graph the request runs against.
    graph: usize,
    /// `EXPLAIN` requests are planned, not executed.
    explain: bool,
    /// When the reader received the line (latency includes queue wait).
    received: Instant,
    /// Wait budget from the `DEADLINE <ms>` prefix (or the class's
    /// server-side default), checked at dequeue.
    deadline: Option<Duration>,
    /// Scheduling class from the `PRIO <class>` prefix.
    class: Priority,
    /// `TRACE` line prefix: prepend a `# trace:` phase-breakdown comment
    /// to the answer.
    trace: bool,
    /// Event-thread time from receive to enqueue (the trace's Parse
    /// phase; only read when tracing).
    parse_time: Duration,
    /// The owning connection's liveness flag.
    conn: Arc<ConnectionState>,
    reply: event::ReplyHandle,
}

/// State shared by the event thread, workers and [`Server`] handle.
struct ServerShared {
    registry: GraphRegistry,
    /// Node sets per registered graph (parallel to the registry).
    sets: Vec<Vec<NodeSet>>,
    parse: ParseOptions,
    config: ServerConfig,
    queue: RequestQueue<Request>,
    metrics: Metrics,
    shutdown: AtomicBool,
    /// Connections currently registered with the event loop (what
    /// `STATS connections=` reports).
    live_connections: AtomicUsize,
    /// Interrupts the event loop's poll (worker completions, shutdown).
    waker: Arc<event::Waker>,
}

impl ServerShared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Closing the queue (flag inside the queue lock) makes admission
        // race-free against worker exit: a request either got in before
        // the close — and a worker will drain it — or its push refuses.
        self.queue.close();
        // A sleeping poll must notice the flag now, not a tick later.
        self.waker.wake();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn stats(&self) -> StatsSnapshot {
        let (interactive_depth, batch_depth) = self.queue.depths();
        self.metrics.snapshot(
            interactive_depth,
            batch_depth,
            self.queue.capacity(Priority::Interactive),
            self.queue.capacity(Priority::Batch),
            self.live_connections.load(Ordering::Relaxed),
        )
    }

    /// The registered graph names, for error messages.
    fn graph_names(&self) -> String {
        self.registry
            .iter()
            .map(|(name, _)| name)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The full `STATS` payload: the snapshot's wire line plus the
    /// serving-policy fields and one block per registered graph — all
    /// **appended** after the snapshot fields, so existing consumers keep
    /// parsing by prefix.
    fn stats_line(&self) -> String {
        let snapshot = self.stats();
        let mut line = snapshot.wire_line();
        line.push_str(&format!(
            " default_deadline_interactive={} default_deadline_batch={} graphs={}",
            self.config.default_deadline_interactive_ms,
            self.config.default_deadline_batch_ms,
            self.registry.len(),
        ));
        for (index, (name, engine)) in self.registry.iter().enumerate() {
            let served = snapshot.graph_served.get(index).copied().unwrap_or(0);
            let cache = engine.shared_cache_stats().unwrap_or_default();
            line.push_str(&format!(
                " graph.{name}.served={served} graph.{name}.cache_hits={} \
                 graph.{name}.cache_misses={} graph.{name}.cache_bytes={}",
                cache.hits,
                cache.misses,
                engine.config().cache_bytes,
            ));
        }
        line
    }

    /// The `METRICS` payload: samples the per-graph engine gauges (shared
    /// caches, planner decisions), refreshes the queue/connection gauges
    /// and renders the full text exposition.  The trailing newline is
    /// trimmed because the reply path appends exactly one — the response
    /// still ends with the `# EOF` sentinel line scrapers read until.
    fn metrics_text(&self) -> String {
        for (index, (_, engine)) in self.registry.iter().enumerate() {
            let Some(gauges) = self.metrics.graphs.get(index) else {
                continue;
            };
            let cache = engine.shared_cache_stats().unwrap_or_default();
            gauges.cache_hits.set(cache.hits as f64);
            gauges.cache_misses.set(cache.misses as f64);
            gauges.cache_evictions.set(cache.evictions as f64);
            let (y_hits, y_misses) = engine
                .shared_y_tables()
                .map(|store| store.stats())
                .unwrap_or_default();
            gauges.y_hits.set(y_hits as f64);
            gauges.y_misses.set(y_misses as f64);
            gauges.cache_bytes.set(engine.config().cache_bytes as f64);
            let counters = engine.plan_counters();
            for (gauge, (_, count)) in gauges.plan_chosen.iter().zip(counters.chosen_counts()) {
                gauge.set(count as f64);
            }
            gauges.plans.set(counters.plans() as f64);
        }
        let (interactive_depth, batch_depth) = self.queue.depths();
        let text = self.metrics.render_exposition(
            interactive_depth,
            batch_depth,
            self.queue.capacity(Priority::Interactive),
            self.queue.capacity(Priority::Batch),
            self.live_connections.load(Ordering::Relaxed),
        );
        text.trim_end_matches('\n').to_string()
    }
}

/// A running query server bound to a loopback address.
///
/// The handle is the shutdown path: [`Server::shutdown`] (or a client's
/// `SHUTDOWN` verb followed by [`Server::join`]) drains the queue, joins
/// every thread and returns the final [`StatsSnapshot`].
///
/// ```no_run
/// use dht_engine::Engine;
/// use dht_graph::{GraphBuilder, NodeId, NodeSet};
/// use dht_server::{Server, ServerConfig};
///
/// let mut b = GraphBuilder::with_nodes(4);
/// b.add_undirected_edge(NodeId(0), NodeId(1), 1.0).unwrap();
/// b.add_undirected_edge(NodeId(1), NodeId(2), 1.0).unwrap();
/// b.add_undirected_edge(NodeId(2), NodeId(3), 1.0).unwrap();
/// let engine = Engine::new(b.build().unwrap());
/// let sets = vec![
///     NodeSet::new("P", [NodeId(0), NodeId(1)]),
///     NodeSet::new("Q", [NodeId(2), NodeId(3)]),
/// ];
/// let server = Server::start(engine, sets, Default::default(), ServerConfig::default()).unwrap();
/// println!("listening on {}", server.local_addr());
/// let report = server.shutdown();
/// assert_eq!(report.served, 0);
/// ```
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the event and worker threads
    /// serving a **single graph** named `default`.  `sets` are the node
    /// sets query lines may name; `parse` carries the stream defaults
    /// (`k`, default algorithm, `m`) — use `ParseOptions::default()` for
    /// the `dht querystream` defaults.  Sugar over
    /// [`Server::start_registry`].
    ///
    /// # Errors
    /// Fails when the port cannot be bound or the event loop's self-wake
    /// socket pair cannot be set up.
    pub fn start(
        engine: Engine,
        sets: Vec<NodeSet>,
        parse: ParseOptions,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::start_registry(
            GraphRegistry::from_engines(vec![("default".to_string(), engine)]),
            vec![sets],
            parse,
            config,
        )
    }

    /// Binds `127.0.0.1:port` and starts the event and worker threads
    /// serving **every graph of `registry`** behind one port.  `sets[i]`
    /// are the node sets queryable against graph `i`; connections start
    /// on graph `0` and switch with `USE <graph>` or a per-line
    /// `@<graph>` prefix.
    ///
    /// # Errors
    /// Fails when the registry is empty, `sets` is not parallel to it, a
    /// graph name is malformed or duplicated, a set holds a node id its
    /// graph does not have (an `InvalidInput` error wrapping
    /// `GraphError::NodeSetOutOfRange`), the port cannot be bound, or the
    /// event loop's self-wake socket pair cannot be set up.
    pub fn start_registry(
        registry: GraphRegistry,
        sets: Vec<Vec<NodeSet>>,
        parse: ParseOptions,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let invalid =
            |message: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, message);
        if registry.is_empty() {
            return Err(invalid("a server needs at least one graph".to_string()));
        }
        if sets.len() != registry.len() {
            return Err(invalid(format!(
                "got node sets for {} graphs but the registry holds {}",
                sets.len(),
                registry.len()
            )));
        }
        for (index, (name, engine)) in registry.iter().enumerate() {
            if !queryline::is_valid_graph_name(name) {
                return Err(invalid(format!("invalid graph name '{name}'")));
            }
            if registry.index_of(name) != Some(index) {
                return Err(invalid(format!("duplicate graph name '{name}'")));
            }
            // Checked once here, so no query line can index past a graph.
            for set in &sets[index] {
                engine
                    .graph()
                    .check_node_set(set)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            }
        }
        // Serving thousands of connections needs more descriptors than the
        // common 1024 soft limit; lift it best-effort (a refusal just means
        // accepts start failing at the old limit, which the event loop
        // tolerates).
        let _ = dht_poll::raise_nofile_limit(16 * 1024);
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let config = ServerConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            batch_queue_capacity: config.batch_queue_capacity.max(1),
            batch: config.batch.max(1),
            batch_weight: config.batch_weight.max(1),
            ..config
        };
        let (waker, wake_rx) = event::Waker::new()?;
        let (completions_tx, completions_rx) = mpsc::channel();
        let graph_names: Vec<&str> = registry.iter().map(|(name, _)| name).collect();
        let metrics = Metrics::new(config.workers, &graph_names);
        let shared = Arc::new(ServerShared {
            registry,
            sets,
            parse,
            config,
            queue: RequestQueue::new(config.queue_capacity, config.batch_queue_capacity)
                .with_batch_weight(config.batch_weight),
            metrics,
            shutdown: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            waker,
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        let event = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                event::event_loop(shared, listener, wake_rx, completions_tx, completions_rx)
            })
        };
        Ok(Server {
            shared,
            addr,
            event: Some(event),
            workers,
        })
    }

    /// The bound loopback address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time view of the serving counters (what `STATS` reports).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// Whether shutdown has been requested (by [`Server::shutdown`] or a
    /// client's `SHUTDOWN` verb).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Raises the shutdown flag without waiting (SIGTERM-equivalent); pair
    /// with [`Server::join`].
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until shutdown is requested — by [`Server::begin_shutdown`]
    /// or a client's `SHUTDOWN` verb — then drains the queue, joins every
    /// thread and returns the final counters.
    pub fn join(mut self) -> StatsSnapshot {
        while !self.shared.shutting_down() {
            std::thread::sleep(POLL_INTERVAL);
        }
        // The event thread exits once every connection has been flushed
        // and closed (which needs workers to finish in-flight requests —
        // they keep running regardless of join order); workers exit once
        // the closed queue is drained, answering every admitted request.
        if let Some(event) = self.event.take() {
            event.join().expect("event thread panicked");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        self.shared.stats()
    }

    /// Graceful shutdown: raise the flag, drain, join, report.
    pub fn shutdown(self) -> StatsSnapshot {
        self.shared.begin_shutdown();
        self.join()
    }
}

/// Handles one request line: control verbs answer inline (returning the
/// response), query lines pass the rate limiter, parse, and enqueue into
/// their priority class (returning `None` unless refused or malformed).
/// Called by the event thread; `reply` is the connection's completion
/// route, cloned into the queued request; `graph` is the connection's
/// sticky current-graph index (`USE` reassigns it, `@<graph>` overrides
/// it for one line).
fn dispatch_line(
    shared: &Arc<ServerShared>,
    line: &str,
    seq: u64,
    reply: &event::ReplyHandle,
    conn: &Arc<ConnectionState>,
    bucket: &mut Option<TokenBucket>,
    graph: &mut usize,
) -> Option<String> {
    let received = Instant::now();
    let verb = line.split_whitespace().next().unwrap_or("");
    if verb.eq_ignore_ascii_case("ping") {
        return Some("OK PONG".to_string());
    }
    if verb.eq_ignore_ascii_case("stats") {
        return Some(format!("OK {}", shared.stats_line()));
    }
    if verb.eq_ignore_ascii_case("metrics") {
        // The full registry exposition.  Multi-line, but still ONE
        // response unit: the reply path delivers the whole string through
        // the reorder buffer atomically, so pipelined responses cannot
        // interleave with it.  Scrapers read lines until `# EOF`.
        return Some(format!("OK METRICS\n{}", shared.metrics_text()));
    }
    if verb.eq_ignore_ascii_case("use") {
        // Graph selection is a control verb (quota-exempt, answered
        // inline): switching namespaces must work on a throttled
        // connection too.
        let name = line[verb.len()..].trim();
        return Some(match shared.registry.index_of(name) {
            Some(index) => {
                *graph = index;
                format!("OK USE {name}")
            }
            None if name.is_empty() => {
                "ERR PARSE USE needs a graph name (`USE <graph>`)".to_string()
            }
            None => format!(
                "ERR PARSE unknown graph '{name}' (available graphs: {})",
                shared.graph_names()
            ),
        });
    }
    if verb.eq_ignore_ascii_case("sets") {
        // The current graph's queryable set names, in catalogue order —
        // how a router learns which shard aliases a backend holds.
        let names = shared.sets[*graph]
            .iter()
            .map(NodeSet::name)
            .collect::<Vec<_>>()
            .join(" ");
        return Some(format!("OK SETS {names}").trim_end().to_string());
    }
    if verb.eq_ignore_ascii_case("shutdown") {
        shared.begin_shutdown();
        return Some("OK BYE".to_string());
    }
    // Rate limiting sits before the parse: refusing a flood must stay
    // cheaper than parsing it.  Control verbs above are exempt, so a
    // throttled client can still PING / STATS / SHUTDOWN.
    if let Some(bucket) = bucket.as_mut() {
        if let Err(retry_after_ms) = bucket.try_acquire_at(received) {
            shared.metrics.record_quota_rejected();
            return Some(format!(
                "ERR QUOTA rate limit exceeded ({}/s, burst {}); retry after {} ms",
                shared.config.rate,
                shared.config.burst.max(1),
                retry_after_ms
            ));
        }
    }
    let (explain, query_line) = match verb.eq_ignore_ascii_case("explain") {
        true => (true, line[verb.len()..].trim_start()),
        false => (false, line),
    };
    // Line numbers over the wire are the connection's 1-based request
    // ordinal, so `ERR PARSE query line 3: …` points at the third request.
    let line_no = seq as usize + 1;
    // The `@<graph>` prefix is resolved BEFORE the full parse: set names
    // only mean something against a specific graph's catalogue, so the
    // namespace must be known first.
    let effective_graph = match queryline::split_query_line(query_line, line_no) {
        Ok(Some((prefixes, _))) => match prefixes.graph {
            Some(name) => match shared.registry.index_of(&name) {
                Some(index) => index,
                None => {
                    return Some(format!(
                        "ERR PARSE query line {line_no}: unknown graph '{name}' \
                         (available graphs: {})",
                        shared.graph_names()
                    ))
                }
            },
            None => *graph,
        },
        // Empty line / parse error: fall through so `parse_query_line`
        // produces its canonical diagnostic below.
        _ => *graph,
    };
    let parsed = match queryline::parse_query_line(
        query_line,
        &shared.sets[effective_graph],
        &shared.parse,
        line_no,
    ) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            return Some(format!(
                "ERR PARSE query line {line_no}: EXPLAIN needs a query line"
            ))
        }
        Err(error) => return Some(format!("ERR PARSE {error}")),
    };
    let class = parsed.priority;
    // Lines carrying no DEADLINE prefix inherit the server's per-class
    // default (0 = none); an explicit prefix always wins.
    let deadline = parsed
        .deadline_ms
        .map(Duration::from_millis)
        .or_else(|| shared.config.default_deadline(class));
    let request = Request {
        seq,
        spec: parsed.spec,
        explain,
        received,
        deadline,
        class,
        graph: effective_graph,
        trace: parsed.trace,
        parse_time: received.elapsed(),
        conn: conn.clone(),
        reply: reply.clone(),
    };
    match shared.queue.try_push(request, class) {
        Ok(()) => None, // a worker will reply
        Err(queue::PushRefused::Full(_)) => {
            shared.metrics.record_rejected();
            Some(format!(
                "ERR BUSY {} queue full ({} queued, capacity {}); re-send later",
                class.name(),
                shared.queue.depth(class),
                shared.queue.capacity(class)
            ))
        }
        // The queue closed for shutdown: no worker will ever pop again,
        // so the request must be refused here instead of admitted and
        // orphaned (which would hang this connection's writer forever).
        Err(queue::PushRefused::Closed(_)) => {
            shared.metrics.record_rejected();
            Some("ERR BUSY server shutting down; connection closing".to_string())
        }
    }
}

/// One worker: one warm session **per registered graph**, answering
/// micro-batches until the queue drains after shutdown.  Requests carry
/// their graph index, so a worker serves the whole registry without
/// tearing sessions down between graphs.
fn worker_loop(shared: &Arc<ServerShared>, index: usize) {
    let mut sessions: Vec<_> = (0..shared.registry.len())
        .map(|graph| shared.registry.engine(graph).session())
        .collect();
    loop {
        let batch = shared.queue.pop_batch(shared.config.batch);
        if batch.is_empty() {
            return; // queue closed + drained
        }
        for request in batch {
            // A dead connection's requests are skipped, not executed:
            // nobody will ever read the answer.
            if !request.conn.is_alive() {
                shared.metrics.record_dropped(1);
                continue;
            }
            // Deadlines are enforced at dequeue: a request whose wait
            // budget ran out in the queue answers a typed line without
            // burning this session on an answer the client gave up on.
            let waited = request.received.elapsed();
            if let Some(deadline) = request.deadline {
                if waited > deadline {
                    shared.metrics.record_expired();
                    let expired = format!(
                        "ERR DEADLINE budget of {} ms exhausted ({} ms queued); not executed",
                        deadline.as_millis(),
                        waited.as_millis()
                    );
                    request.reply.send(request.seq, expired);
                    continue;
                }
            }
            let session = &mut sessions[request.graph];
            // Tracing is per-request (`TRACE` prefix) or server-wide when
            // a slow-query budget is set — the slow log needs spans for
            // every request because it cannot know in advance which one
            // will blow the budget.  Off, the spans cost one branch each.
            let slow_ms = shared.config.slow_ms;
            let tracing = request.trace || slow_ms > 0;
            if tracing {
                session.set_trace_enabled(true);
                let trace = session.trace();
                trace.add(dht_walks::Phase::Parse, request.parse_time);
                trace.add(
                    dht_walks::Phase::QueueWait,
                    waited.saturating_sub(request.parse_time),
                );
            }
            let (mut response, plan) = answer(session, &request.spec, request.explain, slow_ms > 0);
            let latency = request.received.elapsed();
            shared
                .metrics
                .record_served(latency, request.class, request.graph);
            if tracing {
                let total_ms = latency.as_secs_f64() * 1e3;
                let comment = session.trace().render_comment(total_ms);
                if request.trace {
                    // The comment and the answer travel as ONE response
                    // unit so the reorder buffer cannot interleave another
                    // request's answer between them.
                    shared.metrics.record_traced();
                    response = format!("{comment}\n{response}");
                }
                if slow_ms > 0 && total_ms > slow_ms as f64 && shared.metrics.record_slow() {
                    let who = format!(
                        "worker={index} graph={} class={} seq={}",
                        shared.registry.name(request.graph),
                        request.class.name(),
                        request.seq
                    );
                    let line = slow_line(&who, total_ms, slow_ms, plan.as_ref(), session, &comment);
                    eprintln!("{line}");
                }
                session.reset_trace();
                session.set_trace_enabled(false);
            }
            // The connection may be gone; in-flight answers are best-effort.
            request.reply.send(request.seq, response);
        }
        // Worker-level cache telemetry aggregates across every graph's
        // session: the per-worker row answers "is this worker's cache
        // warm", not "which graph warmed it" (STATS per-graph blocks
        // answer that from the shared caches).
        let mut cache = dht_walks::CacheStats::default();
        let mut y_tables = (0u64, 0u64);
        for session in &sessions {
            cache = cache.merged(session.cache_stats());
            let (y_hits, y_misses) = session.y_table_stats();
            y_tables.0 += y_hits;
            y_tables.1 += y_misses;
        }
        shared.metrics.store_worker_caches(index, cache, y_tables);
    }
}

/// Answers one request line on `session`: `EXPLAIN` plans without running,
/// anything else runs the query.  With `keep_plan` set (a slow-query budget
/// is on) the query runs through [`Session::run_with_plan`], so the plan
/// returned is the one the query followed, read before it warmed the
/// cache; otherwise it runs through [`Session::run`] and no plan is kept.
fn answer(
    session: &mut Session<'_>,
    spec: &QuerySpec,
    explain: bool,
    keep_plan: bool,
) -> (String, Option<QueryPlan>) {
    if explain {
        return match session.explain(spec) {
            Ok(plan) => (format!("OK PLAN {plan}"), Some(plan)),
            Err(error) => (format!("ERR EXEC {error}"), None),
        };
    }
    let result = if keep_plan {
        session
            .run_with_plan(spec)
            .map(|(plan, out)| (Some(plan), out))
    } else {
        session.run(spec).map(|out| (None, out))
    };
    match result {
        Ok((plan, output)) => {
            let span = session.trace().span(dht_walks::Phase::Serialize);
            let encoded = wire::encode_output(&output);
            drop(span);
            (format!("OK {encoded}"), plan)
        }
        Err(error) => (format!("ERR EXEC {error}"), None),
    }
}

/// The slow-query log line: who answered, the latency against the budget,
/// the plan the query ran with, the session's cache counters and the span
/// comment.
fn slow_line(
    who: &str,
    total_ms: f64,
    budget_ms: u64,
    plan: Option<&QueryPlan>,
    session: &Session<'_>,
    comment: &str,
) -> String {
    let columns = session.cache_stats();
    let (y_hits, y_misses) = session.y_table_stats();
    let plan = plan.map_or_else(|| "none".to_string(), QueryPlan::to_string);
    format!(
        "SLOW {who} latency_ms={total_ms:.3} budget_ms={budget_ms} plan `{plan}` \
         columns[hits={} misses={}] y_tables[hits={y_hits} misses={y_misses}]\n  \
         {comment}",
        columns.hits, columns.misses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::{GraphBuilder, GraphError, NodeId};
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;

    fn fixture() -> (Engine, Vec<NodeSet>) {
        let mut b = GraphBuilder::with_nodes(10);
        for (u, v) in [
            (0u32, 1u32),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 4),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (5, 9),
            (4, 5),
        ] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        let engine = Engine::new(b.build().unwrap());
        let sets = vec![
            NodeSet::new("P", (0..5).map(NodeId)),
            NodeSet::new("Q", (5..10).map(NodeId)),
        ];
        (engine, sets)
    }

    fn start_fixture(config: ServerConfig) -> Server {
        let (engine, sets) = fixture();
        Server::start(engine, sets, ParseOptions::default(), config).expect("bind loopback")
    }

    /// Sends `lines` on one connection and reads one response per line.
    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").expect("send");
            writer.flush().expect("flush");
            let mut response = String::new();
            reader.read_line(&mut response).expect("receive");
            responses.push(response.trim_end().to_string());
        }
        responses
    }

    #[test]
    fn control_verbs_answer_inline() {
        let server = start_fixture(ServerConfig::default());
        let addr = server.local_addr();
        let responses = roundtrip(addr, &["PING", "ping", "STATS"]);
        assert_eq!(responses[0], "OK PONG");
        assert_eq!(responses[1], "OK PONG", "verbs are case-insensitive");
        assert!(
            responses[2].starts_with("OK STATS served=0"),
            "{responses:?}"
        );
        assert!(responses[2].contains("workers=2"), "{responses:?}");
        server.shutdown();
    }

    #[test]
    fn stats_reports_live_connections_from_the_event_loop() {
        let server = start_fixture(ServerConfig::default());
        let addr = server.local_addr();
        // The querying connection counts itself.
        let first = roundtrip(addr, &["STATS"]);
        assert!(first[0].contains(" connections=1"), "{first:?}");
        // Wait out the close of the first connection so the next count is
        // deterministic.
        while server.stats().connections != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A parked idle connection is visible to a later querying one.
        let parked = TcpStream::connect(addr).expect("connect");
        let second = roundtrip(addr, &["STATS"]);
        assert!(second[0].contains(" connections=2"), "{second:?}");
        // The parked connection is still open, so the handle-side view must
        // count it; after the drop the event loop may close it at any time.
        assert!(server.stats().connections >= 1, "handle-side view works");
        drop(parked);
        // After shutdown every connection has been closed and deregistered.
        let report = server.shutdown();
        assert_eq!(report.connections, 0, "{report:?}");
    }

    #[test]
    fn queries_answer_bit_identically_to_in_process_sessions() {
        let server = start_fixture(ServerConfig::default().with_workers(3));
        let addr = server.local_addr();
        let lines = ["P Q 3", "Q P 2 b-bj", "P Q 3", "nway chain P Q 2 ap min"];
        let responses = roundtrip(addr, &lines);

        let (engine, sets) = fixture();
        let options = ParseOptions::default();
        for (index, (line, response)) in lines.iter().zip(&responses).enumerate() {
            let spec = queryline::parse_query_line(line, &sets, &options, index + 1)
                .unwrap()
                .unwrap()
                .spec;
            let expected = engine.session().run(&spec).unwrap();
            assert_eq!(
                response,
                &format!("OK {}", wire::encode_output(&expected)),
                "request {index}"
            );
        }
        // Pipelined responses keep request order on a second connection.
        assert_eq!(roundtrip(addr, &lines), responses);
        let report = server.shutdown();
        assert_eq!(report.served, 2 * lines.len() as u64);
        assert_eq!(report.rejected, 0);
        assert!(report.column_hits > 0, "repeats must hit the shared cache");
    }

    #[test]
    fn a_huge_k_answers_every_pair_and_the_server_lives_on() {
        let server = start_fixture(ServerConfig::default());
        let responses = roundtrip(
            server.local_addr(),
            &["P Q 1000000000000 b-bj", "P Q 25 b-bj", "PING"],
        );
        assert!(responses[0].starts_with("OK TWOWAY 25 "), "{responses:?}");
        assert_eq!(responses[0], responses[1], "all |P|·|Q| pairs");
        assert_eq!(responses[2], "OK PONG");
        server.shutdown();
    }

    #[test]
    fn slow_senders_keep_partial_lines_across_read_timeouts() {
        let server = start_fixture(ServerConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // One request delivered in chunks with pauses well past the
        // reader's poll interval: the prefix consumed by a timed-out read
        // must survive until the newline arrives.  The second request
        // splits a multi-byte UTF-8 character ('é' in a trailing comment)
        // across the stall, which `read_line` would roll back entirely.
        let chunked: [&[&[u8]]; 2] = [&[b"P ", b"Q ", b"3\n"], &[b"P Q 3 # caf\xC3", b"\xA9\n"]];
        for chunks in chunked {
            for chunk in chunks {
                writer.write_all(chunk).expect("send chunk");
                writer.flush().expect("flush");
                std::thread::sleep(3 * POLL_INTERVAL);
            }
            let mut response = String::new();
            reader.read_line(&mut response).expect("receive");
            assert!(response.starts_with("OK TWOWAY"), "{response:?}");
        }
        // A final request with no trailing newline is still served at EOF.
        writer.write_all(b"PING").expect("send final");
        writer.flush().expect("flush");
        std::thread::sleep(3 * POLL_INTERVAL);
        writer
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut last = String::new();
        reader.read_line(&mut last).expect("receive final");
        assert_eq!(last.trim_end(), "OK PONG");
        server.shutdown();
    }

    #[test]
    fn oversized_unterminated_lines_get_one_error_then_disconnect() {
        let server = start_fixture(ServerConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // The cap is on content, terminator excluded: a terminated line of
        // exactly MAX_LINE_BYTES (padded with stripped whitespace) serves.
        let mut boundary = b"PING".to_vec();
        boundary.resize(MAX_LINE_BYTES, b' ');
        boundary.push(b'\n');
        writer.write_all(&boundary).expect("send boundary line");
        writer.flush().expect("flush");
        let mut pong = String::new();
        reader.read_line(&mut pong).expect("receive pong");
        assert_eq!(pong.trim_end(), "OK PONG");
        // A newline-less flood past MAX_LINE_BYTES must not buffer
        // forever: the server answers once and closes the connection.
        writer
            .write_all(&vec![b'a'; MAX_LINE_BYTES + 1024])
            .expect("send flood");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        assert_eq!(response.trim_end(), oversized_line_error());
        let closed = reader.read_line(&mut response).expect("read at EOF");
        assert_eq!(closed, 0, "connection must be dropped after the error");
        server.shutdown();
    }

    #[test]
    fn newline_less_drip_feed_is_capped_not_buffered_forever() {
        let server = start_fixture(ServerConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // Chunks arriving faster than the read timeout keep `read` from
        // ever timing out; the `take` budget must still cap the line.
        let chunk = vec![b'a'; 16 * 1024];
        let error = std::thread::spawn(move || {
            let mut response = String::new();
            reader.read_line(&mut response).expect("receive");
            response
        });
        for _ in 0..8 {
            if writer.write_all(&chunk).is_err() {
                break; // server already dropped us — that's the point
            }
            let _ = writer.flush();
            std::thread::sleep(POLL_INTERVAL / 4);
        }
        let response = error.join().expect("reader thread");
        assert_eq!(response.trim_end(), oversized_line_error());
        server.shutdown();
    }

    #[test]
    fn invalid_utf8_lines_get_a_typed_parse_error() {
        let server = start_fixture(ServerConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // A stray invalid byte (not a timeout-split multi-byte character)
        // answers a typed error and the connection keeps serving.
        writer.write_all(b"P\xFF Q 3\nPING\n").expect("send");
        writer.flush().expect("flush");
        let mut first = String::new();
        reader.read_line(&mut first).expect("receive error");
        assert_eq!(
            first.trim_end(),
            "ERR PARSE request line is not valid UTF-8"
        );
        let mut second = String::new();
        reader.read_line(&mut second).expect("receive pong");
        assert_eq!(second.trim_end(), "OK PONG");
        server.shutdown();
    }

    #[test]
    fn explain_returns_a_plan_without_executing() {
        let server = start_fixture(ServerConfig::default());
        let responses = roundtrip(
            server.local_addr(),
            &["EXPLAIN P Q 3 auto", "EXPLAIN", "explain nway chain P Q 2"],
        );
        assert!(responses[0].starts_with("OK PLAN choose "), "{responses:?}");
        assert!(responses[0].contains("auto"), "{responses:?}");
        assert!(
            responses[1].starts_with("ERR PARSE"),
            "bare EXPLAIN is malformed: {responses:?}"
        );
        assert!(responses[2].starts_with("OK PLAN "), "{responses:?}");
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_typed_parse_errors_with_request_ordinals() {
        let server = start_fixture(ServerConfig::default());
        let responses = roundtrip(
            server.local_addr(),
            &["P Z 3", "P Q 0", "P Q 3 b-idj-z", "P Q 3   # still fine"],
        );
        assert!(
            responses[0].starts_with("ERR PARSE query line 1:"),
            "{responses:?}"
        );
        assert!(
            responses[0].contains("unknown node set 'Z'"),
            "{responses:?}"
        );
        assert!(responses[1].contains("query line 2"), "{responses:?}");
        assert!(responses[2].contains("'b-idj-z'"), "{responses:?}");
        assert!(
            responses[3].starts_with("OK TWOWAY"),
            "a parse error must not poison the connection: {responses:?}"
        );
        server.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_busy_and_resends_succeed() {
        // Worker count 1, queue capacity 1, batch 1: a pipelined burst must
        // overflow and the rejected lines re-send cleanly.
        let server = start_fixture(
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_batch(1),
        );
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let burst = 16usize;
        for _ in 0..burst {
            writeln!(writer, "P Q 3").unwrap();
        }
        writer.flush().unwrap();
        let mut ok = Vec::new();
        let mut busy = 0usize;
        for _ in 0..burst {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end().to_string();
            if response.starts_with("ERR BUSY") {
                busy += 1;
            } else {
                assert!(response.starts_with("OK TWOWAY"), "{response}");
                ok.push(response);
            }
        }
        assert!(
            busy > 0,
            "a 16-deep pipelined burst must overflow capacity 1"
        );
        // Re-send every rejected query: all succeed with identical answers.
        for _ in 0..busy {
            loop {
                writeln!(writer, "P Q 3").unwrap();
                writer.flush().unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                let response = response.trim_end().to_string();
                if response.starts_with("ERR BUSY") {
                    continue;
                }
                assert_eq!(response, ok[0], "re-sent answers are bit-identical");
                break;
            }
        }
        drop(writer);
        let report = server.shutdown();
        assert_eq!(report.served + report.rejected, report.served + busy as u64);
        assert_eq!(report.served as usize, burst, "every unique query answered");
    }

    #[test]
    fn late_queries_racing_shutdown_are_answered_or_refused_never_orphaned() {
        // Regression: queries pipelined right behind SHUTDOWN must either
        // be admitted before the queue closes (a worker then drains them)
        // or be refused with a typed line — never admitted-and-orphaned,
        // which would hang the connection writer and Server::join forever.
        let server = start_fixture(ServerConfig::default().with_workers(1));
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        writeln!(writer, "SHUTDOWN").unwrap();
        let late = 8usize;
        for _ in 0..late {
            writeln!(writer, "P Q 3").unwrap();
        }
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert_eq!(response.trim_end(), "OK BYE");
        for index in 0..late {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end();
            assert!(
                response.starts_with("OK TWOWAY") || response.starts_with("ERR BUSY"),
                "late query {index} got: {response}"
            );
        }
        // The join must complete (this is where the pre-fix server hung).
        let report = server.join();
        assert_eq!(report.queue_depth, 0);
    }

    #[test]
    fn qos_prefixes_never_change_answers() {
        let server = start_fixture(ServerConfig::default());
        let responses = roundtrip(
            server.local_addr(),
            &[
                "P Q 3",
                "DEADLINE 60000 P Q 3",
                "PRIO batch P Q 3",
                "deadline 60000 prio interactive P Q 3",
                "PRIO urgent P Q 3",
            ],
        );
        assert!(responses[0].starts_with("OK TWOWAY"), "{responses:?}");
        for qos in &responses[1..4] {
            assert_eq!(
                qos, &responses[0],
                "a QoS prefix must not change the answer"
            );
        }
        assert!(responses[4].contains("bad token 'urgent'"), "{responses:?}");
        let report = server.shutdown();
        assert_eq!(report.interactive_served, 3);
        assert_eq!(report.batch_served, 1);
    }

    #[test]
    fn rate_limited_connections_get_typed_quota_with_honest_hints() {
        let server = start_fixture(ServerConfig::default().with_rate(10).with_burst(2));
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let burst = 10usize;
        for _ in 0..burst {
            writeln!(writer, "P Q 3").unwrap();
        }
        // Control verbs are exempt: a throttled client can still probe.
        writeln!(writer, "PING").unwrap();
        writer.flush().unwrap();
        let mut served = 0usize;
        let mut quota = 0usize;
        for _ in 0..burst {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end();
            if wire::is_quota(response) {
                quota += 1;
                let hint = wire::retry_after_ms(response).expect("hint parses");
                assert!((1..=1000).contains(&hint), "10/s refills within 100 ms");
            } else {
                assert!(response.starts_with("OK TWOWAY"), "{response}");
                served += 1;
            }
        }
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        assert_eq!(pong.trim_end(), "OK PONG");
        assert!(quota > 0, "a 10-deep burst must overrun burst capacity 2");
        assert_eq!(served + quota, burst);
        // Honouring the hint succeeds: one more token accrues in ≤ 100 ms.
        std::thread::sleep(Duration::from_millis(120));
        writeln!(writer, "P Q 3").unwrap();
        writer.flush().unwrap();
        let mut retry = String::new();
        reader.read_line(&mut retry).unwrap();
        assert!(retry.starts_with("OK TWOWAY"), "{retry}");
        let report = server.shutdown();
        assert_eq!(report.quota_rejected, quota as u64);
        assert_eq!(report.rejected, 0, "quota refusals are not BUSY refusals");
    }

    #[test]
    fn expired_deadlines_answer_typed_lines_without_execution() {
        // One worker and a deep pipelined burst of 1 ms budgets: the tail
        // of the queue must wait longer than its budget and expire.  (The
        // queue is sized to admit the whole burst, so every line gets
        // either an answer or a deadline expiry — never a BUSY.)
        let server = start_fixture(
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(512),
        );
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let burst = 512usize;
        for _ in 0..burst {
            writeln!(writer, "DEADLINE 1 nway chain P Q 3 ap min").unwrap();
        }
        writer.flush().unwrap();
        let mut served = Vec::new();
        let mut expired = 0usize;
        for _ in 0..burst {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end().to_string();
            if wire::is_deadline(&response) {
                assert!(response.contains("budget of 1 ms"), "{response}");
                assert!(response.contains("not executed"), "{response}");
                expired += 1;
            } else {
                assert!(response.starts_with("OK NWAY"), "{response}");
                served.push(response);
            }
        }
        assert!(
            expired > 0,
            "a 64-deep queue on one worker must expire 1 ms budgets"
        );
        assert!(
            !served.is_empty(),
            "the queue head is served before its budget runs out"
        );
        // A comfortable budget on the now-idle server always serves.
        writeln!(writer, "DEADLINE 60000 P Q 3").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("OK TWOWAY"), "{response}");
        let report = server.shutdown();
        assert_eq!(report.expired, expired as u64);
        assert_eq!(report.served, served.len() as u64 + 1);
    }

    #[test]
    fn batch_floods_cannot_exhaust_interactive_admission() {
        // Batch class: capacity 1.  Interactive: default 128.  A pipelined
        // batch flood must hit `ERR BUSY batch` while interactive requests
        // sail through unrejected on the same connection.
        let server = start_fixture(
            ServerConfig::default()
                .with_workers(1)
                .with_batch_queue_capacity(1)
                .with_batch(1),
        );
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let burst = 24usize;
        for _ in 0..burst {
            writeln!(writer, "PRIO batch P Q 3").unwrap();
        }
        for _ in 0..4 {
            writeln!(writer, "P Q 3").unwrap();
        }
        writer.flush().unwrap();
        let mut batch_busy = 0usize;
        for index in 0..burst {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end();
            if response.starts_with("ERR BUSY batch") {
                batch_busy += 1;
            } else {
                assert!(
                    response.starts_with("OK TWOWAY"),
                    "batch {index}: {response}"
                );
            }
        }
        assert!(
            batch_busy > 0,
            "a 24-deep batch burst must overflow capacity 1"
        );
        for index in 0..4 {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert!(
                response.starts_with("OK TWOWAY"),
                "interactive {index} must never be rejected: {}",
                response.trim_end()
            );
        }
        let report = server.shutdown();
        assert_eq!(report.rejected, batch_busy as u64);
        assert_eq!(report.interactive_served, 4);
    }

    #[test]
    fn disconnected_clients_have_pending_responses_dropped_not_blocking() {
        // A client bursts queries and slams the connection shut without
        // reading: workers must not block handing results to the dead
        // connection, drops must be counted, and shutdown must not hang.
        let server = start_fixture(ServerConfig::default().with_workers(1).with_batch(1));
        let addr = server.local_addr();
        {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
            for _ in 0..64 {
                writeln!(writer, "nway chain P Q 3 ap min").unwrap();
            }
            writer.flush().unwrap();
            // Dropping both halves closes with every response unread; the
            // server's next write gets a connection-reset error.
        }
        // A well-behaved connection keeps working while the dead one is
        // cleaned up, and shutdown drains everything without hanging.
        let responses = roundtrip(addr, &["P Q 3"]);
        assert!(responses[0].starts_with("OK TWOWAY"), "{responses:?}");
        let report = server.shutdown();
        assert_eq!(report.queue_depth, 0, "drained despite the dead client");
        assert!(
            report.dropped > 0,
            "dropped responses must be counted: {report:?}"
        );
        assert!(
            report.served >= 1,
            "the live connection was served: {report:?}"
        );
    }

    #[test]
    fn shutdown_during_overload_answers_or_refuses_every_request_and_joins() {
        // SHUTDOWN while the queue is full and hostile clients are
        // attached: every queued request drains or is refused with a
        // typed line, and join() returns without leaking threads.
        let server = start_fixture(
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(4)
                .with_batch_queue_capacity(2)
                .with_batch(1),
        );
        let addr = server.local_addr();
        // Hostile 1: a never-read client with a pipelined backlog.
        let never_read = TcpStream::connect(addr).expect("connect");
        let mut never_read_writer = BufWriter::new(never_read.try_clone().expect("clone"));
        for _ in 0..32 {
            writeln!(never_read_writer, "PRIO batch P Q 3").unwrap();
        }
        never_read_writer.flush().unwrap();
        // Hostile 2: a disconnect-mid-flight client.
        {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
            for _ in 0..16 {
                writeln!(writer, "nway chain P Q 3 ap min").unwrap();
            }
            writer.flush().unwrap();
        }
        // The well-behaved client pipelines queries behind a SHUTDOWN and
        // must get one typed line per request.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let late = 12usize;
        for _ in 0..(late / 2) {
            writeln!(writer, "P Q 3").unwrap();
        }
        writeln!(writer, "SHUTDOWN").unwrap();
        for _ in 0..(late / 2) {
            writeln!(writer, "DEADLINE 1000 P Q 3").unwrap();
        }
        writer.flush().unwrap();
        let mut bye = 0usize;
        for index in 0..=late {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end();
            if response == "OK BYE" {
                bye += 1;
                continue;
            }
            assert!(
                response.starts_with("OK TWOWAY")
                    || response.starts_with("ERR BUSY")
                    || response.starts_with("ERR DEADLINE"),
                "request {index} must get a typed line, got: {response}"
            );
        }
        assert_eq!(bye, 1, "exactly one SHUTDOWN acknowledgement");
        // No RST'd responses: EOF arrives only after every line above.
        let mut eof_probe = String::new();
        assert_eq!(reader.read_line(&mut eof_probe).unwrap(), 0, "clean close");
        drop(never_read_writer);
        drop(never_read);
        // The join is the satellite's point: it must return despite the
        // full queue, the dead client and the never-read backlog.
        let report = server.join();
        assert_eq!(report.queue_depth, 0, "nothing left queued: {report:?}");
    }

    #[test]
    fn partial_writes_resume_until_every_response_is_delivered_in_order() {
        // Readiness-loop edge case: the client pipelines enough STATS
        // requests that the responses (~400 bytes each) overrun the
        // kernel's loopback buffering while it is not reading, forcing the
        // event loop through the partial-write path (outbuf flushed as far
        // as the socket accepts, remainder retried on POLLOUT).  Every
        // response must still arrive intact and in request order.
        let server = start_fixture(ServerConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let burst = 30_000usize;
        for _ in 0..burst {
            writeln!(writer, "STATS").unwrap();
        }
        writer.flush().unwrap();
        // Let the server stuff the socket until it blocks (well under the
        // write-stall limit, so the connection must not be marked dead).
        std::thread::sleep(WRITE_STALL_LIMIT / 4);
        let mut response = String::new();
        for index in 0..burst {
            response.clear();
            reader.read_line(&mut response).expect("receive");
            assert!(
                response.starts_with("OK STATS served=0"),
                "response {index} arrived corrupt or out of order: {response:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn request_line_split_across_many_tiny_reads_is_reassembled() {
        // Readiness-loop edge case: one request line delivered in dozens
        // of fragments, each landing in its own readable event (every
        // fragment is followed by a WouldBlock read).  The per-connection
        // raw buffer must reassemble the line — including a multi-byte
        // UTF-8 character split across fragments — exactly once.
        let server = start_fixture(ServerConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let line = "P Q 3   # caf\u{e9} caf\u{e9} caf\u{e9}\n".as_bytes();
        for chunk in line.chunks(1) {
            writer.write_all(chunk).expect("send byte");
            writer.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        assert!(response.starts_with("OK TWOWAY"), "{response:?}");
        // The fragments formed one request, not several.
        let responses = roundtrip(server.local_addr(), &["STATS"]);
        assert!(responses[0].contains(" served=1 "), "{responses:?}");
        server.shutdown();
    }

    #[test]
    fn hundreds_of_idle_connections_close_cleanly_on_shutdown() {
        // Readiness-loop edge case: graceful SHUTDOWN with hundreds of
        // idle registered connections.  The old thread-per-connection
        // design parked two stacks on each; the event loop holds one
        // buffer per connection and must flush-and-close all of them
        // (EOF, not RST) without stalling the join.
        let server = start_fixture(ServerConfig::default());
        let addr = server.local_addr();
        let idle: Vec<TcpStream> = (0..300)
            .map(|index| {
                TcpStream::connect(addr).unwrap_or_else(|error| panic!("connect {index}: {error}"))
            })
            .collect();
        // Wait until the event loop has registered every connection.
        while server.stats().connections < idle.len() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let responses = roundtrip(addr, &["SHUTDOWN"]);
        assert_eq!(responses[0], "OK BYE");
        let report = server.join();
        assert_eq!(report.connections, 0, "{report:?}");
        // Every idle connection was closed cleanly: EOF, no reset error.
        for (index, stream) in idle.into_iter().enumerate() {
            let mut probe = String::new();
            let mut reader = BufReader::new(stream);
            let read = reader
                .read_line(&mut probe)
                .unwrap_or_else(|error| panic!("idle connection {index}: {error}"));
            assert_eq!(read, 0, "idle connection {index} got bytes: {probe:?}");
        }
    }

    /// Two named graphs with deliberately different structure but the
    /// same set names, so `P Q 3` answers differently per graph and any
    /// routing mistake shows up as a wrong (still well-formed) answer.
    fn registry_fixture() -> (GraphRegistry, Vec<Vec<NodeSet>>) {
        let (ring_engine, ring_sets) = fixture();
        let mut b = GraphBuilder::with_nodes(8);
        for (u, v, w) in [
            (0u32, 1u32, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.0),
            (3, 4, 2.0),
            (4, 5, 1.0),
            (5, 6, 2.0),
            (6, 7, 1.0),
        ] {
            b.add_undirected_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        let path_engine = Engine::new(b.build().unwrap());
        let path_sets = vec![
            NodeSet::new("P", (0..3).map(NodeId)),
            NodeSet::new("Q", (5..8).map(NodeId)),
            NodeSet::new("MID", [NodeId(3), NodeId(4)]),
        ];
        let registry = GraphRegistry::from_engines(vec![
            ("ring".to_string(), ring_engine),
            ("path".to_string(), path_engine),
        ]);
        (registry, vec![ring_sets, path_sets])
    }

    /// The bit-exact in-process answer for `line` against registry graph
    /// `graph` of [`registry_fixture`].
    fn registry_expected(graph: usize, line: &str) -> String {
        let (registry, sets) = registry_fixture();
        let spec = queryline::parse_query_line(line, &sets[graph], &ParseOptions::default(), 1)
            .unwrap()
            .unwrap()
            .spec;
        let output = registry.engine(graph).session().run(&spec).unwrap();
        format!("OK {}", wire::encode_output(&output))
    }

    #[test]
    fn use_and_graph_prefix_select_graphs_without_changing_answers() {
        let (registry, sets) = registry_fixture();
        let server = Server::start_registry(
            registry,
            sets,
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        let ring = registry_expected(0, "P Q 3");
        let path = registry_expected(1, "P Q 3");
        assert_ne!(ring, path, "the fixture graphs must answer differently");
        let responses = roundtrip(
            addr,
            &[
                "P Q 3",       // connections start on graph 0
                "USE path",    // sticky switch
                "P Q 3",       // now answered by `path`
                "@ring P Q 3", // one-line override, answers like graph 0
                "P Q 3",       // the override was not sticky
                "@path P Q 3", // explicit prefix for the current graph
                "USE ring",    // switch back
                "P Q 3",
            ],
        );
        assert_eq!(responses[0], ring);
        assert_eq!(responses[1], "OK USE path");
        assert_eq!(responses[2], path);
        assert_eq!(responses[3], ring, "@ring overrides USE for one line");
        assert_eq!(responses[4], path, "@<graph> must not be sticky");
        assert_eq!(responses[5], path);
        assert_eq!(responses[6], "OK USE ring");
        assert_eq!(responses[7], ring);
        // A fresh connection starts on graph 0 regardless of other
        // connections' USE state.
        assert_eq!(roundtrip(addr, &["P Q 3"]), vec![ring.clone()]);
        // Unknown graphs answer typed errors listing what is available.
        let errors = roundtrip(addr, &["USE nope", "@nope P Q 3", "USE", "P Q 3"]);
        assert_eq!(
            errors[0],
            "ERR PARSE unknown graph 'nope' (available graphs: ring, path)"
        );
        assert!(
            errors[1].starts_with("ERR PARSE query line 2: unknown graph 'nope'"),
            "{errors:?}"
        );
        assert!(
            errors[1].contains("available graphs: ring, path"),
            "{errors:?}"
        );
        assert_eq!(
            errors[2],
            "ERR PARSE USE needs a graph name (`USE <graph>`)"
        );
        assert_eq!(errors[3], ring, "errors leave the selection untouched");
        // SETS lists the *current* graph's catalogue.
        let catalogues = roundtrip(addr, &["SETS", "USE path", "SETS"]);
        assert_eq!(catalogues[0], "OK SETS P Q");
        assert_eq!(catalogues[2], "OK SETS P Q MID");
        server.shutdown();
    }

    #[test]
    fn stats_reports_per_graph_blocks_and_build_info() {
        let (registry, sets) = registry_fixture();
        let server = Server::start_registry(
            registry,
            sets,
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        let responses = roundtrip(addr, &["P Q 3", "P Q 2", "@path P Q 3", "STATS"]);
        let stats = &responses[3];
        assert!(stats.contains(" graphs=2"), "{stats}");
        assert!(stats.contains(" graph.ring.served=2"), "{stats}");
        assert!(stats.contains(" graph.path.served=1"), "{stats}");
        assert!(stats.contains(" graph.ring.cache_bytes="), "{stats}");
        assert!(stats.contains(" graph.path.cache_hits="), "{stats}");
        assert!(stats.contains(" uptime_ms="), "{stats}");
        assert!(
            stats.contains(&format!(" build={}", metrics::BUILD_ID)),
            "{stats}"
        );
        assert!(
            stats.contains(" default_deadline_interactive=0 default_deadline_batch=0"),
            "{stats}"
        );
        server.shutdown();
    }

    #[test]
    fn single_graph_servers_register_as_default() {
        // `Server::start` is registry sugar: one graph named `default`,
        // reachable explicitly by name and listed in STATS.
        let server = start_fixture(ServerConfig::default());
        let addr = server.local_addr();
        let responses = roundtrip(
            addr,
            &["USE default", "@default P Q 3", "P Q 3", "SETS", "STATS"],
        );
        assert_eq!(responses[0], "OK USE default");
        assert!(responses[1].starts_with("OK TWOWAY"), "{responses:?}");
        assert_eq!(responses[1], responses[2]);
        assert_eq!(responses[3], "OK SETS P Q");
        assert!(responses[4].contains(" graphs=1"), "{responses:?}");
        assert!(
            responses[4].contains(" graph.default.served=2"),
            "{responses:?}"
        );
        server.shutdown();
    }

    #[test]
    fn default_deadlines_apply_only_to_unprefixed_lines() {
        // A 1 ms server-side default on one worker with a deep pipelined
        // burst: plain lines inherit the default and the queue tail
        // expires, while lines carrying an explicit comfortable DEADLINE
        // prefix override the default and always serve.
        let server = start_fixture(
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(512)
                .with_default_deadline_interactive(1),
        );
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        let burst = 256usize;
        for index in 0..burst {
            if index % 2 == 0 {
                writeln!(writer, "nway chain P Q 3 ap min").unwrap();
            } else {
                writeln!(writer, "DEADLINE 60000 nway chain P Q 3 ap min").unwrap();
            }
        }
        writer.flush().unwrap();
        let mut expired = 0usize;
        for index in 0..burst {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end();
            if index % 2 == 1 {
                assert!(
                    response.starts_with("OK NWAY"),
                    "explicit DEADLINE overrides the default: {response}"
                );
            } else if wire::is_deadline(response) {
                assert!(response.contains("budget of 1 ms"), "{response}");
                expired += 1;
            } else {
                assert!(response.starts_with("OK NWAY"), "{response}");
            }
        }
        assert!(
            expired > 0,
            "a deep queue on one worker must expire inherited 1 ms budgets"
        );
        // The configured defaults are visible in STATS.
        let stats = roundtrip(addr, &["STATS"]);
        assert!(
            stats[0].contains(" default_deadline_interactive=1 default_deadline_batch=0"),
            "{stats:?}"
        );
        let report = server.shutdown();
        assert_eq!(report.expired, expired as u64);
    }

    #[test]
    fn start_registry_rejects_malformed_registries() {
        let bad_name = GraphRegistry::from_engines(vec![("no spaces".to_string(), {
            let mut b = GraphBuilder::with_nodes(2);
            b.add_undirected_edge(NodeId(0), NodeId(1), 1.0).unwrap();
            Engine::new(b.build().unwrap())
        })]);
        assert!(Server::start_registry(
            bad_name,
            vec![Vec::new()],
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .is_err());
        let (registry, _) = registry_fixture();
        assert!(
            Server::start_registry(
                registry,
                vec![Vec::new()], // one catalogue for two graphs
                ParseOptions::default(),
                ServerConfig::default(),
            )
            .is_err(),
            "sets must be per-graph"
        );
    }

    #[test]
    fn start_rejects_sets_with_ids_outside_the_graph() {
        let (engine, mut sets) = fixture();
        let nodes = engine.graph().node_count();
        sets.push(NodeSet::new("BAD", [NodeId(0), NodeId(99)]));
        let err = Server::start(
            engine,
            sets,
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .err()
        .expect("an out-of-range set must refuse to start");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<GraphError>());
        assert!(
            matches!(
                inner,
                Some(GraphError::NodeSetOutOfRange { set, node: 99, node_count })
                    if set == "BAD" && *node_count == nodes
            ),
            "{err}"
        );
    }

    /// Reads one `METRICS` response: the `OK METRICS` head plus every
    /// line through the `# EOF` sentinel.
    fn read_metrics(reader: &mut impl BufRead) -> String {
        let mut text = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("receive metrics line");
            assert!(!line.is_empty(), "EOF before the # EOF sentinel:\n{text}");
            let done = line.trim_end() == "# EOF";
            text.push_str(&line);
            if done {
                return text;
            }
        }
    }

    #[test]
    fn metrics_verb_exposes_the_registry_over_the_wire() {
        let (registry, sets) = registry_fixture();
        let server = Server::start_registry(
            registry,
            sets,
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        // Answer the queries first (their responses are read back, so the
        // served counters are recorded before the scrape is dispatched —
        // METRICS answers inline on the event thread).
        let answers = roundtrip(addr, &["P Q 3 auto", "@path P Q 3 auto"]);
        assert!(
            answers.iter().all(|a| a.starts_with("OK TWOWAY")),
            "{answers:?}"
        );
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        // Pipeline a request behind the scrape: the multi-line response
        // must come through the reorder buffer as one unit, in order.
        writeln!(writer, "METRICS\nPING").unwrap();
        writer.flush().unwrap();
        let mut head = String::new();
        reader.read_line(&mut head).unwrap();
        assert_eq!(head.trim_end(), "OK METRICS");
        let text = read_metrics(&mut reader);
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        assert_eq!(pong.trim_end(), "OK PONG", "scrapes must not eat answers");
        for family in [
            "dht_requests_served_total",
            "dht_requests_rejected_total",
            "dht_responses_dropped_total",
            "dht_request_latency_seconds",
            "dht_queue_depth",
            "dht_connections",
            "dht_graph_served_total",
            "dht_plan_chosen",
            "dht_build_info",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "{family} missing"
            );
        }
        assert!(
            text.contains("dht_requests_served_total{class=\"interactive\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("dht_graph_served_total{graph=\"ring\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dht_graph_served_total{graph=\"path\"} 1"),
            "{text}"
        );
        assert!(text.contains("dht_responses_dropped_total 0"), "{text}");
        assert!(
            text.contains("dht_request_latency_seconds_count{class=\"all\"} 2"),
            "{text}"
        );
        // Both queries planned through Auto on a cold cache: the planner
        // gauges are live, with one label per algorithm Auto can pick.
        for graph in ["ring", "path"] {
            assert!(
                text.contains(&format!("dht_plans{{graph=\"{graph}\"}} 1")),
                "{text}"
            );
            for (algorithm, count) in [("b-bj", 0), ("b-idj-y", 1), ("pj-i", 0)] {
                let series = format!(
                    "dht_plan_chosen{{graph=\"{graph}\",algorithm=\"{algorithm}\"}} {count}\n"
                );
                assert!(text.contains(&series), "{series} missing: {text}");
            }
        }
        // Those are the planner's only series: two plans, six picks.
        let planner_series = text.lines().filter(|l| l.starts_with("dht_plan")).count();
        assert_eq!(planner_series, 2 + 6, "{text}");
        server.shutdown();
    }

    #[test]
    fn trace_prefix_returns_a_span_comment_before_an_identical_answer() {
        let server = start_fixture(ServerConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        writeln!(writer, "P Q 3\nTRACE P Q 3\nTRACE nway chain P Q 2 ap min").unwrap();
        writer.flush().unwrap();
        let mut plain = String::new();
        reader.read_line(&mut plain).unwrap();
        assert!(plain.starts_with("OK TWOWAY"), "{plain}");
        let mut comment = String::new();
        reader.read_line(&mut comment).unwrap();
        assert!(comment.starts_with("# trace: total_ms="), "{comment}");
        assert!(comment.contains(" parse_ms="), "{comment}");
        assert!(comment.contains(" queue_ms="), "{comment}");
        assert!(comment.contains(" join_ms="), "{comment}");
        assert!(comment.contains(" serialize_ms="), "{comment}");
        let mut traced = String::new();
        reader.read_line(&mut traced).unwrap();
        assert_eq!(
            traced, plain,
            "the TRACE prefix must never perturb the answer"
        );
        // N-way traces carry the same schema through a different path.
        let mut nway_comment = String::new();
        reader.read_line(&mut nway_comment).unwrap();
        assert!(
            nway_comment.starts_with("# trace: total_ms="),
            "{nway_comment}"
        );
        let mut nway = String::new();
        reader.read_line(&mut nway).unwrap();
        assert!(nway.starts_with("OK NWAY"), "{nway}");
        // The traced-request counter is visible in the exposition.
        writeln!(writer, "METRICS").unwrap();
        writer.flush().unwrap();
        let mut head = String::new();
        reader.read_line(&mut head).unwrap();
        assert_eq!(head.trim_end(), "OK METRICS");
        let text = read_metrics(&mut reader);
        assert!(text.contains("dht_traced_requests_total 2"), "{text}");
        let report = server.shutdown();
        assert_eq!(report.served, 3);
    }

    #[test]
    fn slow_query_budgets_enable_tracing_without_perturbing_answers() {
        // A 1 ms budget on a debug-build n-way join: tracing is live for
        // every request, yet answers are bit-identical to an untraced
        // server and untraced lines get no comment prepended.
        let baseline = start_fixture(ServerConfig::default());
        let expected = roundtrip(baseline.local_addr(), &["nway chain P Q 3 ap min", "P Q 3"]);
        baseline.shutdown();
        let server = start_fixture(ServerConfig::default().with_slow_ms(1));
        let responses = roundtrip(server.local_addr(), &["nway chain P Q 3 ap min", "P Q 3"]);
        assert_eq!(responses, expected, "slow-query tracing must be invisible");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        writeln!(writer, "METRICS").unwrap();
        writer.flush().unwrap();
        let mut head = String::new();
        reader.read_line(&mut head).unwrap();
        assert_eq!(head.trim_end(), "OK METRICS");
        let text = read_metrics(&mut reader);
        assert!(
            text.contains("# TYPE dht_slow_queries_total counter"),
            "{text}"
        );
        assert!(
            text.contains("dht_traced_requests_total 0"),
            "no TRACE prefix was sent: {text}"
        );
        server.shutdown();
    }

    #[test]
    fn slow_log_reports_the_plan_the_query_ran() {
        // k = |P|·|Q| prunes no target, so the cold B-IDJ-Y run leaves
        // every target column resident: a plan read after the query would
        // claim B-BJ, a plan the query never ran.
        let (engine, sets) = fixture();
        let mut session = engine.session();
        let spec = QuerySpec::two_way(sets[0].clone(), sets[1].clone(), 25);
        let (response, plan) = answer(&mut session, &spec, false, true);
        assert!(response.starts_with("OK TWOWAY"), "{response}");
        let line = slow_line("worker=0", 9.0, 1, plan.as_ref(), &session, "# trace:");
        assert!(
            line.contains("plan `choose B-IDJ-Y (auto; warm 0/5 target columns)`"),
            "{line}"
        );
        let after = session.explain(&spec).unwrap();
        assert_eq!(
            after.to_string(),
            "choose B-BJ (auto; warm 5/5 target columns)"
        );

        // Without a slow budget the query runs through `Session::run`.
        let (again, plan) = answer(&mut session, &spec, false, false);
        assert_eq!((again, plan.is_none()), (response, true));
    }

    #[test]
    fn shutdown_verb_drains_and_exits_cleanly() {
        let server = start_fixture(ServerConfig::default());
        let addr = server.local_addr();
        let responses = roundtrip(addr, &["P Q 2", "SHUTDOWN"]);
        assert!(responses[0].starts_with("OK TWOWAY"), "{responses:?}");
        assert_eq!(responses[1], "OK BYE");
        assert!(server.is_shutting_down());
        let report = server.join();
        assert_eq!(report.served, 1);
        assert_eq!(report.queue_depth, 0, "queue drained before exit");
        // The listener is gone after shutdown.
        assert!(TcpStream::connect(addr).is_err());
    }
}
