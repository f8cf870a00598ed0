//! Sharded top-k routing: one front door over M `dht-server` backends.
//!
//! The paper's backward joins spend their time on per-**target** walk
//! columns, so the natural scale-out axis is the *target* side of a
//! two-way query: partition the right-hand set's members across backends
//! by deterministic hash, run the same backward join against each
//! partition, and merge the per-shard scored streams into the global
//! top-k.  Because every score travels as its exact `f64` bit pattern
//! ([`dht_server::wire`]) and every backward-family algorithm orders ties
//! deterministically, the merged answer is **string-equal** to a
//! single-server run over the union graph — the router is invisible in
//! the results (`tests/router_parity_proptest.rs` pins this).
//!
//! ```text
//!                        ┌────────────────────┐      ┌─────────────┐
//!  clients ──────────▶   │     dht-router     │ ──▶  │ dht-server 0│ P, Q, Q%0of2
//!  (same line protocol)  │ classify → fan out │ ──▶  │ dht-server 1│ P, Q, Q%1of2
//!                        │  → merge top-k     │      └─────────────┘
//!                        └────────────────────┘   (each: full union graph)
//! ```
//!
//! ## Deployment model
//!
//! Every backend hosts the **full union graph** and the full base sets,
//! plus *shard alias* sets named `BASE%<shard>of<count>` holding the base
//! members whose node id hashes to that shard ([`shard_set_name`],
//! [`shard_for_node`]; [`shard_node_sets`] computes them, `dht shard-sets`
//! writes them).  Empty shards get **no** alias set, so a missing alias is
//! never an error — it means "no targets here".  At startup the router
//! asks each backend `SETS` and learns which aliases it holds.
//!
//! ## Routing rules
//!
//! * A two-way line whose algorithm is absent or backward-family (`b-bj`,
//!   `b-idj-x`, `b-idj-y`, `auto` — the planner only auto-selects within
//!   the backward family, so all of these answer bit-identically) **fans
//!   out**: the right-hand token is rewritten to each backend's alias and
//!   the per-shard `OK TWOWAY` streams are merged by (score desc, left id
//!   asc, right id asc) — the engine's `TopKBuffer` retention order, a
//!   total order over pairs — then truncated to `k`.  Because each shard
//!   reports its local top-`k` under that same order and the shards
//!   partition the candidate pairs, the truncated merge is exactly the
//!   union run's answer, boundary ties included.
//! * Everything else (forward algorithms, `nway`, `EXPLAIN`, `@<graph>`
//!   lines, malformed input) routes **whole** to one backend picked by a
//!   deterministic hash of the line, and the reply is relayed verbatim.
//! * `PING` / `STATS` / `METRICS` answer locally (`METRICS` renders the
//!   router's own registry — routing counters, per-backend latency and
//!   health — as a multi-line text exposition ending `# EOF`; scrape each
//!   backend directly for engine-level families); `SHUTDOWN` answers `OK BYE`, drains,
//!   and — with [`RouterConfig::own_backends`] — shuts the backends down
//!   too.  `USE <graph>` is fanned to every backend (and replayed after
//!   reconnects); it disables fan-out for the connection, since shard
//!   aliases were inventoried against each backend's default graph.
//!
//! ## Failure semantics
//!
//! A backend that stops answering is retried with the load generator's
//! capped-exponential backoff ([`dht_server::loadgen::busy_backoff`]); if
//! it stays down the affected line answers a typed
//! `ERR SHARD <name> unavailable; retry later` ([`dht_server::wire::is_shard`])
//! instead of a silently incomplete top-k.  Typed backend rejections
//! (`ERR BUSY`, `ERR QUOTA`, `ERR DEADLINE`) propagate upstream verbatim,
//! so client retry loops keep working through the router unchanged.
//!
//! ## Wire discipline
//!
//! Every request or reply line the router sends, to a client or to a
//! backend, leaves in **one** write of `line + "\n"`, and every socket the
//! router owns has `TCP_NODELAY` set.  A line written as two segments on
//! a Nagle socket holds its second segment (the terminator) until the
//! peer's delayed ACK, ≈ 40 ms on Linux (RFC 896, RFC 1122 §4.2.3.2); a
//! routed line crosses two hops, so the split write cost every line
//! ≈ 80 ms.  Request lines are read through a 64 KiB budget, so a client
//! that streams bytes without a newline is answered `ERR PARSE` and
//! dropped instead of buffered without bound.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dht_core::queryline::{self, LinePrefixes};
use dht_graph::{fnv1a, NodeSet};
use dht_obs::{Counter, Gauge, Histogram, Registry};
use dht_poll::{poll, PollFd, POLLIN};
use dht_server::loadgen::busy_backoff;
use dht_server::metrics::BUILD_ID;

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// How often an idle client handler re-checks the shutdown flag.
const CLIENT_POLL: Duration = Duration::from_millis(50);
/// Longest request line the router will assemble before refusing.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// The shard (backend index) that owns target node `node` in an
/// `shards`-way partition.
pub fn shard_for_node(node: u32, shards: usize) -> usize {
    (fnv1a(&node.to_le_bytes()) % shards.max(1) as u64) as usize
}

/// The alias-set name of shard `index` of `count` for base set `base`:
/// `BASE%<index>of<count>`.  `%` cannot appear in query-line set names,
/// so aliases never collide with user sets.
pub fn shard_set_name(base: &str, index: usize, count: usize) -> String {
    format!("{base}%{index}of{count}")
}

/// Parses `name` as a shard alias of `base` in a `count`-way partition,
/// returning the shard index.
fn parse_shard_alias(name: &str, base: &str, count: usize) -> Option<usize> {
    let suffix = name.strip_prefix(base)?.strip_prefix('%')?;
    let (index, total) = suffix.split_once("of")?;
    let index: usize = index.parse().ok()?;
    let total: usize = total.parse().ok()?;
    (total == count && index < count).then_some(index)
}

/// Splits every base set into per-shard alias sets for a `count`-backend
/// fleet: result `[i]` holds, for each base set with at least one member
/// hashing to shard `i`, an alias set named [`shard_set_name`] keeping the
/// base member order.  Empty shards are omitted (a missing alias means
/// "no targets here", not an error).
pub fn shard_node_sets(sets: &[NodeSet], count: usize) -> Vec<Vec<NodeSet>> {
    let mut shards: Vec<Vec<NodeSet>> = (0..count).map(|_| Vec::new()).collect();
    for set in sets {
        let mut members: Vec<Vec<dht_graph::NodeId>> = (0..count).map(|_| Vec::new()).collect();
        for node in set.iter() {
            members[shard_for_node(node.0, count)].push(node);
        }
        for (index, nodes) in members.into_iter().enumerate() {
            if !nodes.is_empty() {
                shards[index].push(NodeSet::new(
                    shard_set_name(set.name(), index, count),
                    nodes,
                ));
            }
        }
    }
    shards
}

/// Construction-time knobs of a [`Router`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// TCP port to bind on `127.0.0.1` (`0` picks an ephemeral port).
    pub port: u16,
    /// `k` applied when merging fan-out answers for lines that omit it —
    /// **must** match the backends' `ParseOptions::default_k` (10).
    pub k: usize,
    /// Per-backend reply timeout in milliseconds.
    pub timeout_ms: u64,
    /// Reconnect-and-resend attempts per backend before a line answers
    /// `ERR SHARD`.
    pub retries: u32,
    /// Whether `SHUTDOWN` (or [`Router::shutdown`]) also sends `SHUTDOWN`
    /// to every backend after draining.
    pub own_backends: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            port: 0,
            k: 10,
            timeout_ms: 2_000,
            retries: 3,
            own_backends: false,
        }
    }
}

impl RouterConfig {
    /// Sets the TCP port (`0` = ephemeral).
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Sets the merge-time default `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Sets the per-backend reply timeout.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = timeout_ms.max(1);
        self
    }

    /// Sets the reconnect-retry budget per backend.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Makes shutdown propagate to the backends.
    pub fn with_own_backends(mut self, own: bool) -> Self {
        self.own_backends = own;
        self
    }
}

/// What the router learned about one backend at startup.
#[derive(Debug, Clone)]
pub struct BackendInfo {
    /// Where the backend listens.
    pub addr: SocketAddr,
    /// The router's name for it (`shard-<index>`), used in `ERR SHARD`.
    pub name: String,
    /// The backend's `STATS` line at probe time (health / `build=` info).
    pub health: String,
    /// The backend's set catalogue (`SETS`), aliases included.
    pub sets: Vec<String>,
}

/// Per-backend health reported by `STATS` (the `backend.<name>.…` blocks)
/// and the `METRICS` exposition.
#[derive(Debug, Clone, Default)]
pub struct BackendHealth {
    /// The router's name for the backend (`shard-<index>`).
    pub name: String,
    /// Milliseconds since the backend's startup probe answered.
    pub probe_age_ms: u64,
    /// Reconnect attempts made against the backend (each failed exchange
    /// drops the connection and reconnects on retry).
    pub reconnects: u64,
    /// Requests in flight against the backend at snapshot time, across
    /// every client handler.
    pub inflight: u64,
}

/// Point-in-time router counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStatsSnapshot {
    /// Backends configured.
    pub backends: usize,
    /// Request lines answered (all outcomes).
    pub served: u64,
    /// Lines answered by sharded fan-out + merge.
    pub fanned_out: u64,
    /// Lines routed whole to one backend.
    pub whole_routed: u64,
    /// Lines answered `ERR SHARD` (a backend stayed down past retries).
    pub shard_errors: u64,
    /// Milliseconds since the router started.
    pub uptime_ms: u64,
    /// Per-backend health, in backend order.
    pub backend_health: Vec<BackendHealth>,
}

impl RouterStatsSnapshot {
    /// The one-line `STATS` payload (without the leading `OK `): the
    /// global counters followed by one `backend.<name>.…` block per
    /// backend — appended last, so existing consumers keep parsing by
    /// prefix.
    pub fn wire_line(&self) -> String {
        let mut line = format!(
            "STATS router backends={} served={} fanout={} whole={} shard_errors={} \
             uptime_ms={} build={}",
            self.backends,
            self.served,
            self.fanned_out,
            self.whole_routed,
            self.shard_errors,
            self.uptime_ms,
            BUILD_ID,
        );
        for health in &self.backend_health {
            line.push_str(&format!(
                " backend.{0}.probe_age_ms={1} backend.{0}.reconnects={2} \
                 backend.{0}.inflight={3}",
                health.name, health.probe_age_ms, health.reconnects, health.inflight,
            ));
        }
        line
    }
}

/// Registry handles for one backend's telemetry.
struct BackendTelemetry {
    /// Per-request round-trip latency against this backend (fan-out legs
    /// and whole-routed lines alike).
    latency: Arc<Histogram>,
    /// `ERR SHARD` answers attributed to this backend.
    errors: Arc<Counter>,
    /// Reconnect attempts (a failed exchange drops the connection).
    reconnects: Arc<Counter>,
    /// Requests currently in flight, across every client handler.
    inflight: AtomicU64,
    /// Scrape-time view of [`BackendTelemetry::inflight`].
    inflight_gauge: Arc<Gauge>,
    /// Scrape-time gauge of seconds since the startup probe.
    probe_age: Arc<Gauge>,
    /// When the startup probe answered.
    probed: Instant,
}

/// The router's metrics registry plus the hot-path handles into it.
struct RouterMetrics {
    registry: Registry,
    served: Arc<Counter>,
    fanned_out: Arc<Counter>,
    whole_routed: Arc<Counter>,
    shard_errors: Arc<Counter>,
    retries: Arc<Counter>,
    merges: Arc<Counter>,
    merged_pairs: Arc<Counter>,
    uptime: Arc<Gauge>,
    per_backend: Vec<BackendTelemetry>,
}

impl RouterMetrics {
    fn new(backends: &[BackendInfo]) -> Self {
        let registry = Registry::new();
        let served = registry.counter(
            "dht_router_requests_total",
            "Request lines answered by the router (all outcomes).",
        );
        let fanned_out = registry.counter(
            "dht_router_fanout_total",
            "Lines answered by sharded fan-out + merge.",
        );
        let whole_routed = registry.counter(
            "dht_router_whole_routed_total",
            "Lines routed whole to one hash-chosen backend.",
        );
        let shard_errors = registry.counter(
            "dht_router_shard_errors_total",
            "Lines answered ERR SHARD (a backend stayed down past retries).",
        );
        let retries = registry.counter(
            "dht_router_retries_total",
            "Backend exchanges retried over a fresh connection.",
        );
        let merges = registry.counter("dht_router_merges_total", "Fan-out merges performed.");
        let merged_pairs = registry.counter(
            "dht_router_merged_pairs_total",
            "Scored pairs entering fan-out merges (sum over all merges).",
        );
        let backends_gauge = registry.gauge("dht_router_backends", "Backends configured.");
        backends_gauge.set(backends.len() as f64);
        let uptime = registry.gauge(
            "dht_router_uptime_seconds",
            "Seconds since the router started.",
        );
        let build_info = registry.gauge_with(
            "dht_router_build_info",
            "Constant 1; the version label carries the build id.",
            &[("version", BUILD_ID)],
        );
        build_info.set(1.0);
        let per_backend = backends
            .iter()
            .map(|backend| BackendTelemetry {
                latency: registry.histogram_with(
                    "dht_router_backend_latency_seconds",
                    "Round-trip latency per backend exchange (fan-out legs included).",
                    &[("backend", &backend.name)],
                ),
                errors: registry.counter_with(
                    "dht_router_backend_errors_total",
                    "ERR SHARD answers attributed to the backend.",
                    &[("backend", &backend.name)],
                ),
                reconnects: registry.counter_with(
                    "dht_router_backend_reconnects_total",
                    "Reconnect attempts against the backend.",
                    &[("backend", &backend.name)],
                ),
                inflight: AtomicU64::new(0),
                inflight_gauge: registry.gauge_with(
                    "dht_router_backend_inflight",
                    "Requests in flight against the backend at scrape time.",
                    &[("backend", &backend.name)],
                ),
                probe_age: registry.gauge_with(
                    "dht_router_backend_probe_age_seconds",
                    "Seconds since the backend's startup probe answered.",
                    &[("backend", &backend.name)],
                ),
                probed: Instant::now(),
            })
            .collect();
        RouterMetrics {
            registry,
            served,
            fanned_out,
            whole_routed,
            shard_errors,
            retries,
            merges,
            merged_pairs,
            uptime,
            per_backend,
        }
    }
}

struct RouterShared {
    config: RouterConfig,
    backends: Vec<BackendInfo>,
    shutdown: AtomicBool,
    metrics: RouterMetrics,
    started: Instant,
}

impl RouterShared {
    /// Counts one `ERR SHARD` answer, attributed to backend `index`.
    fn record_shard_error(&self, index: usize) {
        self.metrics.shard_errors.inc();
        if let Some(telemetry) = self.metrics.per_backend.get(index) {
            telemetry.errors.inc();
        }
    }

    fn snapshot(&self) -> RouterStatsSnapshot {
        RouterStatsSnapshot {
            backends: self.backends.len(),
            served: self.metrics.served.get(),
            fanned_out: self.metrics.fanned_out.get(),
            whole_routed: self.metrics.whole_routed.get(),
            shard_errors: self.metrics.shard_errors.get(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            backend_health: self
                .backends
                .iter()
                .zip(&self.metrics.per_backend)
                .map(|(backend, telemetry)| BackendHealth {
                    name: backend.name.clone(),
                    probe_age_ms: telemetry.probed.elapsed().as_millis() as u64,
                    reconnects: telemetry.reconnects.get(),
                    inflight: telemetry.inflight.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Refreshes the scrape-time gauges and renders the full exposition,
    /// trailing newline trimmed (the reply path appends exactly one).
    fn metrics_text(&self) -> String {
        self.metrics
            .uptime
            .set(self.started.elapsed().as_secs_f64());
        for telemetry in &self.metrics.per_backend {
            telemetry
                .inflight_gauge
                .set(telemetry.inflight.load(Ordering::Relaxed) as f64);
            telemetry
                .probe_age
                .set(telemetry.probed.elapsed().as_secs_f64());
        }
        let text = self.metrics.registry.render();
        text.trim_end_matches('\n').to_string()
    }
}

/// A running router: accept thread + one handler thread per client,
/// speaking the [`dht_server`] line protocol on both sides.
pub struct Router {
    shared: Arc<RouterShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Router {
    /// Probes every backend (`STATS` health, `SETS` alias inventory),
    /// binds `127.0.0.1:<port>` and starts routing.
    ///
    /// # Errors
    /// When a backend cannot be probed or the listen socket cannot bind —
    /// a router over a half-dead fleet should fail loudly at startup, not
    /// quietly at the first query.
    pub fn start(backends: &[SocketAddr], config: RouterConfig) -> io::Result<Router> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let timeout = Duration::from_millis(config.timeout_ms.max(1));
        let mut infos = Vec::with_capacity(backends.len());
        for (index, addr) in backends.iter().enumerate() {
            let probe = probe_backend(*addr, timeout).map_err(|error| {
                io::Error::new(
                    error.kind(),
                    format!("backend {index} ({addr}) failed its startup probe: {error}"),
                )
            })?;
            infos.push(BackendInfo {
                addr: *addr,
                name: format!("shard-{index}"),
                health: probe.0,
                sets: probe.1,
            });
        }
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = RouterMetrics::new(&infos);
        let shared = Arc::new(RouterShared {
            config,
            backends: infos,
            shutdown: AtomicBool::new(false),
            metrics,
            started: Instant::now(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dht-router-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Router {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the startup probe learned about each backend.
    pub fn backends(&self) -> &[BackendInfo] {
        &self.shared.backends
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> RouterStatsSnapshot {
        self.shared.snapshot()
    }

    /// Whether a shutdown (verb or handle) has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without waiting: the accept loop stops, handler
    /// threads finish their drains.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for a shutdown initiated elsewhere (the `SHUTDOWN` verb or
    /// [`Router::begin_shutdown`]) to complete, returning final stats.
    pub fn join(mut self) -> RouterStatsSnapshot {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.snapshot()
    }

    /// Graceful shutdown: stop accepting, drain handlers, then — with
    /// [`RouterConfig::own_backends`] — shut every backend down too.
    pub fn shutdown(self) -> RouterStatsSnapshot {
        self.begin_shutdown();
        self.join()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// One startup probe: `STATS` then `SETS` over a fresh connection.
fn probe_backend(addr: SocketAddr, timeout: Duration) -> io::Result<(String, Vec<String>)> {
    let stream = connect_backend(addr, timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    write_line(&mut writer, "STATS")?;
    let health = read_reply(&mut reader)?;
    write_line(&mut writer, "SETS")?;
    let sets = read_reply(&mut reader)?
        .strip_prefix("OK SETS")
        .unwrap_or("")
        .split_whitespace()
        .map(str::to_string)
        .collect();
    Ok((health, sets))
}

fn accept_loop(listener: TcpListener, shared: Arc<RouterShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let fd = listener.as_raw_fd();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut fds = [PollFd::new(fd, POLLIN)];
        match poll(&mut fds, ACCEPT_POLL.as_millis() as i32) {
            Ok(0) => {}
            Ok(_) => loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&shared);
                        if let Ok(handle) = std::thread::Builder::new()
                            .name("dht-router-client".into())
                            .spawn(move || client_loop(stream, shared))
                        {
                            handlers.push(handle);
                        }
                    }
                    Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            },
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
        handlers.retain(|handle| !handle.is_finished());
    }
    drop(listener);
    for handle in handlers {
        let _ = handle.join();
    }
    if shared.config.own_backends {
        for backend in &shared.backends {
            let _ = dht_server::loadgen::send_shutdown(backend.addr);
        }
    }
}

/// One live connection to one backend, owned by one client handler.
struct BackendConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Per-client routing state: lazy backend connections plus the session
/// prologue (`USE` lines) replayed after any reconnect.
struct ClientBackends<'r> {
    shared: &'r RouterShared,
    conns: Vec<Option<BackendConn>>,
    prologue: Vec<String>,
}

impl<'r> ClientBackends<'r> {
    fn new(shared: &'r RouterShared) -> Self {
        ClientBackends {
            shared,
            conns: shared.backends.iter().map(|_| None).collect(),
            prologue: Vec::new(),
        }
    }

    /// A connected (possibly fresh) conn to backend `index`, with the
    /// session prologue replayed on fresh connects.
    fn ensure(&mut self, index: usize) -> io::Result<&mut BackendConn> {
        if self.conns[index].is_none() {
            let stream = connect_backend(
                self.shared.backends[index].addr,
                Duration::from_millis(self.shared.config.timeout_ms.max(1)),
            )?;
            let writer = stream.try_clone()?;
            let mut conn = BackendConn {
                reader: BufReader::new(stream),
                writer,
            };
            for line in &self.prologue {
                write_line(&mut conn.writer, line)?;
                read_reply(&mut conn.reader)?;
            }
            self.conns[index] = Some(conn);
        }
        Ok(self.conns[index].as_mut().expect("just connected"))
    }

    /// Sends `line` to backend `index` and reads the one reply, retrying
    /// with capped-exponential backoff over fresh connections.  The
    /// round-trip (retries included) lands in the backend's latency
    /// histogram; each failed attempt counts a reconnect.
    fn exchange(&mut self, index: usize, line: &str) -> io::Result<String> {
        let shared = self.shared;
        let telemetry = &shared.metrics.per_backend[index];
        telemetry.inflight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let mut attempt = 0u32;
        let result = loop {
            let result = self.ensure(index).and_then(|conn| {
                write_line(&mut conn.writer, line)?;
                read_reply(&mut conn.reader)
            });
            match result {
                Ok(reply) => break Ok(reply),
                Err(error) => {
                    self.conns[index] = None;
                    telemetry.reconnects.inc();
                    if attempt >= shared.config.retries {
                        break Err(error);
                    }
                    shared.metrics.retries.inc();
                    std::thread::sleep(busy_backoff(attempt));
                    attempt += 1;
                }
            }
        };
        telemetry.inflight.fetch_sub(1, Ordering::Relaxed);
        if result.is_ok() {
            telemetry.latency.observe(started.elapsed());
        }
        result
    }
}

/// Opens a backend connection with `TCP_NODELAY` set and replies awaited
/// at most `timeout` (the startup probe and every per-client connection).
fn connect_backend(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    Ok(stream)
}

/// Readies an accepted client socket: `TCP_NODELAY` set, and reads that
/// time out every [`CLIENT_POLL`] so an idle handler sees shutdown.
fn prepare_client(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_POLL))
}

/// Sends `line` and its terminator as one write, so the line leaves as
/// one segment (see *Wire discipline* in the module docs).
fn write_line<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    writer.write_all(&[line.as_bytes(), b"\n"].concat())?;
    writer.flush()
}

/// Reads one reply line; EOF is an error (the protocol promises one
/// response per request).
fn read_reply(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "backend closed mid-stream",
        ));
    }
    Ok(line.trim_end().to_string())
}

/// How one query line travels downstream.
enum Route {
    /// Rewrite the right-hand set to each backend's shard alias and merge.
    FanOut {
        /// Re-rendered QoS prefixes (`DEADLINE … PRIO …`).
        prefix: String,
        /// Left token, verbatim.
        left: String,
        /// Right token (the base set being sharded).
        right: String,
        /// ` k algo` tail, verbatim (leading space included when non-empty).
        tail: String,
        /// Merge-time k.
        k: usize,
    },
    /// Forward the whole line to `hash(line) % backends`.
    Whole,
}

/// Classifies one already-stripped query line.  Only two-way lines with a
/// backward-family (or absent, or `auto`) algorithm and no `@<graph>`
/// prefix fan out — everything else must route whole to keep answers
/// bit-exact.
fn classify(line: &str, default_k: usize, fanout_enabled: bool) -> Route {
    if !fanout_enabled {
        return Route::Whole;
    }
    let first = line.split_whitespace().next().unwrap_or("");
    if first.eq_ignore_ascii_case("explain") {
        return Route::Whole;
    }
    let Ok(Some((prefixes, tokens))) = queryline::split_query_line(line, 1) else {
        return Route::Whole;
    };
    if prefixes.graph.is_some() {
        return Route::Whole;
    }
    if tokens.len() < 2 || tokens.len() > 4 || tokens[0].eq_ignore_ascii_case("nway") {
        return Route::Whole;
    }
    let mut k = default_k;
    for token in &tokens[2..] {
        if let Ok(value) = token.parse::<usize>() {
            k = value;
        } else if !is_backward_family(token) {
            return Route::Whole;
        }
    }
    let prefix = LinePrefixes {
        graph: None,
        ..prefixes
    }
    .render();
    let tail = tokens[2..]
        .iter()
        .map(|token| format!(" {token}"))
        .collect::<String>();
    Route::FanOut {
        prefix,
        left: tokens[0].clone(),
        right: tokens[1].clone(),
        tail,
        k,
    }
}

/// Whether `token` names an algorithm whose output the shard merge can
/// reproduce exactly (the backward family shares one deterministic answer
/// order; `auto` only ever picks within it).
fn is_backward_family(token: &str) -> bool {
    matches!(
        token.to_ascii_lowercase().as_str(),
        "b-bj" | "bbj" | "b-idj-x" | "bidjx" | "b-idj-y" | "bidjy" | "auto"
    )
}

/// One parsed `OK TWOWAY` pair: ids plus the raw score bits (kept so the
/// merged line re-emits the exact bit pattern it received).
struct WirePair {
    left: u32,
    right: u32,
    bits: u64,
}

/// Parses `OK TWOWAY n l:r:bits …` into pairs; `None` when the reply is
/// anything else.
fn parse_twoway(reply: &str) -> Option<Vec<WirePair>> {
    let mut fields = reply.split_whitespace();
    if fields.next()? != "OK" || fields.next()? != "TWOWAY" {
        return None;
    }
    let count: usize = fields.next()?.parse().ok()?;
    // The count comes from the backend: reserve no more pairs than the
    // reply has room for (a pair field is at least 6 bytes with its space).
    let mut pairs = Vec::with_capacity(count.min(reply.len() / 6));
    for field in fields {
        let mut parts = field.split(':');
        let left: u32 = parts.next()?.parse().ok()?;
        let right: u32 = parts.next()?.parse().ok()?;
        let bits = u64::from_str_radix(parts.next()?, 16).ok()?;
        if parts.next().is_some() {
            return None;
        }
        pairs.push(WirePair { left, right, bits });
    }
    (pairs.len() == count).then_some(pairs)
}

/// Merges per-shard `OK TWOWAY` replies into the global top-`k` line.
/// Order is (score desc by `total_cmp`, left id asc, right id asc) — the
/// engine's `TopKBuffer` retention order, which is a total order over
/// candidate pairs.  Since each shard reports its local top-`k` under the
/// same order and the shards partition the candidates, sorting the union
/// of the reports and truncating to `k` is exactly the single-server
/// union-run answer, boundary ties included.  Any non-TWOWAY reply (a
/// typed rejection, an EXEC error) propagates verbatim instead.
///
/// Also returns how many pairs the shards contributed before truncation
/// (0 when a reply propagates).
fn merge_twoway(replies: &[String], k: usize) -> (String, usize) {
    let mut pairs: Vec<WirePair> = Vec::new();
    for reply in replies {
        match parse_twoway(reply) {
            Some(shard_pairs) => pairs.extend(shard_pairs),
            None => return (reply.clone(), 0),
        }
    }
    let input_pairs = pairs.len();
    pairs.sort_by(|a, b| {
        f64::from_bits(b.bits)
            .total_cmp(&f64::from_bits(a.bits))
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
    pairs.truncate(k);
    let mut line = format!("OK TWOWAY {}", pairs.len());
    for pair in &pairs {
        line.push_str(&format!(" {}:{}:{:016x}", pair.left, pair.right, pair.bits));
    }
    (line, input_pairs)
}

/// The backends participating in a fan-out of base set `right`: each
/// `(backend index, alias name)` whose inventory holds a shard alias of
/// `right`.  Empty when the fleet has no aliases for this set (the caller
/// falls back to whole routing).
fn fanout_targets(backends: &[BackendInfo], right: &str) -> Vec<(usize, String)> {
    let count = backends.len();
    let mut targets = Vec::new();
    for (index, backend) in backends.iter().enumerate() {
        if let Some(alias) = backend
            .sets
            .iter()
            .find(|name| parse_shard_alias(name, right, count).is_some())
        {
            targets.push((index, alias.clone()));
        }
    }
    targets
}

fn client_loop(stream: TcpStream, shared: Arc<RouterShared>) {
    if prepare_client(&stream).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut backends = ClientBackends::new(&shared);
    let mut fanout_enabled = true;
    let mut buf = Vec::new();
    loop {
        // The read itself is bounded: at most MAX_LINE_BYTES of content
        // plus the terminator, however fast a client streams bytes.
        let budget = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut buf) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            let _ = write_line(&mut writer, "ERR PARSE request line exceeds 64 KiB");
            return;
        }
        let raw = std::mem::take(&mut buf);
        let Ok(text) = std::str::from_utf8(&raw) else {
            return;
        };
        let Some(line) = dht_server::wire::strip_line(text) else {
            continue;
        };
        let response = handle_line(line, &shared, &mut backends, &mut fanout_enabled);
        shared.metrics.served.inc();
        let done = line
            .split_whitespace()
            .next()
            .is_some_and(|verb| verb.eq_ignore_ascii_case("shutdown"));
        if write_line(&mut writer, &response).is_err() {
            return;
        }
        if done {
            return;
        }
    }
}

/// Routes one stripped request line and produces its one response line.
fn handle_line(
    line: &str,
    shared: &RouterShared,
    backends: &mut ClientBackends<'_>,
    fanout_enabled: &mut bool,
) -> String {
    let verb = line.split_whitespace().next().unwrap_or("");
    if verb.eq_ignore_ascii_case("ping") {
        return "OK PONG".to_string();
    }
    if verb.eq_ignore_ascii_case("stats") {
        return format!("OK {}", shared.snapshot().wire_line());
    }
    if verb.eq_ignore_ascii_case("metrics") {
        // The router's own registry (routing counters, per-backend
        // latency/health) — scrape each backend's METRICS directly for
        // engine-level families.  Multi-line, one response unit, ends
        // with the `# EOF` sentinel scrapers read until.
        return format!("OK METRICS\n{}", shared.metrics_text());
    }
    if verb.eq_ignore_ascii_case("shutdown") {
        shared.shutdown.store(true, Ordering::SeqCst);
        return "OK BYE".to_string();
    }
    if verb.eq_ignore_ascii_case("use") {
        // Fan the graph switch to every backend so later whole-routed
        // lines land on the right graph wherever they hash; remember it
        // for replay after reconnects.  Aliases were inventoried against
        // the default graph, so fan-out is off from here on.
        *fanout_enabled = false;
        let mut first = None;
        for index in 0..shared.backends.len() {
            match backends.exchange(index, line) {
                Ok(reply) => {
                    if first.is_none() || reply.starts_with("ERR") {
                        first.get_or_insert(reply.clone());
                        if reply.starts_with("ERR") {
                            return reply;
                        }
                    }
                }
                Err(_) => {
                    shared.record_shard_error(index);
                    return shard_unavailable(&shared.backends[index].name);
                }
            }
        }
        backends.prologue.push(line.to_string());
        return first.unwrap_or_else(|| "ERR EXEC no backends".to_string());
    }
    if verb.eq_ignore_ascii_case("sets") {
        // The first backend's catalogue is representative: every backend
        // hosts the full base sets (plus its own aliases).
        return match backends.exchange(0, line) {
            Ok(reply) => reply,
            Err(_) => {
                shared.record_shard_error(0);
                shard_unavailable(&shared.backends[0].name)
            }
        };
    }
    match classify(line, shared.config.k, *fanout_enabled) {
        Route::FanOut {
            prefix,
            left,
            right,
            tail,
            k,
        } => {
            let targets = fanout_targets(&shared.backends, &right);
            if targets.is_empty() {
                return route_whole(line, shared, backends);
            }
            shared.metrics.fanned_out.inc();
            // Phase 1: pipeline the rewritten sub-requests to every
            // participating backend, so shards compute concurrently.  Each
            // leg's latency runs from its write to its reply.
            let mut sent = vec![false; targets.len()];
            let mut starts = vec![Instant::now(); targets.len()];
            for (slot, (index, alias)) in targets.iter().enumerate() {
                let rewritten = format!("{prefix}{left} {alias}{tail}");
                starts[slot] = Instant::now();
                sent[slot] = backends
                    .ensure(*index)
                    .and_then(|conn| write_line(&mut conn.writer, &rewritten))
                    .is_ok();
                if sent[slot] {
                    shared.metrics.per_backend[*index]
                        .inflight
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            // Phase 2: collect one reply per shard in backend order; a
            // failed write or read falls back to the retrying exchange.
            let mut replies = Vec::with_capacity(targets.len());
            for (slot, (index, alias)) in targets.iter().enumerate() {
                let telemetry = &shared.metrics.per_backend[*index];
                let result = if sent[slot] {
                    let read = backends.conns[*index]
                        .as_mut()
                        .ok_or_else(|| io::Error::other("connection dropped"))
                        .and_then(|conn| read_reply(&mut conn.reader));
                    telemetry.inflight.fetch_sub(1, Ordering::Relaxed);
                    match read {
                        Ok(reply) => {
                            telemetry.latency.observe(starts[slot].elapsed());
                            Ok(reply)
                        }
                        Err(_) => {
                            backends.conns[*index] = None;
                            telemetry.reconnects.inc();
                            let rewritten = format!("{prefix}{left} {alias}{tail}");
                            backends.exchange(*index, &rewritten)
                        }
                    }
                } else {
                    let rewritten = format!("{prefix}{left} {alias}{tail}");
                    backends.exchange(*index, &rewritten)
                };
                match result {
                    Ok(reply) => replies.push(reply),
                    Err(_) => {
                        shared.record_shard_error(*index);
                        return shard_unavailable(&shared.backends[*index].name);
                    }
                }
            }
            let (merged, input_pairs) = merge_twoway(&replies, k);
            // Merge-size telemetry: how many scored pairs the shards
            // contributed before truncation to k.
            shared.metrics.merges.inc();
            shared.metrics.merged_pairs.add(input_pairs as u64);
            merged
        }
        Route::Whole => route_whole(line, shared, backends),
    }
}

/// Forwards `line` verbatim to its hash-chosen backend and relays the
/// reply.
fn route_whole(line: &str, shared: &RouterShared, backends: &mut ClientBackends<'_>) -> String {
    shared.metrics.whole_routed.inc();
    let index = (fnv1a(line.as_bytes()) % shared.backends.len() as u64) as usize;
    match backends.exchange(index, line) {
        Ok(reply) => reply,
        Err(_) => {
            shared.record_shard_error(index);
            shard_unavailable(&shared.backends[index].name)
        }
    }
}

/// The typed backend-failure response ([`dht_server::wire::is_shard`]).
fn shard_unavailable(name: &str) -> String {
    format!("ERR SHARD {name} unavailable; retry later")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::queryline::ParseOptions;
    use dht_engine::Engine;
    use dht_graph::{GraphBuilder, NodeId};
    use dht_server::{Server, ServerConfig};
    use std::io::{BufRead, BufReader, BufWriter, Write};

    fn union_fixture() -> (Engine, Vec<NodeSet>) {
        let mut b = GraphBuilder::with_nodes(12);
        for (u, v, w) in [
            (0u32, 1u32, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.0),
            (3, 4, 0.5),
            (4, 5, 1.5),
            (5, 6, 1.0),
            (6, 7, 2.0),
            (7, 8, 1.0),
            (8, 9, 0.5),
            (9, 10, 1.0),
            (10, 11, 2.0),
            (0, 11, 1.0),
            (3, 9, 1.0),
        ] {
            b.add_undirected_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        let engine = Engine::new(b.build().unwrap());
        let sets = vec![
            NodeSet::new("P", (0..6).map(NodeId)),
            NodeSet::new("Q", (6..12).map(NodeId)),
        ];
        (engine, sets)
    }

    /// `count` backends, each hosting the full union graph + base sets +
    /// its own non-empty shard aliases.
    fn start_fleet(count: usize) -> Vec<Server> {
        let (_, base) = union_fixture();
        let aliases = shard_node_sets(&base, count);
        (0..count)
            .map(|index| {
                let (engine, mut sets) = union_fixture();
                sets.extend(aliases[index].iter().cloned());
                Server::start(
                    engine,
                    sets,
                    ParseOptions::default(),
                    ServerConfig::default(),
                )
                .expect("bind backend")
            })
            .collect()
    }

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
    fn sharding_is_deterministic_and_partitions_members() {
        let (_, sets) = union_fixture();
        for count in [1usize, 2, 3, 5] {
            let shards = shard_node_sets(&sets, count);
            assert_eq!(shards.len(), count);
            for base in &sets {
                let mut seen = Vec::new();
                for (index, shard) in shards.iter().enumerate() {
                    for alias in shard {
                        if parse_shard_alias(alias.name(), base.name(), count).is_some() {
                            assert!(!alias.is_empty(), "empty shards are omitted");
                            for node in alias.iter() {
                                assert_eq!(shard_for_node(node.0, count), index);
                                seen.push(node);
                            }
                        }
                    }
                }
                let all: Vec<_> = base.iter().collect();
                seen.sort_by_key(|node| node.0);
                let mut expected = all.clone();
                expected.sort_by_key(|node| node.0);
                assert_eq!(seen, expected, "aliases partition {}", base.name());
            }
        }
        assert_eq!(shard_set_name("Q", 1, 4), "Q%1of4");
        assert_eq!(parse_shard_alias("Q%1of4", "Q", 4), Some(1));
        assert_eq!(parse_shard_alias("Q%1of4", "Q", 3), None);
        assert_eq!(parse_shard_alias("Q%9of4", "Q", 4), None);
        assert_eq!(parse_shard_alias("Qx1of4", "Q", 4), None);
    }

    #[test]
    fn merge_reproduces_single_server_tie_order() {
        // Two shards, interleaved scores with ties: the merged order must
        // be the TopKBuffer retention order — score desc, then left asc,
        // then right asc — and re-emit the exact bit patterns it received.
        let high = 0.75f64.to_bits();
        let tie = 0.5f64.to_bits();
        let low = 0.25f64.to_bits();
        let a = format!("OK TWOWAY 2 3:8:{high:016x} 5:8:{tie:016x}");
        let b = format!("OK TWOWAY 3 1:7:{tie:016x} 2:9:{low:016x} 4:1:{low:016x}");
        assert_eq!(
            merge_twoway(&[a.clone(), b.clone()], 10),
            (
                format!(
                    "OK TWOWAY 5 3:8:{high:016x} 1:7:{tie:016x} 5:8:{tie:016x} \
                     2:9:{low:016x} 4:1:{low:016x}"
                ),
                5
            ),
            "ties order by left id first: 2:9 before 4:1 despite the larger right id"
        );
        assert_eq!(
            merge_twoway(&[a.clone(), b], 2),
            (format!("OK TWOWAY 2 3:8:{high:016x} 1:7:{tie:016x}"), 5),
            "the pair count is taken before truncation"
        );
        // Typed rejections from any shard propagate verbatim.
        let busy = "ERR BUSY interactive queue full; re-send later".to_string();
        assert_eq!(merge_twoway(&[a, busy.clone()], 10), (busy, 0));
    }

    #[test]
    fn a_pair_count_the_reply_cannot_hold_is_refused_without_reserving_it() {
        assert!(parse_twoway("OK TWOWAY 1000000000000000").is_none());
        assert!(parse_twoway("OK TWOWAY 18446744073709551615 1:2:0").is_none());
        let pair = 0.5f64.to_bits();
        let reply = format!("OK TWOWAY 1 1:2:{pair:016x}");
        assert_eq!(parse_twoway(&reply).map(|pairs| pairs.len()), Some(1));
    }

    /// Every single mutation of valid `OK TWOWAY` replies: each byte XORed
    /// with five masks (`0x80` makes the bytes invalid UTF-8, read lossily
    /// as a wire line is), every cut, every field dropped and every field
    /// duplicated.  A backend's reply is foreign bytes: parsing must never
    /// panic, must accept only as many pairs as the reply declares, and
    /// the merge must either propagate the reply or emit a line that
    /// parses back.
    #[test]
    fn mangled_twoway_replies_never_panic_the_parser_or_the_merge() {
        let bits = |score: f64| format!("{:016x}", score.to_bits());
        let valid = [
            "OK TWOWAY 0".to_string(),
            format!("OK TWOWAY 1 1:2:{}", bits(0.5)),
            format!(
                "OK TWOWAY 3 3:8:{} 5:8:{} 4294967295:0:{}",
                bits(0.75),
                bits(-1.25),
                bits(f64::NAN)
            ),
        ];
        let other = format!("OK TWOWAY 1 9:9:{}", bits(0.25));
        let mut mangled = Vec::new();
        for reply in &valid {
            let bytes = reply.as_bytes();
            for at in 0..bytes.len() {
                for mask in [0x01u8, 0x10, 0x20, 0x40, 0x80] {
                    let mut flipped = bytes.to_vec();
                    flipped[at] ^= mask;
                    mangled.push(String::from_utf8_lossy(&flipped).into_owned());
                }
            }
            mangled.extend((0..bytes.len()).map(|cut| reply[..cut].to_string()));
            let fields: Vec<&str> = reply.split(' ').collect();
            for at in 0..fields.len() {
                let mut dropped = fields.clone();
                dropped.remove(at);
                mangled.push(dropped.join(" "));
                let mut duplicated = fields.clone();
                duplicated.insert(at, fields[at]);
                mangled.push(duplicated.join(" "));
            }
        }
        for reply in &mangled {
            if let Some(pairs) = parse_twoway(reply) {
                let declared = reply.split_whitespace().nth(2).and_then(|n| n.parse().ok());
                assert_eq!(Some(pairs.len()), declared, "{reply:?}");
            }
            for replies in [
                [reply.clone(), other.clone()],
                [other.clone(), reply.clone()],
            ] {
                let (merged, _) = merge_twoway(&replies, 2);
                assert!(
                    merged == *reply || parse_twoway(&merged).is_some(),
                    "{reply:?} merged into {merged:?}"
                );
            }
        }
    }

    #[test]
    fn classification_only_fans_out_backward_family_two_way_lines() {
        let fan = |line: &str| matches!(classify(line, 10, true), Route::FanOut { .. });
        assert!(fan("P Q 3"));
        assert!(fan("P Q 3 b-bj"));
        assert!(fan("P Q auto"));
        assert!(fan("DEADLINE 50 PRIO batch P Q 3 b-idj-y"));
        assert!(!fan("P Q 3 f-bj"), "forward algorithms route whole");
        assert!(!fan("nway chain P Q 3 ap min"));
        assert!(!fan("EXPLAIN P Q 3"));
        assert!(!fan("@other P Q 3"), "namespaced lines route whole");
        assert!(!fan("P"), "malformed lines route whole");
        assert!(!fan("P Q 3 b-bj extra"));
        assert!(!classify("P Q 3", 10, false).is_fan_out());
        match classify("DEADLINE 7 P Q 5 auto", 10, true) {
            Route::FanOut {
                prefix,
                left,
                right,
                tail,
                k,
            } => {
                assert_eq!(prefix, "DEADLINE 7 ");
                assert_eq!(left, "P");
                assert_eq!(right, "Q");
                assert_eq!(tail, " 5 auto");
                assert_eq!(k, 5);
            }
            Route::Whole => panic!("expected fan-out"),
        }
    }

    impl Route {
        fn is_fan_out(&self) -> bool {
            matches!(self, Route::FanOut { .. })
        }
    }

    #[test]
    fn routed_answers_match_the_single_server_union_run() {
        let fleet = start_fleet(2);
        let backend_addrs: Vec<SocketAddr> = fleet.iter().map(Server::local_addr).collect();
        let router = Router::start(&backend_addrs, RouterConfig::default()).expect("start router");
        assert_eq!(router.backends().len(), 2);
        assert!(router.backends()[0].health.starts_with("OK STATS"));

        // The reference: one server over the union graph with the base sets.
        let (engine, sets) = union_fixture();
        let reference = Server::start(
            engine,
            sets,
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .expect("bind reference");
        let lines = [
            "P Q 3",
            "Q P 4 b-bj",
            "P Q 2 b-idj-x",
            "P Q auto",
            "P Q",                     // default k through the merge
            "P Q 3 f-bj",              // forward: routed whole, still exact
            "nway chain P Q 2 ap min", // n-way: routed whole
            "PING",
        ];
        let via_router = roundtrip(router.local_addr(), &lines);
        let direct = roundtrip(reference.local_addr(), &lines);
        assert_eq!(via_router, direct, "the router must be invisible");

        let stats = router.stats();
        assert_eq!(stats.backends, 2);
        assert!(stats.fanned_out >= 4, "{stats:?}");
        assert!(stats.whole_routed >= 2, "{stats:?}");
        assert_eq!(stats.shard_errors, 0, "{stats:?}");
        let wire = roundtrip(router.local_addr(), &["STATS"]);
        assert!(
            wire[0].starts_with("OK STATS router backends=2"),
            "{wire:?}"
        );
        assert!(wire[0].contains(" build="), "{wire:?}");

        reference.shutdown();
        // SHUTDOWN over the wire drains the router; own_backends is off,
        // so the fleet stays up and is shut down by its handles.
        let bye = roundtrip(router.local_addr(), &["SHUTDOWN"]);
        assert_eq!(bye[0], "OK BYE");
        router.join();
        for server in fleet {
            server.shutdown();
        }
    }

    #[test]
    fn metrics_verb_and_backend_health_blocks_are_exposed() {
        let fleet = start_fleet(2);
        let backend_addrs: Vec<SocketAddr> = fleet.iter().map(Server::local_addr).collect();
        let router = Router::start(&backend_addrs, RouterConfig::default()).expect("start router");
        let addr = router.local_addr();
        let answers = roundtrip(addr, &["P Q 3", "P Q 3 f-bj"]);
        assert!(
            answers.iter().all(|a| a.starts_with("OK TWOWAY")),
            "{answers:?}"
        );
        // STATS appends one health block per backend after the counters.
        let stats = roundtrip(addr, &["STATS"]);
        for backend in ["shard-0", "shard-1"] {
            for field in ["probe_age_ms", "reconnects", "inflight"] {
                assert!(
                    stats[0].contains(&format!(" backend.{backend}.{field}=")),
                    "{stats:?}"
                );
            }
        }
        assert!(
            stats[0].contains("backend.shard-0.reconnects=0"),
            "{stats:?}"
        );
        // METRICS renders the router registry, multi-line, through # EOF.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        writeln!(writer, "METRICS\nPING").unwrap();
        writer.flush().unwrap();
        let mut head = String::new();
        reader.read_line(&mut head).unwrap();
        assert_eq!(head.trim_end(), "OK METRICS");
        let mut text = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "EOF before sentinel:\n{text}");
            let done = line.trim_end() == "# EOF";
            text.push_str(&line);
            if done {
                break;
            }
        }
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        assert_eq!(pong.trim_end(), "OK PONG", "scrapes must not eat answers");
        for family in [
            "dht_router_requests_total",
            "dht_router_fanout_total",
            "dht_router_whole_routed_total",
            "dht_router_shard_errors_total",
            "dht_router_merges_total",
            "dht_router_merged_pairs_total",
            "dht_router_backend_latency_seconds",
            "dht_router_backend_reconnects_total",
            "dht_router_backend_inflight",
            "dht_router_build_info",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "{family} missing"
            );
        }
        assert!(text.contains("dht_router_fanout_total 1"), "{text}");
        assert!(text.contains("dht_router_whole_routed_total 1"), "{text}");
        assert!(text.contains("dht_router_shard_errors_total 0"), "{text}");
        assert!(text.contains("dht_router_merges_total 1"), "{text}");
        // The merged-pairs counter is the sum of the shard replies' sizes:
        // ask each backend for its alias directly and count.
        let shard_pairs: usize = fanout_targets(router.backends(), "Q")
            .iter()
            .map(|(index, alias)| {
                let reply = roundtrip(backend_addrs[*index], &[&format!("P {alias} 3")]);
                parse_twoway(&reply[0]).expect("OK TWOWAY").len()
            })
            .sum();
        assert!(
            shard_pairs > 3,
            "more than k pairs entered the merge: {shard_pairs}"
        );
        let merged_pairs = text
            .lines()
            .find_map(|line| line.strip_prefix("dht_router_merged_pairs_total "));
        assert_eq!(
            merged_pairs,
            Some(shard_pairs.to_string().as_str()),
            "{text}"
        );
        // Both fan-out legs answered, so both backends saw traffic.
        assert!(
            text.contains("dht_router_backend_latency_seconds_count{backend=\"shard-0\"}"),
            "{text}"
        );
        let snapshot = router.stats();
        assert_eq!(snapshot.backend_health.len(), 2);
        assert_eq!(snapshot.backend_health[0].name, "shard-0");
        router.shutdown();
        for server in fleet {
            server.shutdown();
        }
    }

    #[test]
    fn dead_backends_answer_typed_shard_errors() {
        let fleet = start_fleet(2);
        let backend_addrs: Vec<SocketAddr> = fleet.iter().map(Server::local_addr).collect();
        let config = RouterConfig::default().with_retries(1).with_timeout_ms(250);
        let router = Router::start(&backend_addrs, config).expect("start router");
        let mut fleet = fleet.into_iter();
        let keep = fleet.next().expect("backend 0");
        // Kill backend 1 mid-stream.
        fleet.next().expect("backend 1").shutdown();
        let responses = roundtrip(router.local_addr(), &["P Q 3", "P Q 3", "PING"]);
        assert!(
            dht_server::wire::is_shard(&responses[0]),
            "a fan-out touching the dead shard must answer ERR SHARD: {responses:?}"
        );
        assert!(
            responses[0].contains("shard-1 unavailable"),
            "{responses:?}"
        );
        assert_eq!(responses[2], "OK PONG", "the router itself stays up");
        assert!(router.stats().shard_errors >= 1);
        // Shutting the router down with own_backends off leaves backend 0
        // for its handle.
        router.shutdown();
        keep.shutdown();
    }

    #[test]
    fn own_backends_shutdown_propagates_to_the_fleet() {
        let fleet = start_fleet(2);
        let backend_addrs: Vec<SocketAddr> = fleet.iter().map(Server::local_addr).collect();
        let router = Router::start(
            &backend_addrs,
            RouterConfig::default().with_own_backends(true),
        )
        .expect("start router");
        let bye = roundtrip(router.local_addr(), &["SHUTDOWN"]);
        assert_eq!(bye[0], "OK BYE");
        router.join();
        for server in fleet {
            assert!(server.is_shutting_down(), "backend was told to shut down");
            server.join();
        }
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_line_leaves_in_one_write() {
        let shared = RouterShared {
            config: RouterConfig::default(),
            backends: Vec::new(),
            shutdown: AtomicBool::new(false),
            metrics: RouterMetrics::new(&[]),
            started: Instant::now(),
        };
        let metrics = handle_line(
            "METRICS",
            &shared,
            &mut ClientBackends::new(&shared),
            &mut true,
        );
        assert!(
            metrics.starts_with("OK METRICS\n") && metrics.ends_with("# EOF"),
            "{metrics}"
        );
        for line in ["OK PONG".to_string(), "a".repeat(MAX_LINE_BYTES), metrics] {
            let mut writer = RecordingWriter::default();
            write_line(&mut writer, &line).expect("write");
            assert_eq!(writer.writes, vec![format!("{line}\n").into_bytes()]);
        }
    }

    #[test]
    fn every_router_socket_has_nodelay_and_a_read_timeout() {
        // The kernel rounds timeouts to its clock tick, so read back "set",
        // not the exact duration.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let timeout = Duration::from_millis(250);
        let backend = connect_backend(listener.local_addr().unwrap(), timeout).expect("connect");
        assert!(backend.nodelay().unwrap());
        assert!(backend.read_timeout().unwrap().is_some());
        let (client, _) = listener.accept().expect("accept");
        prepare_client(&client).expect("prepare");
        assert!(client.nodelay().unwrap());
        assert!(client.read_timeout().unwrap().is_some());
    }

    #[test]
    fn a_client_streaming_without_newlines_is_cut_off_at_the_line_cap() {
        let fleet = start_fleet(1);
        let router =
            Router::start(&[fleet[0].local_addr()], RouterConfig::default()).expect("start router");
        let stream = TcpStream::connect(router.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let chunk = vec![b'a'; 8 * 1024];
        let limit = 64 * 1024 * 1024;
        let mut sent = 0;
        while sent < limit && writer.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        assert!(sent < limit, "the router buffered {sent} bytes of one line");
        // The error line precedes the close, unless the close's reset
        // overtook it.
        let mut response = String::new();
        if BufReader::new(stream).read_line(&mut response).is_ok() && !response.is_empty() {
            assert_eq!(response, "ERR PARSE request line exceeds 64 KiB\n");
        }
        router.shutdown();
        for server in fleet {
            server.shutdown();
        }
    }
}
