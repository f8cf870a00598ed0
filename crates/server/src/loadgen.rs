//! The load-generator client: M concurrent connections replaying a query
//! stream against a running [`crate::Server`], measuring throughput and
//! per-request latency — plus an optional **hostile-client fault-injection
//! mode** for proving overload isolation.
//!
//! Every well-behaved connection runs the same loop; a [`LoadMode`] only
//! sets how many requests it keeps in flight (its *window*) and when it
//! stops sending new ones:
//!
//! * **closed** — window 1 over `lines × repeat` positions: each request
//!   waits for its response before the next is sent;
//! * **open** — the whole `lines × repeat` stream is the window: it is
//!   pipelined at once, the probe that exercises the server's `ERR BUSY`
//!   backpressure;
//! * **soak** — `window` requests in flight until `duration` has passed,
//!   cycling the stream; built for *thousands* of connections (small client
//!   thread stacks, a raised descriptor limit).
//!
//! Responses arrive in request order, so the in-flight queue maps each one
//! to the stream position it answers.  With retries on, an `ERR BUSY` or
//! `ERR QUOTA` reply puts its position on a retry list, and no new position
//! is sent while that list is non-empty.  Once nothing is in flight the
//! connection sleeps a deterministic capped-exponential [`busy_backoff`]
//! (at least the largest quota retry-after hint) and re-sends the list
//! first.  Re-running a query is always bit-identical, so retries never
//! change results, only timing.  Every final response lands in
//! [`LoadReport::responses`] at its position and its latency in
//! [`LoadReport::latencies_ms`] — what parity checks and percentiles read.
//!
//! ## Hostile clients
//!
//! With [`LoadGenConfig::hostile`] `> 0`, that many **hostile**
//! connections run alongside the well-behaved ones, cycling through four
//! deterministic misbehaviour profiles (by connection index modulo 4):
//!
//! 1. **flood** — pipelines `PRIO batch` chunks as fast as responses come
//!    back, for as long as the well-behaved connections are running;
//! 2. **never-read** — pipelines a burst and never reads a single
//!    response, then disconnects with the responses unread;
//! 3. **disconnect** — bursts and slams the connection shut mid-flight,
//!    reconnecting in a loop;
//! 4. **drip** — feeds a request byte… by… byte, far slower than the
//!    server's read timeout.
//!
//! Hostile traffic is all batch-class, so a server running the two-level
//! queue keeps interactive requests isolated; the aggregated
//! [`HostileReport`] shows how hard the server throttled them.  No RNG
//! anywhere: profiles, chunk sizes and iteration floors are fixed, so a
//! given configuration misbehaves identically on every run.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::wire;

/// Loop discipline of a load-generation run: a window and a stop rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Window 1 over `lines × repeat` positions: one outstanding request
    /// per connection.
    Closed,
    /// The whole `lines × repeat` stream as the window; exercises
    /// backpressure.
    Open,
    /// `window` requests in flight until `duration` has passed, cycling
    /// the stream (`repeat` is ignored).
    Soak {
        /// Maximum in-flight requests per connection (at least 1).
        window: usize,
        /// Wall-clock time during which new positions are sent.
        duration: Duration,
    },
}

impl LoadMode {
    /// Parses `closed` / `open`, case-insensitively (a soak is built from
    /// its window and duration, not parsed).
    pub fn parse(name: &str) -> Option<LoadMode> {
        match name.to_ascii_lowercase().as_str() {
            "closed" => Some(LoadMode::Closed),
            "open" => Some(LoadMode::Open),
            _ => None,
        }
    }

    /// The mode's canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open => "open",
            LoadMode::Soak { .. } => "soak",
        }
    }

    /// In-flight requests a connection keeps when its run has `total`
    /// (`lines × repeat`) positions.
    fn window(&self, total: usize) -> usize {
        match *self {
            LoadMode::Closed => 1,
            LoadMode::Open => total,
            LoadMode::Soak { window, .. } => window.max(1),
        }
    }
}

/// Knobs of a load-generation run.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Concurrent well-behaved connections (≥ 1), each replaying the full
    /// stream.
    pub connections: usize,
    /// Passes over the stream per connection (≥ 1; closed and open only).
    pub repeat: usize,
    /// Loop discipline.
    pub mode: LoadMode,
    /// Whether `ERR BUSY` / `ERR QUOTA` rejections are re-sent until
    /// answered.
    pub retry_busy: bool,
    /// Hostile connections to run alongside the well-behaved ones
    /// (fault injection; `0` disables).
    pub hostile: usize,
}

impl Default for LoadGenConfig {
    /// One connection, one pass, closed-loop, busy retries on, no hostile
    /// clients.
    fn default() -> Self {
        LoadGenConfig {
            connections: 1,
            repeat: 1,
            mode: LoadMode::Closed,
            retry_busy: true,
            hostile: 0,
        }
    }
}

/// Consecutive retry rounds a connection may spend without sending a new
/// position before the run fails with `TimedOut` (guards against a server
/// that never frees capacity).
const MAX_RETRY_ROUNDS: u32 = 512;

/// Deterministic capped-exponential backoff before retry `attempt`
/// (0-based): 200 µs doubling per attempt, capped at 50 ms — so a retry
/// storm against a saturated server decays geometrically instead of
/// hammering at a fixed (or growing-only-linearly) pace.  No RNG: every
/// run backs off identically.
pub fn busy_backoff(attempt: u32) -> Duration {
    Duration::from_micros((200u64 << attempt.min(8)).min(50_000))
}

/// What the hostile connections of a run did and received, aggregated.
#[derive(Debug, Default, Clone)]
pub struct HostileReport {
    /// Hostile connections driven.
    pub connections: usize,
    /// Request lines written by hostile connections.
    pub sent: u64,
    /// Response lines hostile connections actually read back.
    pub answered: u64,
    /// `ERR BUSY` lines among them.
    pub busy_rejections: u64,
    /// `ERR QUOTA` lines among them — the throttling evidence.
    pub quota_rejections: u64,
    /// `ERR DEADLINE` lines among them.
    pub deadline_misses: u64,
    /// Deliberate mid-flight disconnects performed.
    pub disconnects: u64,
}

impl HostileReport {
    fn absorb(&mut self, other: &HostileReport) {
        self.connections += other.connections;
        self.sent += other.sent;
        self.answered += other.answered;
        self.busy_rejections += other.busy_rejections;
        self.quota_rejections += other.quota_rejections;
        self.deadline_misses += other.deadline_misses;
        self.disconnects += other.disconnects;
    }

    fn count_response(&mut self, response: &str) {
        self.answered += 1;
        if wire::is_quota(response) {
            self.quota_rejections += 1;
        } else if wire::is_busy(response) {
            self.busy_rejections += 1;
        } else if wire::is_deadline(response) {
            self.deadline_misses += 1;
        }
    }
}

/// What a load-generation run measured.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Well-behaved connections driven.
    pub connections: usize,
    /// Requests per well-behaved connection: `unique lines × repeat`, or
    /// for a soak the most any connection completed.
    pub requests_per_connection: usize,
    /// Final responses collected over all well-behaved connections.
    pub answered: usize,
    /// `ERR BUSY` rejections observed by well-behaved connections (each
    /// was re-sent when retries are on).
    pub busy_rejections: u64,
    /// `ERR QUOTA` rejections observed by well-behaved connections (each
    /// was re-sent, honouring the hint, when retries are on).
    pub quota_rejections: u64,
    /// `ERR DEADLINE` final responses observed by well-behaved
    /// connections (deadlines are not retried: the budget is spent).
    pub deadline_misses: u64,
    /// Wall-clock of the whole run (all connections).
    pub elapsed: Duration,
    /// Latency in ms of every final response, from the send of the
    /// attempt it answers (unsorted).
    pub latencies_ms: Vec<f64>,
    /// Final response line per `[connection][stream position]` — what
    /// parity checks compare.
    pub responses: Vec<Vec<String>>,
    /// Aggregated hostile-connection activity (all zeros when
    /// [`LoadGenConfig::hostile`] is 0).
    pub hostile: HostileReport,
}

impl LoadReport {
    /// Requests answered per second.
    pub fn throughput(&self) -> f64 {
        self.answered as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-stream",
        ));
    }
    Ok(line.trim_end().to_string())
}

/// One well-behaved connection's outcome.
#[derive(Debug, Default)]
struct ConnectionOutcome {
    finals: Vec<String>,
    latencies: Vec<f64>,
    busy: u64,
    quota: u64,
    deadline_misses: u64,
}

/// One well-behaved connection's replay: keeps `config.mode`'s window
/// full until its stop rule — `lines × repeat` positions sent, or, for a
/// soak, `deadline` passed — then drains, re-sending refused positions.
fn drive_connection(
    addr: SocketAddr,
    stream_lines: &[String],
    config: &LoadGenConfig,
    deadline: Option<Instant>,
) -> std::io::Result<ConnectionOutcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let total = stream_lines.len() * config.repeat.max(1);
    let window = config.mode.window(total);
    let line_at = |position: usize| &stream_lines[position % stream_lines.len()];
    let more = |position: usize| deadline.map_or(position < total, |end| Instant::now() < end);
    let mut finals: Vec<Option<String>> = Vec::new();
    // In-flight requests, oldest first: (stream position, send time).
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut refused: Vec<usize> = Vec::new();
    // Retry rounds since a new position was last sent, and the largest
    // quota hint seen since the last round.
    let (mut rounds, mut hint_ms) = (0u32, 0u64);
    let mut outcome = ConnectionOutcome::default();
    loop {
        while refused.is_empty() && inflight.len() < window && more(finals.len()) {
            writeln!(writer, "{}", line_at(finals.len()))?;
            inflight.push_back((finals.len(), Instant::now()));
            finals.push(None);
            rounds = 0;
        }
        writer.flush()?;
        let Some((position, sent)) = inflight.pop_front() else {
            if refused.is_empty() {
                break;
            }
            if rounds == MAX_RETRY_ROUNDS {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "{} request(s) still refused after {MAX_RETRY_ROUNDS} retry rounds",
                        refused.len()
                    ),
                ));
            }
            // Capped exponential: against a tiny queue, competing
            // connections otherwise spin faster than workers can drain.
            std::thread::sleep(busy_backoff(rounds).max(Duration::from_millis(hint_ms)));
            (rounds, hint_ms) = (rounds + 1, 0);
            for position in refused.drain(..) {
                writeln!(writer, "{}", line_at(position))?;
                inflight.push_back((position, Instant::now()));
            }
            continue;
        };
        let response = read_response(&mut reader)?;
        if config.retry_busy && wire::is_busy(&response) {
            outcome.busy += 1;
            refused.push(position);
        } else if config.retry_busy && wire::is_quota(&response) {
            outcome.quota += 1;
            // The hint is exact (one token's refill time).
            hint_ms = hint_ms.max(wire::retry_after_ms(&response).unwrap_or(1));
            refused.push(position);
        } else {
            if wire::is_deadline(&response) {
                outcome.deadline_misses += 1;
            }
            outcome.latencies.push(sent.elapsed().as_secs_f64() * 1e3);
            finals[position] = Some(response);
        }
    }
    outcome.finals = finals
        .into_iter()
        .map(|slot| slot.expect("every sent position answered"))
        .collect();
    Ok(outcome)
}

/// The four deterministic misbehaviour profiles, assigned round-robin by
/// hostile connection index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostileProfile {
    Flood,
    NeverRead,
    Disconnect,
    Drip,
}

impl HostileProfile {
    fn for_index(index: usize) -> HostileProfile {
        match index % 4 {
            0 => HostileProfile::Flood,
            1 => HostileProfile::NeverRead,
            2 => HostileProfile::Disconnect,
            _ => HostileProfile::Drip,
        }
    }
}

/// Prefixes a query line into the batch class, unless it already carries
/// an explicit `PRIO` (a duplicate prefix would be a parse error).
fn batchify(line: &str) -> String {
    let lowered = line.to_ascii_lowercase();
    if lowered.starts_with("prio ") || lowered.contains(" prio ") {
        line.to_string()
    } else {
        format!("PRIO batch {line}")
    }
}

/// Lines a flood sends per pipelined chunk.
const FLOOD_CHUNK: u64 = 64;
/// Chunks a flood always completes, `stop` or not — enough volume that a
/// rate-limited server deterministically refuses some of it.
const FLOOD_MIN_CHUNKS: u64 = 4;

/// One hostile connection's run.  I/O errors end the run silently — being
/// cut off is an expected outcome for a misbehaving client.
fn drive_hostile(
    addr: SocketAddr,
    profile: HostileProfile,
    lines: &[String],
    stop: &AtomicBool,
) -> HostileReport {
    let mut report = HostileReport {
        connections: 1,
        ..HostileReport::default()
    };
    let line_at = |index: u64| batchify(&lines[(index % lines.len() as u64) as usize]);
    match profile {
        HostileProfile::Flood => {
            let Ok(stream) = TcpStream::connect(addr) else {
                return report;
            };
            stream.set_nodelay(true).ok();
            let Ok(write_half) = stream.try_clone() else {
                return report;
            };
            let mut writer = BufWriter::new(write_half);
            let mut reader = BufReader::new(stream);
            let mut chunks = 0u64;
            while chunks < FLOOD_MIN_CHUNKS || !stop.load(Ordering::Relaxed) {
                for index in 0..FLOOD_CHUNK {
                    if writeln!(writer, "{}", line_at(chunks * FLOOD_CHUNK + index)).is_err() {
                        return report;
                    }
                }
                if writer.flush().is_err() {
                    return report;
                }
                report.sent += FLOOD_CHUNK;
                for _ in 0..FLOOD_CHUNK {
                    match read_response(&mut reader) {
                        Ok(response) => report.count_response(&response),
                        Err(_) => return report,
                    }
                }
                chunks += 1;
            }
        }
        HostileProfile::NeverRead => {
            let Ok(stream) = TcpStream::connect(addr) else {
                return report;
            };
            stream.set_nodelay(true).ok();
            let mut writer = BufWriter::new(stream);
            // Pipeline a solid burst and then *never read*: the responses
            // rot in socket buffers until the close below discards them
            // (an RST on the server's write path, or a write stall if the
            // buffers fill first) — the server must drop, not block.
            for index in 0..256u64 {
                if writeln!(writer, "{}", line_at(index)).is_err() {
                    return report;
                }
                report.sent += 1;
            }
            if writer.flush().is_err() {
                return report;
            }
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
            }
            report.disconnects += 1; // the close discards every response
        }
        HostileProfile::Disconnect => {
            let mut bursts = 0u64;
            while bursts < 2 || !stop.load(Ordering::Relaxed) {
                bursts += 1;
                let Ok(stream) = TcpStream::connect(addr) else {
                    return report;
                };
                stream.set_nodelay(true).ok();
                let mut writer = BufWriter::new(stream);
                for index in 0..32u64 {
                    if writeln!(writer, "{}", line_at(bursts * 32 + index)).is_err() {
                        break;
                    }
                    report.sent += 1;
                }
                let _ = writer.flush();
                // Dropping both halves here closes the socket with every
                // response unread — a mid-flight disconnect.
                drop(writer);
                report.disconnects += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        HostileProfile::Drip => {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return report;
            };
            stream.set_nodelay(true).ok();
            let Ok(read_half) = stream.try_clone() else {
                return report;
            };
            let mut reader = BufReader::new(read_half);
            let mut drips = 0u64;
            while drips < 2 || !stop.load(Ordering::Relaxed) {
                drips += 1;
                let line = format!("{}\n", line_at(drips));
                // One byte at a time, slower than the server's poll
                // interval: exercises partial-line buffering across read
                // timeouts without tripping the oversized-line cap.
                for byte in line.as_bytes() {
                    if stream.write_all(std::slice::from_ref(byte)).is_err() {
                        return report;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                report.sent += 1;
                match read_response(&mut reader) {
                    Ok(response) => report.count_response(&response),
                    Err(_) => return report,
                }
            }
        }
    }
    report
}

/// Client threads are cheap stacks, not defaults: a soak drives thousands
/// of connections, and the 8 MiB default stack would reserve gigabytes.
const CLIENT_STACK_BYTES: usize = 256 * 1024;

/// Replays `lines` (raw query-language lines; comments and blanks are
/// stripped here, matching the file parser) against the server at `addr`
/// on `config.connections` concurrent well-behaved connections, plus
/// `config.hostile` hostile ones.  Hostile connections start first, run
/// for as long as the well-behaved ones (with per-profile iteration
/// floors, so they misbehave deterministically even against a fast
/// server), and are stopped and joined before the report is assembled.
///
/// # Errors
/// Fails on well-behaved connection errors, a server that closes one
/// mid-stream, an empty stream, or a connection whose refused requests
/// are still refused after 512 retry rounds.  Hostile connection errors
/// are *not* failures — being cut off is an expected outcome for a
/// misbehaving client.
pub fn run(
    addr: SocketAddr,
    lines: &[String],
    config: &LoadGenConfig,
) -> std::io::Result<LoadReport> {
    let stream_lines: Vec<String> = lines
        .iter()
        .filter_map(|raw| crate::wire::strip_line(raw).map(str::to_string))
        .collect();
    if stream_lines.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "query stream contains no queries",
        ));
    }
    let connections = config.connections.max(1);
    // A client connection holds two descriptors (its stream and the write
    // clone), so thousands overrun the common 1024 soft limit; lift it
    // best-effort, with headroom for stdio and an in-process server.
    let _ = dht_poll::raise_nofile_limit(2 * (connections + config.hostile) as u64 + 256);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let deadline = match config.mode {
        LoadMode::Soak { duration, .. } => Some(started + duration),
        LoadMode::Closed | LoadMode::Open => None,
    };
    let (outcomes, hostile_reports): (Vec<std::io::Result<ConnectionOutcome>>, Vec<HostileReport>) =
        std::thread::scope(|scope| {
            let hostile_handles: Vec<_> = (0..config.hostile)
                .map(|index| {
                    let stream_lines = &stream_lines;
                    let stop = &stop;
                    std::thread::Builder::new()
                        .stack_size(CLIENT_STACK_BYTES)
                        .spawn_scoped(scope, move || {
                            drive_hostile(
                                addr,
                                HostileProfile::for_index(index),
                                stream_lines,
                                stop,
                            )
                        })
                        .expect("spawn hostile connection")
                })
                .collect();
            let handles: Vec<_> = (0..connections)
                .map(|_| {
                    let stream_lines = &stream_lines;
                    std::thread::Builder::new()
                        .stack_size(CLIENT_STACK_BYTES)
                        .spawn_scoped(scope, move || {
                            drive_connection(addr, stream_lines, config, deadline)
                        })
                        .expect("spawn loadgen connection")
                })
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|handle| handle.join().expect("loadgen connection panicked"))
                .collect();
            stop.store(true, Ordering::Relaxed);
            let hostile_reports = hostile_handles
                .into_iter()
                .map(|handle| handle.join().expect("hostile connection panicked"))
                .collect();
            (outcomes, hostile_reports)
        });
    let elapsed = started.elapsed();
    let mut hostile = HostileReport::default();
    for report in &hostile_reports {
        hostile.absorb(report);
    }
    let mut report = LoadReport {
        connections,
        elapsed,
        hostile,
        ..LoadReport::default()
    };
    for outcome in outcomes {
        let outcome = outcome?;
        report.requests_per_connection = report.requests_per_connection.max(outcome.finals.len());
        report.answered += outcome.finals.len();
        report.responses.push(outcome.finals);
        report.latencies_ms.extend(outcome.latencies);
        report.busy_rejections += outcome.busy;
        report.quota_rejections += outcome.quota;
        report.deadline_misses += outcome.deadline_misses;
    }
    Ok(report)
}

/// Sends the `SHUTDOWN` verb on a fresh connection and returns the
/// server's acknowledgement (normally `OK BYE`).
///
/// # Errors
/// Fails when the server is unreachable or closes before acknowledging.
pub fn send_shutdown(addr: SocketAddr) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    writeln!(writer, "SHUTDOWN")?;
    writer.flush()?;
    read_response(&mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};
    use dht_core::queryline::{self, ParseOptions};
    use dht_engine::Engine;
    use dht_graph::{GraphBuilder, NodeId, NodeSet};

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

    fn stream() -> Vec<String> {
        [
            "# repeated-target stream",
            "P Q 3",
            "Q P 2 b-bj",
            "",
            "P Q 3   # cache hit",
            "nway chain P Q 2 ap min",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Expected final responses for one pass of the stream, computed
    /// in-process.
    fn expected_responses(lines: &[String]) -> Vec<String> {
        let (engine, sets) = fixture();
        let options = ParseOptions::default();
        let mut session = engine.session();
        lines
            .iter()
            .filter_map(|raw| crate::wire::strip_line(raw))
            .enumerate()
            .map(|(index, line)| {
                let parsed = queryline::parse_query_line(line, &sets, &options, index + 1)
                    .unwrap()
                    .unwrap();
                let output = session.run(&parsed.spec).unwrap();
                format!("OK {}", crate::wire::encode_output(&output))
            })
            .collect()
    }

    #[test]
    fn closed_loop_measures_latency_and_matches_in_process_answers() {
        let (engine, sets) = fixture();
        let server = Server::start(
            engine,
            sets,
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .unwrap();
        let report = run(
            server.local_addr(),
            &stream(),
            &LoadGenConfig {
                connections: 3,
                repeat: 2,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.connections, 3);
        assert_eq!(report.requests_per_connection, 8);
        assert_eq!(report.answered, 24);
        assert_eq!(report.latencies_ms.len(), 24, "closed loop measures each");
        assert!(report.throughput() > 0.0);
        assert_eq!(report.hostile.connections, 0, "no hostile clients asked");
        let expected = expected_responses(&stream());
        for (connection, finals) in report.responses.iter().enumerate() {
            for (index, response) in finals.iter().enumerate() {
                assert_eq!(
                    response,
                    &expected[index % expected.len()],
                    "connection {connection} request {index}"
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn open_loop_retries_busy_rejections_to_the_same_answers() {
        let (engine, sets) = fixture();
        // A deliberately starved server: 1 worker, queue of 1.
        let server = Server::start(
            engine,
            sets,
            ParseOptions::default(),
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_batch(1),
        )
        .unwrap();
        let report = run(
            server.local_addr(),
            &stream(),
            &LoadGenConfig {
                connections: 2,
                repeat: 3,
                mode: LoadMode::Open,
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.answered, 2 * 4 * 3);
        assert_eq!(report.latencies_ms.len(), report.answered);
        let expected = expected_responses(&stream());
        for finals in &report.responses {
            for (index, response) in finals.iter().enumerate() {
                assert_eq!(response, &expected[index % expected.len()]);
            }
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.rejected, report.busy_rejections,
            "client and server agree on the rejection count"
        );
        server_drained(&stats);
    }

    fn server_drained(stats: &crate::StatsSnapshot) {
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn backoff_schedule_is_deterministic_exponential_and_capped() {
        assert_eq!(busy_backoff(0), Duration::from_micros(200));
        assert_eq!(busy_backoff(1), Duration::from_micros(400));
        assert_eq!(busy_backoff(2), busy_backoff(1) * 2, "doubles per attempt");
        assert_eq!(busy_backoff(8), Duration::from_micros(50_000), "cap");
        assert_eq!(
            busy_backoff(8),
            busy_backoff(31),
            "cap holds for any attempt"
        );
        assert_eq!(busy_backoff(u32::MAX), Duration::from_micros(50_000));
    }

    #[test]
    fn batchify_adds_the_prefix_exactly_once() {
        assert_eq!(batchify("P Q 3"), "PRIO batch P Q 3");
        assert_eq!(batchify("PRIO batch P Q 3"), "PRIO batch P Q 3");
        assert_eq!(
            batchify("DEADLINE 5 PRIO interactive P Q"),
            "DEADLINE 5 PRIO interactive P Q",
            "an explicit class is never overridden"
        );
        assert_eq!(batchify("DEADLINE 5 P Q"), "PRIO batch DEADLINE 5 P Q");
    }

    #[test]
    fn hostile_mix_throttles_hostiles_and_leaves_well_behaved_answers_intact() {
        let (engine, sets) = fixture();
        let server = Server::start(
            engine,
            sets,
            ParseOptions::default(),
            ServerConfig::default()
                .with_workers(2)
                .with_rate(100)
                .with_burst(24)
                .with_batch_queue_capacity(16),
        )
        .unwrap();
        let report = run(
            server.local_addr(),
            &stream(),
            &LoadGenConfig {
                connections: 2,
                repeat: 2,
                hostile: 4, // one of each profile
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        // Well-behaved connections (8 requests each, burst 24) never hit
        // the rate limit and keep bit-exact answers.
        assert_eq!(report.quota_rejections, 0, "{report:?}");
        assert_eq!(report.deadline_misses, 0, "{report:?}");
        assert_eq!(report.answered, 16);
        let expected = expected_responses(&stream());
        for finals in &report.responses {
            for (index, response) in finals.iter().enumerate() {
                assert_eq!(response, &expected[index % expected.len()]);
            }
        }
        // The flood (4+ chunks of 64 against burst 24) was throttled.
        assert_eq!(report.hostile.connections, 4);
        assert!(report.hostile.sent >= 4 * 64 + 256 + 2 * 32 + 2);
        assert!(
            report.hostile.quota_rejections > 0,
            "flood must trip the rate limit: {:?}",
            report.hostile
        );
        assert!(report.hostile.disconnects >= 3, "{:?}", report.hostile);
        // The server must survive all of it and drain cleanly.
        let stats = server.shutdown();
        assert!(stats.quota_rejected >= report.hostile.quota_rejections);
        server_drained(&stats);
    }

    #[test]
    fn soak_sustains_parity_clean_windowed_traffic() {
        let (engine, sets) = fixture();
        let server = Server::start(
            engine,
            sets,
            ParseOptions::default(),
            ServerConfig::default().with_workers(2),
        )
        .unwrap();
        let lines = stream();
        let report = run(
            server.local_addr(),
            &lines,
            &LoadGenConfig {
                connections: 32,
                mode: LoadMode::Soak {
                    window: 2,
                    duration: Duration::from_millis(300),
                },
                ..LoadGenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.connections, 32);
        assert!(report.answered > 0, "{report:?}");
        assert_eq!(report.deadline_misses, 0, "{report:?}");
        assert_eq!(report.latencies_ms.len(), report.answered);
        assert!(report.throughput() > 0.0);
        let expected = expected_responses(&lines);
        for finals in &report.responses {
            assert!(!finals.is_empty() && finals.len() <= report.requests_per_connection);
            for (position, response) in finals.iter().enumerate() {
                assert_eq!(response, &expected[position % expected.len()]);
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.connections, 0);
        server_drained(&stats);
    }

    #[test]
    fn soak_refuses_empty_streams() {
        let err = run(
            "127.0.0.1:1".parse().unwrap(),
            &["# nothing".to_string()],
            &LoadGenConfig {
                mode: LoadMode::Soak {
                    window: 4,
                    duration: Duration::from_secs(2),
                },
                ..LoadGenConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// Runs `mode` on one connection against a stub server that answers
    /// only once the client has gone quiet for 20 ms, and returns the most
    /// lines the stub ever held unanswered, with the run's report.
    fn most_unanswered(mode: LoadMode) -> (usize, LoadReport) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let (mut held, mut most, mut line) = (0usize, 0usize, String::new());
            loop {
                match reader.read_line(&mut line) {
                    Ok(0) => return most,
                    Ok(_) => {
                        line.clear();
                        held += 1;
                        most = most.max(held);
                    }
                    Err(_) => {
                        stream.write_all(&b"OK STUB\n".repeat(held)).unwrap();
                        held = 0;
                    }
                }
            }
        });
        let config = LoadGenConfig {
            repeat: 2,
            mode,
            ..LoadGenConfig::default()
        };
        let report = run(addr, &stream(), &config).unwrap();
        (stub.join().unwrap(), report)
    }

    #[test]
    fn a_mode_keeps_exactly_its_window_in_flight() {
        let (closed, report) = most_unanswered(LoadMode::Closed);
        assert_eq!(closed, 1, "closed sends after each answer");
        assert_eq!(report.answered, 8);
        assert_eq!(report.latencies_ms.len(), 8);
        let (open, _) = most_unanswered(LoadMode::Open);
        assert_eq!(open, 8, "open pipelines the whole stream");
        let soak = LoadMode::Soak {
            window: 3,
            duration: Duration::from_millis(150),
        };
        let (soaked, report) = most_unanswered(soak);
        assert_eq!(soaked, 3, "a soak keeps its window full");
        assert!(report.answered >= 3, "{report:?}");
        assert!(report.responses[0].iter().all(|line| line == "OK STUB"));
    }

    #[test]
    fn shutdown_helper_stops_the_server() {
        let (engine, sets) = fixture();
        let server = Server::start(
            engine,
            sets,
            ParseOptions::default(),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        assert_eq!(send_shutdown(addr).unwrap(), "OK BYE");
        server.join();
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn empty_streams_and_mode_names_are_rejected_and_parsed() {
        let err = run(
            "127.0.0.1:1".parse().unwrap(),
            &["# nothing".to_string()],
            &LoadGenConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(LoadMode::parse("OPEN"), Some(LoadMode::Open));
        assert_eq!(LoadMode::parse("closed"), Some(LoadMode::Closed));
        assert_eq!(LoadMode::parse("burst"), None);
        assert_eq!(LoadMode::Open.name(), "open");
        assert_eq!(LoadMode::parse("soak"), None, "a soak needs its window");
    }
}
