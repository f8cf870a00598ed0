//! Setting a workload's system up from its files, asking it questions,
//! and tearing it down.  Three shapes behind one [`Requester`] interface:
//! an in-process `Session`, a TCP client of a `Server`, a TCP client of a
//! `Router` over two `Server`s.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dht_core::queryline::{parse_query_line, ParseOptions};
use dht_core::QuerySpec;
use dht_engine::{Engine, EngineConfig, Session};
use dht_graph::NodeSet;
use dht_obs::Phase;
use dht_router::{shard_node_sets, Router, RouterConfig};
use dht_server::wire::encode_output;
use dht_server::{Server, ServerConfig};

use crate::inputs::{self, InputFiles, Shape, Workload, BACKENDS, CLIENTS, SERVER_WORKERS};

/// How long a client waits for a reply before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The parsed files of one set-up.
pub struct Loaded {
    pub sets: Vec<NodeSet>,
    /// The query stream, one raw line per entry.
    pub lines: Vec<String>,
    /// One parsed spec per *distinct* line (a spec owns copies of its node
    /// sets, so a stream that repeats lines would otherwise hold the same
    /// sets thousands of times) …
    specs: Vec<QuerySpec>,
    /// … and, per stream line, which spec it is.
    spec_of: Vec<usize>,
}

impl Loaded {
    /// The parsed form of stream line `index`.
    pub fn spec(&self, index: usize) -> &QuerySpec {
        &self.specs[self.spec_of[index]]
    }

    /// The distinct specs of the stream, in first-appearance order.
    pub fn distinct_specs(&self) -> &[QuerySpec] {
        &self.specs
    }
}

/// Where set-up time went (all seconds).  Graph load and engine
/// construction are timed on their own by the probes.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub server_start_s: f64,
    pub router_start_s: f64,
    /// Files on disk → first measured query can be sent, warm-up pass
    /// included.
    pub total_s: f64,
}

/// A system that is up: an in-process engine, or the servers (and router)
/// the clients talk to.
#[derive(Default)]
pub struct System {
    engine: Option<Engine>,
    servers: Vec<Server>,
    router: Option<Router>,
}

impl System {
    pub fn engine(&self) -> Option<&Engine> {
        self.engine.as_ref()
    }

    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref()
    }

    /// Stops every thread the set-up started and waits for it.  The
    /// clients must be gone first: a router handler lives as long as its
    /// client's connection.
    pub fn shut_down(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// One finished set-up: the system, its connected clients (wire shapes),
/// the parsed files and the replies of the fixed first pass.
pub struct SetUp {
    pub system: System,
    pub clients: Vec<WireClient>,
    pub loaded: Loaded,
    pub times: SetupTimes,
    pub first_pass: Vec<Result<String, String>>,
}

/// Per-phase times of one traced request, as the program reported them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Receive → response ready as the server saw it (in-process: the
    /// `Session::run` call as the benchmark timed it).
    pub total_ms: f64,
    pub ms: [f64; Phase::COUNT],
    pub count: [u64; Phase::COUNT],
}

impl Phases {
    pub fn ms(&self, phase: Phase) -> f64 {
        self.ms[phase as usize]
    }

    pub fn count(&self, phase: Phase) -> u64 {
        self.count[phase as usize]
    }

    /// Parses a `# trace: total_ms=… <key>_ms=… <key>_n=…` reply comment.
    pub fn from_comment(comment: &str) -> Phases {
        let mut phases = Phases::default();
        for field in comment.split_whitespace() {
            let Some((key, value)) = field.split_once('=') else {
                continue;
            };
            if key == "total_ms" {
                phases.total_ms = value.parse().unwrap_or(0.0);
                continue;
            }
            for phase in Phase::ALL {
                let Some(suffix) = key.strip_prefix(phase.key()) else {
                    continue;
                };
                match suffix {
                    "_ms" => {
                        phases.ms[phase as usize] = value.parse().unwrap_or(0.0);
                        // A phase rendered without `_n` was recorded once.
                        phases.count[phase as usize] = phases.count[phase as usize].max(1);
                    }
                    "_n" => phases.count[phase as usize] = value.parse().unwrap_or(0),
                    _ => {}
                }
            }
        }
        phases
    }
}

/// One answered (or failed) request.
pub struct Answer {
    /// Send → full reply, as the caller saw it.
    pub latency: Duration,
    /// The canonical answer line (`TWOWAY …` / `NWAY …`), or what went wrong.
    pub reply: Result<String, String>,
    /// Present on traced requests.
    pub phases: Option<Phases>,
}

/// One closed-loop caller: asks for stream line `index`, waits for the
/// answer.
pub trait Requester: Send {
    fn ask(&mut self, index: usize) -> Answer;
    fn set_traced(&mut self, traced: bool);
}

/// In-process caller: a warm `Session` over pre-parsed specs.
pub struct SessionRequester<'e> {
    session: Session<'e>,
    loaded: &'e Loaded,
    traced: bool,
}

impl<'e> SessionRequester<'e> {
    pub fn new(engine: &'e Engine, loaded: &'e Loaded) -> Self {
        SessionRequester {
            session: engine.session(),
            loaded,
            traced: false,
        }
    }
}

impl Requester for SessionRequester<'_> {
    fn ask(&mut self, index: usize) -> Answer {
        if self.traced {
            self.session.reset_trace();
        }
        let started = Instant::now();
        let output = self.session.run(self.loaded.spec(index));
        let latency = started.elapsed();
        let phases = self.traced.then(|| {
            let trace = self.session.trace();
            let mut phases = Phases {
                total_ms: latency.as_secs_f64() * 1e3,
                ..Phases::default()
            };
            for phase in Phase::ALL {
                phases.ms[phase as usize] = trace.phase_ms(phase);
                phases.count[phase as usize] = trace.phase_count(phase);
            }
            phases
        });
        Answer {
            latency,
            reply: output
                .map(|out| encode_output(&out))
                .map_err(|e| e.to_string()),
            phases,
        }
    }

    fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
        self.session.set_trace_enabled(traced);
    }
}

/// One client connection speaking the server's line protocol.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(WireClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends one request line (one write, so it leaves as one segment) and
    /// reads its response unit: an optional `# trace:` comment, then the
    /// answer line.
    pub fn exchange(&mut self, line: &str) -> Result<(Option<String>, String), String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("write failed: {e}"))?;
        let first = self.read_line()?;
        if first.starts_with("# trace:") {
            Ok((Some(first), self.read_line()?))
        } else {
            Ok((None, first))
        }
    }

    /// `METRICS`: the exposition text up to its `# EOF` line.
    pub fn scrape(&mut self) -> Result<String, String> {
        self.writer
            .write_all(b"METRICS\n")
            .map_err(|e| format!("write failed: {e}"))?;
        let mut text = String::new();
        loop {
            let line = self.read_line()?;
            if line == "# EOF" {
                return Ok(text);
            }
            text.push_str(&line);
            text.push('\n');
        }
    }
}

/// Wire caller: one connection replaying the stream's raw lines.
pub struct WireRequester<'l> {
    pub client: WireClient,
    lines: &'l [String],
    traced: bool,
}

impl<'l> WireRequester<'l> {
    pub fn new(client: WireClient, lines: &'l [String]) -> Self {
        WireRequester {
            client,
            lines,
            traced: false,
        }
    }
}

impl Requester for WireRequester<'_> {
    fn ask(&mut self, index: usize) -> Answer {
        let line = &self.lines[index];
        let traced_line;
        let request = if self.traced {
            traced_line = format!("TRACE {line}");
            &traced_line
        } else {
            line
        };
        let started = Instant::now();
        let result = self.client.exchange(request);
        let latency = started.elapsed();
        let (comment, reply) = match result {
            Ok((comment, answer)) => match answer.strip_prefix("OK ") {
                Some(canonical) => (comment, Ok(canonical.to_string())),
                None => (comment, Err(answer)),
            },
            Err(error) => (None, Err(error)),
        };
        Answer {
            latency,
            reply,
            phases: comment.as_deref().map(Phases::from_comment),
        }
    }

    fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }
}

fn io_err(what: &str, error: std::io::Error) -> String {
    format!("{what}: {error}")
}

/// Parses the sets and the query stream (the graph is loaded by whoever
/// builds an engine over it).
pub fn load_catalogue(files: &InputFiles) -> Result<Loaded, String> {
    let sets = inputs::load_sets(files)?;
    let lines = inputs::load_lines(files)?;
    let options = ParseOptions::default();
    let mut specs = Vec::new();
    let mut spec_of = Vec::with_capacity(lines.len());
    let mut known: HashMap<&str, usize> = HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(&spec) = known.get(line.as_str()) {
            spec_of.push(spec);
            continue;
        }
        match parse_query_line(line, &sets, &options, i + 1) {
            Ok(Some(parsed)) => specs.push(parsed.spec),
            Ok(None) => return Err(format!("query line {} is empty", i + 1)),
            Err(e) => return Err(e.to_string()),
        }
        known.insert(line, specs.len() - 1);
        spec_of.push(specs.len() - 1);
    }
    Ok(Loaded {
        sets,
        lines,
        specs,
        spec_of,
    })
}

/// Loads the graph and builds an engine over it with the default
/// configuration.
pub fn build_engine(files: &InputFiles) -> Result<Engine, String> {
    let graph = inputs::load_graph(files)?;
    Ok(Engine::with_config(graph, EngineConfig::paper_default()))
}

fn start_server(
    files: &InputFiles,
    sets: Vec<NodeSet>,
    times: &mut SetupTimes,
) -> Result<Server, String> {
    let engine = build_engine(files)?;
    let started = Instant::now();
    let server = Server::start(
        engine,
        sets,
        ParseOptions::default(),
        ServerConfig::default().with_workers(SERVER_WORKERS),
    )
    .map_err(|e| io_err("server start", e))?;
    times.server_start_s += started.elapsed().as_secs_f64();
    Ok(server)
}

fn connect_clients(addr: SocketAddr) -> Result<Vec<WireClient>, String> {
    (0..CLIENTS)
        .map(|_| WireClient::connect(addr).map_err(|e| io_err("client connect", e)))
        .collect()
}

/// Replays the first `count` stream lines, line `i` on caller `i mod n`,
/// callers in parallel; returns the canonical replies in stream order.
fn run_first_pass<R: Requester>(requesters: &mut [R], count: usize) -> Vec<Result<String, String>> {
    let callers = requesters.len();
    let mut replies: Vec<Option<Result<String, String>>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = requesters
            .iter_mut()
            .enumerate()
            .map(|(caller, requester)| {
                scope.spawn(move || {
                    (caller..count)
                        .step_by(callers)
                        .map(|index| (index, requester.ask(index).reply))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (index, reply) in handle.join().expect("first-pass caller panicked") {
                replies[index] = Some(reply);
            }
        }
    });
    replies
        .into_iter()
        .map(|r| r.expect("every first-pass line asked once"))
        .collect()
}

/// One full set-up of `workload` from its files: load, build, start,
/// connect, and answer the fixed first pass.
pub fn set_up(workload: &Workload, files: &InputFiles) -> Result<SetUp, String> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let loaded = load_catalogue(files)?;
    let mut system = System::default();
    let (clients, first_pass) = match workload.shape {
        Shape::InProcess { .. } => {
            let engine = system.engine.insert(build_engine(files)?);
            let mut callers = [SessionRequester::new(engine, &loaded)];
            (
                Vec::new(),
                run_first_pass(&mut callers, workload.first_pass),
            )
        }
        Shape::Served | Shape::Routed => {
            let addr = if workload.shape == Shape::Served {
                let server = start_server(files, loaded.sets.clone(), &mut times)?;
                system.servers.push(server);
                system.servers[0].local_addr()
            } else {
                for shard in shard_node_sets(&loaded.sets, BACKENDS) {
                    let mut sets = loaded.sets.clone();
                    sets.extend(shard);
                    system.servers.push(start_server(files, sets, &mut times)?);
                }
                let addrs: Vec<SocketAddr> =
                    system.servers.iter().map(Server::local_addr).collect();
                let router_started = Instant::now();
                let router = Router::start(&addrs, RouterConfig::default())
                    .map_err(|e| io_err("router start", e))?;
                times.router_start_s = router_started.elapsed().as_secs_f64();
                system.router.insert(router).local_addr()
            };
            let mut callers: Vec<_> = connect_clients(addr)?
                .into_iter()
                .map(|c| WireRequester::new(c, &loaded.lines))
                .collect();
            let replies = run_first_pass(&mut callers, workload.first_pass);
            (callers.into_iter().map(|c| c.client).collect(), replies)
        }
    };
    times.total_s = started.elapsed().as_secs_f64();
    Ok(SetUp {
        system,
        clients,
        loaded,
        times,
        first_pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_comments_parse_into_phases() {
        let p = Phases::from_comment(
            "# trace: total_ms=0.212 parse_ms=0.008 queue_ms=0.090 column_hit_ms=0.000 \
             column_hit_n=12 join_ms=0.068 topk_ms=0.002 serialize_ms=0.007",
        );
        assert_eq!(p.total_ms, 0.212);
        assert_eq!(p.ms(Phase::Parse), 0.008);
        assert_eq!(p.ms(Phase::QueueWait), 0.090);
        assert_eq!(p.count(Phase::ColumnHit), 12);
        assert_eq!(p.ms(Phase::Join), 0.068);
        assert_eq!(p.count(Phase::Join), 1);
        assert_eq!(p.count(Phase::YBuild), 0);
    }
}
