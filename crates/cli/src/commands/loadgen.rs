//! `dht loadgen` — drive a running `dht serve` instance with M concurrent
//! connections replaying a query file, and report throughput + latency
//! percentiles.
//!
//! With `--graph`/`--sets` the command also computes every expected answer
//! **in-process** (same engine defaults as the server) and verifies each
//! wire response bit-for-bit — the loopback parity check the CI smoke job
//! runs.

use std::time::Duration;

use dht_core::queryline;
use dht_server::loadgen::{self, LoadGenConfig, LoadMode};
use dht_server::metrics::percentile;
use dht_server::wire;

use crate::{ArgMap, CliError, Result};

const HELP: &str = "\
dht loadgen — replay a query file against a running dht serve instance

Every connection keeps a window of requests in flight; the mode sets it.
closed (default): window 1, each request waits for its answer.  open: the
whole stream (file × --repeat) pipelined at once, exercising the server's
ERR BUSY backpressure.  soak: --window requests in flight for
--duration-ms, cycling the file, built for --connections in the
thousands (needs --graph/--sets).  Refused queries are re-sent
(--retry-busy 1) and must answer identically.  Every mode reports
latency percentiles over all answers.

OPTIONS:
    --host <addr>           server host                          [default: 127.0.0.1]
    --port <n>              server port (required)
    --queries <path>        query file to replay (required);
                            same format as `dht querystream`
    --connections <n>       concurrent connections               [default: 2]
    --repeat <n>            closed/open: passes over the file
                            per connection                       [default: 1]
    --mode <closed|open|soak>  loop discipline                   [default: closed]
    --duration-ms <n>       soak only: wall-clock of new sends   [default: 2000]
    --window <n>            soak only: max in-flight per
                            connection                           [default: 4]
    --retry-busy <0|1>      re-send ERR BUSY / ERR QUOTA
                            rejections (capped exponential
                            backoff, honouring quota hints)      [default: 1]
    --hostile <n>           fault injection: run n hostile
                            connections alongside (flood,
                            never-read, disconnect-mid-flight,
                            drip-feed — round-robin); parity
                            applies to well-behaved ones only    [default: 0]
    --shutdown <0|1>        send SHUTDOWN when done              [default: 0]
    --via-router <0|1>      the target is a `dht route` front
                            door: label the report accordingly
                            and tolerate typed ERR SHARD
                            responses in the parity check
                            (counted, not failed)                [default: 0]
    --graph <path>          with --sets: verify every response
    --sets <path>           bit-for-bit against in-process
                            answers (engine options must match
                            the server's)
    --k <n>                 parity check: default k              [default: 10]
    --algorithm <name>      parity check: default algorithm      [default: B-IDJ-Y]
    --m <n>                 parity check: PJ / PJ-i m            [default: 50]
    --cache <bytes>         parity check: cache budget           [default: 67108864]
    --shared <0|1>          parity check: shared caches          [default: 1]
    --variant <lambda|e>    parity check: DHT variant            [default: lambda]
    --lambda <x>            parity check: DHT_λ decay            [default: 0.2]
    --epsilon <x>           parity check: truncation bound       [default: 1e-6]
    --engine <name>         parity check: walk engine            [default: auto]
    --threads <n>           parity check: threads per query      [default: 1]
";

const KNOWN: &[&str] = &[
    "host",
    "port",
    "queries",
    "connections",
    "repeat",
    "mode",
    "duration-ms",
    "window",
    "retry-busy",
    "hostile",
    "shutdown",
    "via-router",
    "graph",
    "sets",
    "k",
    "algorithm",
    "m",
    "cache",
    "shared",
    "variant",
    "lambda",
    "epsilon",
    "engine",
    "threads",
];

/// Computes the expected wire response of every stream line in-process,
/// mirroring the server's engine configuration.
fn expected_responses(args: &ArgMap, lines: &[String]) -> Result<Vec<String>> {
    let (engine, sets) = super::serve::engine_from_args(args)?;
    let options = super::serve::parse_options_from_args(args)?;
    let mut session = engine.session();
    let mut expected = Vec::new();
    for (index, raw) in lines.iter().enumerate() {
        let Some(parsed) = queryline::parse_query_line(raw, &sets, &options, index + 1)
            .map_err(|error| CliError::Parse(error.to_string()))?
        else {
            continue;
        };
        let output = session
            .run(&parsed.spec)
            .map_err(|error| CliError::Parse(format!("query {}: {error}", index + 1)))?;
        expected.push(format!("OK {}", wire::encode_output(&output)));
    }
    Ok(expected)
}

/// The `--mode` flag, with `--window` / `--duration-ms` for a soak.
fn mode_from_args(args: &ArgMap) -> Result<LoadMode> {
    let name = args.get("mode").unwrap_or("closed");
    if !name.eq_ignore_ascii_case("soak") {
        if let Some(flag) = ["window", "duration-ms"]
            .into_iter()
            .find(|f| args.get(f).is_some())
        {
            return Err(CliError::Usage(format!(
                "--{flag} applies only to --mode soak"
            )));
        }
        return LoadMode::parse(name).ok_or_else(|| {
            CliError::Parse(format!("unknown --mode '{name}' (closed, open or soak)"))
        });
    }
    if args.get("graph").is_none() || args.get("sets").is_none() {
        return Err(CliError::Usage(
            "--mode soak is a parity soak, so --graph and --sets are required".to_string(),
        ));
    }
    Ok(LoadMode::Soak {
        window: args.get_parsed_or("window", 4usize)?.max(1),
        duration: Duration::from_millis(args.get_parsed_or("duration-ms", 2000u64)?.max(1)),
    })
}

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(KNOWN)?;
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_parsed_or("port", 0)?;
    if port == 0 {
        return Err(CliError::Usage(
            "missing required option '--port' (the serve instance's port)".to_string(),
        ));
    }
    // Resolve via ToSocketAddrs so `--host localhost` (or any DNS name)
    // works, not just literal IPs.
    let addr = std::net::ToSocketAddrs::to_socket_addrs(&(host, port))
        .map_err(|e| CliError::Parse(format!("cannot resolve --host '{host}': {e}")))?
        .next()
        .ok_or_else(|| CliError::Parse(format!("--host '{host}' resolved to no addresses")))?;
    let queries_path = args.require("queries")?;
    let text = std::fs::read_to_string(queries_path).map_err(CliError::Io)?;
    let lines: Vec<String> = text.lines().map(str::to_string).collect();

    let config = LoadGenConfig {
        connections: args.get_parsed_or("connections", 2usize)?.max(1),
        repeat: args.get_parsed_or("repeat", 1usize)?.max(1),
        mode: mode_from_args(args)?,
        retry_busy: args.get_parsed_or("retry-busy", 1u8)? == 1,
        hostile: args.get_parsed_or("hostile", 0usize)?,
    };
    let via_router = args.get_parsed_or("via-router", 0u8)? == 1;
    let report = loadgen::run(addr, &lines, &config).map_err(CliError::Io)?;

    let mut out = String::new();
    let shape = match config.mode {
        LoadMode::Soak { window, duration } => format!(
            "soaking {:.1} s (window {window}, soak mode)",
            duration.as_secs_f64()
        ),
        mode => format!(
            "× {} requests ({} mode)",
            report.requests_per_connection,
            mode.name()
        ),
    };
    out.push_str(&format!(
        "loadgen: {} connections {shape} against {addr}{}\n",
        report.connections,
        if via_router { " via router" } else { "" }
    ));
    out.push_str(&format!(
        "total {:.4} s, throughput {:.1} requests/s, {} busy rejection(s), \
         {} quota rejection(s), {} deadline miss(es)\n",
        report.elapsed.as_secs_f64(),
        report.throughput(),
        report.busy_rejections,
        report.quota_rejections,
        report.deadline_misses
    ));
    if config.hostile > 0 {
        let hostile = &report.hostile;
        out.push_str(&format!(
            "hostile: {} connection(s) sent {} line(s), read {} response(s): \
             {} quota, {} busy, {} deadline; {} disconnect(s)\n",
            hostile.connections,
            hostile.sent,
            hostile.answered,
            hostile.quota_rejections,
            hostile.busy_rejections,
            hostile.deadline_misses,
            hostile.disconnects
        ));
    }
    let mut sorted = report.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    out.push_str(&format!(
        "latency (ms per request, {} samples)\n",
        sorted.len()
    ));
    for (label, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        out.push_str(&format!("  {label}  {:>10.4}\n", percentile(&sorted, p)));
    }
    out.push_str(&format!(
        "  max  {:>10.4}\n",
        sorted.last().copied().unwrap_or(0.0)
    ));

    // Optional loopback parity verification against in-process answers.
    if args.get("graph").is_some() || args.get("sets").is_some() {
        let expected = expected_responses(args, &lines)?;
        let mut compared = 0usize;
        let mut shard_errors = 0usize;
        for (connection, finals) in report.responses.iter().enumerate() {
            for (index, response) in finals.iter().enumerate() {
                // A router fleet with a dead backend answers typed
                // `ERR SHARD` lines; those are expected operational
                // outcomes, not parity violations.
                if via_router && wire::is_shard(response) {
                    shard_errors += 1;
                    continue;
                }
                let want = &expected[index % expected.len()];
                if response != want {
                    return Err(CliError::Parse(format!(
                        "PARITY FAILURE: connection {connection} request {index}: \
                         server answered '{response}' but in-process answer is '{want}'"
                    )));
                }
                compared += 1;
            }
        }
        out.push_str(&format!(
            "parity: ok ({compared} responses bit-identical to in-process answers)\n"
        ));
        if via_router {
            out.push_str(&format!(
                "router: {shard_errors} ERR SHARD response(s) tolerated\n"
            ));
        }
    }

    if args.get_parsed_or("shutdown", 0u8)? == 1 {
        let ack = loadgen::send_shutdown(addr).map_err(CliError::Io)?;
        out.push_str(&format!("shutdown acknowledged: {ack}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::queryline::ParseOptions;
    use dht_engine::Engine;
    use dht_graph::{GraphBuilder, NodeId, NodeSet};
    use dht_server::{Server, ServerConfig};

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// Writes the graph + sets + queries fixture and starts a server over
    /// the same graph, returning the paths and the server handle.
    fn fixture(
        tag: &str,
        config: ServerConfig,
    ) -> (
        std::path::PathBuf,
        std::path::PathBuf,
        std::path::PathBuf,
        Server,
    ) {
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
        let graph = b.build().unwrap();
        let sets = vec![
            NodeSet::new("P", (0..5).map(NodeId)),
            NodeSet::new("Q", (5..10).map(NodeId)),
        ];
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let graph_path = dir.join(format!("dht-lg-{tag}-{pid}.tsv"));
        let sets_path = dir.join(format!("dht-lg-{tag}-{pid}.sets"));
        let queries_path = dir.join(format!("dht-lg-{tag}-{pid}.queries"));
        dht_graph::io::write_edge_list_file(&graph, &graph_path).unwrap();
        crate::setsfile::write_node_sets_file(&sets, &sets_path).unwrap();
        std::fs::write(
            &queries_path,
            "P Q 3\nQ P 2 b-bj\nP Q 3 # repeat\nnway chain P Q 2 ap min\n",
        )
        .unwrap();
        let server =
            Server::start(Engine::new(graph), sets, ParseOptions::default(), config).unwrap();
        (graph_path, sets_path, queries_path, server)
    }

    #[test]
    fn help_documents_modes_and_parity() {
        let out = run(&argmap(&["--help"])).unwrap();
        assert!(out.contains("--mode"));
        assert!(out.contains("--retry-busy"));
        assert!(out.contains("bit-for-bit"));
    }

    #[test]
    fn missing_port_is_a_usage_error() {
        let err = run(&argmap(&["--queries", "q.txt"])).unwrap_err();
        assert!(err.to_string().contains("--port"), "{err}");
    }

    #[test]
    fn replays_verify_parity_and_shut_the_server_down() {
        let (graph, sets, queries, server) = fixture("parity", ServerConfig::default());
        let port = server.local_addr().port().to_string();
        let out = run(&argmap(&[
            "--port",
            &port,
            "--queries",
            queries.to_str().unwrap(),
            "--connections",
            "2",
            "--repeat",
            "2",
            "--graph",
            graph.to_str().unwrap(),
            "--sets",
            sets.to_str().unwrap(),
            "--shutdown",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("2 connections × 8 requests"), "got: {out}");
        assert!(out.contains("parity: ok (16 responses"), "got: {out}");
        assert!(out.contains("p99"), "got: {out}");
        assert!(out.contains("shutdown acknowledged: OK BYE"), "got: {out}");
        let stats = server.join();
        assert_eq!(stats.served, 16);
        for path in [&graph, &sets, &queries] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn via_router_replays_keep_parity_through_the_front_door() {
        let (graph, sets, queries, server) = fixture("via-router", ServerConfig::default());
        let backend = server.local_addr();
        let router =
            dht_router::Router::start(&[backend], dht_router::RouterConfig::default()).unwrap();
        let port = router.local_addr().port().to_string();
        let out = run(&argmap(&[
            "--port",
            &port,
            "--queries",
            queries.to_str().unwrap(),
            "--connections",
            "2",
            "--graph",
            graph.to_str().unwrap(),
            "--sets",
            sets.to_str().unwrap(),
            "--via-router",
            "1",
            "--shutdown",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("via router"), "got: {out}");
        assert!(out.contains("parity: ok (8 responses"), "got: {out}");
        assert!(out.contains("router: 0 ERR SHARD"), "got: {out}");
        assert!(out.contains("shutdown acknowledged: OK BYE"), "got: {out}");
        router.join();
        loadgen::send_shutdown(backend).unwrap();
        server.join();
        for path in [&graph, &sets, &queries] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn soak_mode_sustains_parity_and_reports_percentiles() {
        let (graph, sets, queries, server) = fixture("soak", ServerConfig::default());
        let port = server.local_addr().port().to_string();
        let out = run(&argmap(&[
            "--port",
            &port,
            "--queries",
            queries.to_str().unwrap(),
            "--mode",
            "soak",
            "--connections",
            "16",
            "--duration-ms",
            "300",
            "--window",
            "2",
            "--graph",
            graph.to_str().unwrap(),
            "--sets",
            sets.to_str().unwrap(),
            "--shutdown",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("16 connections soaking"), "got: {out}");
        assert!(out.contains("parity: ok ("), "got: {out}");
        assert!(out.contains("0 quota rejection(s)"), "got: {out}");
        assert!(out.contains("0 deadline miss(es)"), "got: {out}");
        assert!(out.contains("p99"), "got: {out}");
        assert!(out.contains("shutdown acknowledged: OK BYE"), "got: {out}");
        let stats = server.join();
        assert!(stats.served > 0);
        for path in [&graph, &sets, &queries] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn soak_mode_without_parity_inputs_is_a_usage_error() {
        let err = run(&argmap(&[
            "--port",
            "1",
            "--queries",
            "/dev/null",
            "--mode",
            "soak",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--graph"), "{err}");
    }

    #[test]
    fn soak_flags_without_soak_mode_are_usage_errors() {
        for (flag, mode) in [("--window", "closed"), ("--duration-ms", "open")] {
            let err = run(&argmap(&[
                "--port",
                "1",
                "--queries",
                "/dev/null",
                "--mode",
                mode,
                flag,
                "8",
            ]))
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert!(err.to_string().contains("only to --mode soak"), "{err}");
        }
        let err = run(&argmap(&[
            "--port",
            "1",
            "--queries",
            "/dev/null",
            "--window",
            "2",
        ]));
        assert!(
            matches!(err, Err(CliError::Usage(_))),
            "the default mode is closed"
        );
    }

    #[test]
    fn hostile_mix_keeps_parity_for_well_behaved_connections() {
        let (graph, sets, queries, server) = fixture(
            "hostile",
            ServerConfig::default()
                .with_rate(100)
                .with_burst(24)
                .with_batch_queue_capacity(16),
        );
        let port = server.local_addr().port().to_string();
        let out = run(&argmap(&[
            "--port",
            &port,
            "--queries",
            queries.to_str().unwrap(),
            "--connections",
            "1",
            "--hostile",
            "4",
            "--graph",
            graph.to_str().unwrap(),
            "--sets",
            sets.to_str().unwrap(),
            "--shutdown",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("parity: ok (4 responses"), "got: {out}");
        assert!(out.contains("0 quota rejection(s)"), "got: {out}");
        assert!(out.contains("hostile: 4 connection(s)"), "got: {out}");
        let stats = server.join();
        assert!(stats.quota_rejected > 0, "the flood must be throttled");
        for path in [&graph, &sets, &queries] {
            std::fs::remove_file(path).ok();
        }
    }
}
