//! `dht serve` — run the TCP query server over one graph or a registry of
//! named graphs.
//!
//! Builds a [`dht_engine::Engine`] (shared cross-session column cache and
//! Y-table store by default), binds `127.0.0.1:<port>` and serves the
//! querystream line protocol until a client sends `SHUTDOWN` (or the
//! process is killed).  The listening address is printed — and flushed —
//! **before** serving starts, so scripts can scrape the ephemeral port:
//!
//! ```text
//! $ dht serve --graph g.tsv --sets s.tsv --port 0 --workers 4 &
//! dht-server listening on 127.0.0.1:40931 (4 workers, queue 128+128, batch 8, ...)
//! ```
//!
//! With repeated `--graph NAME=PATH` / `--sets NAME=PATH` pairs the server
//! hosts a **multi-graph registry** behind the same port: the `--cache`
//! budget is split across the graphs proportionally to their node counts,
//! connections pick a graph with `USE <name>` or the `@<name>` line
//! prefix, and `STATS` reports per-graph blocks.

use std::io::Write as _;

use dht_core::queryline::ParseOptions;
use dht_engine::{Engine, EngineConfig, GraphRegistry};
use dht_graph::NodeSet;
use dht_server::{Server, ServerConfig};

use crate::{setsfile, ArgMap, CliError, Result};

const HELP: &str = "\
dht serve — serve querystream queries over TCP from one warm engine

The line protocol is the querystream query language plus PING / STATS /
METRICS / SETS / USE <graph> / EXPLAIN <query> / SHUTDOWN, with optional
per-line prefixes (DEADLINE <ms>, PRIO <interactive|batch>, @<graph>,
TRACE).  Responses are bit-identical to in-process sessions; scores
travel as exact f64 bit patterns.  METRICS returns the Prometheus-style
text exposition ending `# EOF`; a TRACE prefix prepends one `# trace:`
span-timing comment line to the (unchanged) answer.

OPTIONS:
    --graph <path>          edge-list graph file (required); repeat as
                            --graph NAME=PATH to serve several named
                            graphs behind one port (a graph registry)
    --sets <path>           node-set file (required); with a registry,
                            repeat as --sets NAME=PATH (one per graph)
    --port <n>              TCP port on 127.0.0.1 (0 = ephemeral) [default: 7411]
    --workers <n>           worker sessions                       [default: 2]
    --queue <n>             interactive-class queue capacity;
                            when full, requests get `ERR BUSY`    [default: 128]
    --batch-queue <n>       batch-class (`PRIO batch`) queue
                            capacity, independent of --queue      [default: 128]
    --batch <n>             max requests per worker micro-batch   [default: 8]
    --batch-weight <n>      weighted dequeue: interactive pops
                            per waiting batch pop (≥ 1), so batch
                            work cannot starve under sustained
                            interactive load                      [default: 7]
    --default-deadline-interactive <ms>
                            server-side deadline for interactive
                            lines without a DEADLINE prefix
                            (0 = none)                            [default: 0]
    --default-deadline-batch <ms>
                            same, for `PRIO batch` lines          [default: 0]
    --rate <n>              per-connection rate limit in query
                            lines/s; excess gets `ERR QUOTA` with
                            a retry-after hint (0 = unlimited)    [default: 0]
    --burst <n>             token-bucket burst per connection     [default: 32]
    --k <n>                 default k for queries that omit it    [default: 10]
    --algorithm <name>      default two-way algorithm (fixed
                            name or `auto`)                       [default: B-IDJ-Y]
    --m <n>                 PJ / PJ-i initial 2-way join size     [default: 50]
    --cache <bytes>         column-cache byte budget (0 = off);
                            with a registry this is the GLOBAL
                            budget, split by node count           [default: 67108864]
    --shared <0|1>          1: cross-session cache + Y-table
                            store; 0: private per worker          [default: 1]
    --variant <lambda|e>    DHT variant                           [default: lambda]
    --lambda <x>            DHT_λ decay factor                    [default: 0.2]
    --epsilon <x>           truncation error bound                [default: 1e-6]
    --engine <name>         walk engine: dense | sparse | auto    [default: auto]
    --threads <n>           worker threads per query (0 = all)    [default: 1]
    --slow-ms <n>           slow-query log: queries slower than
                            this many ms print a SLOW line with
                            the span tree, chosen plan and cache
                            residency to stderr, rate-bounded
                            (0 = off)                             [default: 0]
";

const KNOWN: &[&str] = &[
    "graph",
    "sets",
    "port",
    "workers",
    "queue",
    "batch-queue",
    "batch",
    "batch-weight",
    "default-deadline-interactive",
    "default-deadline-batch",
    "rate",
    "burst",
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
    "slow-ms",
];

/// Default serving port (loopback only).
pub const DEFAULT_PORT: u16 = 7411;

/// Parses the shared engine knobs (`--cache`, `--shared`, DHT and walk
/// options) into an [`EngineConfig`].
pub(crate) fn engine_config_from_args(args: &ArgMap) -> Result<EngineConfig> {
    let cache: usize = args.get_parsed_or("cache", dht_engine::DEFAULT_CACHE_BYTES)?;
    let shared = args.get_parsed_or("shared", 1u8)? == 1;
    let (params, depth) = super::dht_options(args)?;
    let (walk_engine, threads) = super::engine_options(args)?;
    Ok(EngineConfig::paper_default()
        .with_params(params, depth)
        .with_engine(walk_engine)
        .with_threads(threads)
        .with_cache_bytes(cache)
        .with_shared_cache(shared))
}

/// Builds the engine and parse options shared by `serve` (and by
/// `loadgen`'s parity verification, which must mirror the server exactly).
pub(crate) fn engine_from_args(args: &ArgMap) -> Result<(Engine, Vec<NodeSet>)> {
    let graph = super::load_graph(args)?;
    let sets = setsfile::read_node_sets_for(args.require("sets")?, &graph)?;
    let config = engine_config_from_args(args)?;
    Ok((Engine::with_config(graph, config), sets))
}

/// Splits a repeated `NAME=PATH` option value.
fn split_named(option: &str, value: &str) -> Result<(String, String)> {
    let Some((name, path)) = value.split_once('=') else {
        return Err(CliError::Usage(format!(
            "multi-graph serving needs '--{option} NAME=PATH' (got '{value}')"
        )));
    };
    if name.is_empty() || path.is_empty() {
        return Err(CliError::Usage(format!(
            "'--{option} {value}': both NAME and PATH must be non-empty"
        )));
    }
    Ok((name.to_string(), path.to_string()))
}

/// Builds the graph registry + per-graph set catalogues from the argument
/// map, accepting both the single-graph form (`--graph PATH --sets PATH`,
/// registered as graph `default`) and the registry form (repeated
/// `--graph NAME=PATH` / `--sets NAME=PATH`).
pub(crate) fn registry_from_args(args: &ArgMap) -> Result<(GraphRegistry, Vec<Vec<NodeSet>>)> {
    let graph_values = args.get_all("graph");
    if graph_values.is_empty() {
        return Err(CliError::Usage(
            "missing required option '--graph'".to_string(),
        ));
    }
    let named = graph_values.len() > 1 || graph_values[0].contains('=');
    if !named {
        let (engine, sets) = engine_from_args(args)?;
        let registry = GraphRegistry::from_engines(vec![("default".to_string(), engine)]);
        return Ok((registry, vec![sets]));
    }
    let config = engine_config_from_args(args)?;
    let mut graphs = Vec::with_capacity(graph_values.len());
    for value in &graph_values {
        let (name, path) = split_named("graph", value)?;
        let graph = dht_graph::io::read_graph_file_auto(&path).map_err(CliError::from)?;
        graphs.push((name, graph));
    }
    let mut sets_by_name = Vec::new();
    for value in &args.get_all("sets") {
        let (name, path) = split_named("sets", value)?;
        sets_by_name.push((name, setsfile::read_node_sets_file(&path)?));
    }
    let sets = graphs
        .iter()
        .map(|(name, graph)| {
            let (_, sets) = sets_by_name
                .iter()
                .find(|(set_name, _)| set_name == name)
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "graph '{name}' has no matching '--sets {name}=PATH'"
                    ))
                })?;
            for set in sets {
                graph.check_node_set(set)?;
            }
            Ok(sets.clone())
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((GraphRegistry::with_shared_budget(graphs, config), sets))
}

/// Parses the stream defaults (`--k`, `--algorithm`, `--m`) into the shared
/// parser's options.
pub(crate) fn parse_options_from_args(args: &ArgMap) -> Result<ParseOptions> {
    Ok(ParseOptions {
        default_k: args.get_parsed_or("k", 10)?,
        default_two_way: super::parse_two_way_choice(args.get("algorithm").unwrap_or("b-idj-y"))?,
        m: args.get_parsed_or("m", 50)?,
    })
}

/// Runs the command (blocks until a client sends `SHUTDOWN`).
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(KNOWN)?;
    let (registry, sets) = registry_from_args(args)?;
    let parse = parse_options_from_args(args)?;
    let config = ServerConfig::default()
        .with_port(args.get_parsed_or("port", DEFAULT_PORT)?)
        .with_workers(args.get_parsed_or("workers", 2)?)
        .with_queue_capacity(args.get_parsed_or("queue", 128)?)
        .with_batch_queue_capacity(args.get_parsed_or("batch-queue", 128)?)
        .with_batch(args.get_parsed_or("batch", 8)?)
        .with_batch_weight(args.get_parsed_or("batch-weight", dht_server::DEFAULT_BATCH_WEIGHT)?)
        .with_default_deadline_interactive(args.get_parsed_or("default-deadline-interactive", 0)?)
        .with_default_deadline_batch(args.get_parsed_or("default-deadline-batch", 0)?)
        .with_rate(args.get_parsed_or("rate", 0)?)
        .with_burst(args.get_parsed_or("burst", 32)?)
        .with_slow_ms(args.get_parsed_or("slow-ms", 0)?);
    let graphs = registry.len();
    let server = Server::start_registry(registry, sets, parse, config).map_err(CliError::Io)?;
    // Scripts scrape this line for the (possibly ephemeral) port, so it
    // must hit stdout before the blocking join.
    println!(
        "dht-server listening on {} ({} workers, queue {}+{}, batch {}, rate {}/s burst {}, \
         {} graph(s))",
        server.local_addr(),
        config.workers,
        config.queue_capacity,
        config.batch_queue_capacity,
        config.batch,
        config.rate,
        config.burst,
        graphs
    );
    std::io::stdout().flush().ok();
    let stats = server.join();
    Ok(format!(
        "dht-server shut down cleanly: {} served ({} interactive, {} batch), \
         {} rejected, {} quota, {} expired, {} dropped, \
         p50 {:.4} ms, p99 {:.4} ms (interactive p99 {:.4} ms), column hit rate {:.1}%\n",
        stats.served,
        stats.interactive_served,
        stats.batch_served,
        stats.rejected,
        stats.quota_rejected,
        stats.expired,
        stats.dropped,
        stats.p50_ms,
        stats.p99_ms,
        stats.interactive_p99_ms,
        100.0 * stats.column_hit_rate()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::{GraphBuilder, NodeId};

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn help_documents_the_protocol_knobs() {
        let out = run(&argmap(&["--help"])).unwrap();
        assert!(out.contains("--port"));
        assert!(out.contains("--workers"));
        assert!(out.contains("--queue"));
        assert!(out.contains("--batch-queue"));
        assert!(out.contains("--batch-weight"));
        assert!(out.contains("--default-deadline-interactive"));
        assert!(out.contains("--rate"));
        assert!(out.contains("--burst"));
        assert!(out.contains("ERR BUSY"));
        assert!(out.contains("ERR QUOTA"));
        assert!(out.contains("DEADLINE"));
        assert!(out.contains("SHUTDOWN"));
        assert!(out.contains("NAME=PATH"));
        assert!(out.contains("USE <graph>"));
        assert!(out.contains("METRICS"));
        assert!(out.contains("TRACE"));
        assert!(out.contains("--slow-ms"));
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = run(&argmap(&["--graph", "g", "--sets", "s", "--prot", "9"])).unwrap_err();
        assert!(err.to_string().contains("--prot"), "{err}");
    }

    #[test]
    fn parse_options_mirror_querystream_defaults() {
        let options = parse_options_from_args(&argmap(&[])).unwrap();
        assert_eq!(options.default_k, 10);
        assert_eq!(options.m, 50);
        let options =
            parse_options_from_args(&argmap(&["--k", "3", "--algorithm", "auto", "--m", "7"]))
                .unwrap();
        assert_eq!(options.default_k, 3);
        assert_eq!(options.m, 7);
        assert!(matches!(
            options.default_two_way,
            dht_core::spec::AlgorithmChoice::Auto
        ));
    }

    #[test]
    fn registry_form_loads_named_graphs_and_splits_the_budget() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let mut paths = Vec::new();
        for (tag, nodes) in [("a", 6usize), ("b", 12)] {
            let mut b = GraphBuilder::with_nodes(nodes);
            for u in 0..nodes as u32 - 1 {
                b.add_undirected_edge(NodeId(u), NodeId(u + 1), 1.0)
                    .unwrap();
            }
            let graph_path = dir.join(format!("dht-serve-reg-{tag}-{pid}.tsv"));
            let sets_path = dir.join(format!("dht-serve-reg-{tag}-{pid}.sets"));
            dht_graph::io::write_edge_list_file(&b.build().unwrap(), &graph_path).unwrap();
            crate::setsfile::write_node_sets_file(
                &[
                    dht_graph::NodeSet::new("P", (0..2).map(NodeId)),
                    dht_graph::NodeSet::new("Q", (2..4).map(NodeId)),
                ],
                &sets_path,
            )
            .unwrap();
            paths.push((graph_path, sets_path));
        }
        let budget = 1usize << 20;
        let (registry, sets) = registry_from_args(&argmap(&[
            "--graph",
            &format!("small={}", paths[0].0.display()),
            "--graph",
            &format!("large={}", paths[1].0.display()),
            "--sets",
            &format!("large={}", paths[1].1.display()),
            "--sets",
            &format!("small={}", paths[0].1.display()),
            "--cache",
            &budget.to_string(),
        ]))
        .unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.index_of("small"), Some(0));
        assert_eq!(registry.index_of("large"), Some(1));
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0][0].name(), "P");
        let shares: Vec<usize> = registry
            .iter()
            .map(|(_, engine)| engine.config().cache_bytes)
            .collect();
        assert_eq!(shares.iter().sum::<usize>(), budget);
        assert!(shares[1] > shares[0], "larger graph, larger quota");
        // A graph without matching sets is an error, as is a bare path mixed
        // into the registry form.
        let err = registry_from_args(&argmap(&[
            "--graph",
            &format!("solo={}", paths[0].0.display()),
            "--sets",
            &format!("other={}", paths[0].1.display()),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("solo"), "{err}");
        let err = registry_from_args(&argmap(&[
            "--graph",
            &format!("a={}", paths[0].0.display()),
            "--graph",
            paths[1].0.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("NAME=PATH"), "{err}");
        for (graph_path, sets_path) in paths {
            std::fs::remove_file(graph_path).ok();
            std::fs::remove_file(sets_path).ok();
        }
    }
}
