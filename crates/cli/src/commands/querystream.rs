//! `dht querystream` — answer a file of join queries (two-way and n-way) on
//! one engine, optionally over several concurrent sessions, and report
//! per-query latency percentiles.
//!
//! This is the service-shaped entry point: where `dht two-way` pays full
//! price for its single query, `querystream` builds one [`dht_engine::Engine`]
//! over the graph and streams every query through warm sessions.  Query
//! lines parse into declarative [`dht_core::QuerySpec`]s: the algorithm field may be
//! any fixed name **or `auto`**, in which case the engine's planner picks
//! per query from the session's live cache residency.  `--explain 1`
//! prints the reified plan of every query of the first pass (chosen
//! algorithm, cache residency).
//!
//! With `--sessions N` the stream is answered by `N` concurrent sessions
//! (query `i` goes to session `i % N`), all reading and filling the
//! engine's cross-session `SharedColumnCache`, so clients warm each other;
//! with `--shared 0` each session holds a cache of the same type and byte
//! budget that no other session holds.  Answers are bit-identical in every configuration — the
//! planner only moves latency.

use std::time::Instant;

use dht_core::queryline::{self, ParseOptions, ParsedQuery};
use dht_core::spec::AlgorithmChoice;
use dht_core::twoway::TwoWayAlgorithm;
use dht_engine::{Engine, EngineConfig};
use dht_graph::NodeSet;
use dht_walks::Phase;
// The latency-percentile convention is shared with the server's `STATS`
// report and `dht loadgen`, so all three surfaces agree by construction.
use dht_server::metrics::percentile;

use crate::{setsfile, ArgMap, CliError, Result};

const HELP: &str = "\
dht querystream — answer a stream of join queries on warm engine sessions

OPTIONS:
    --graph <path>          edge-list graph file (required)
    --sets <path>           node-set file (required)
    --queries <path>        query file (required), one query per line:
                              LEFT RIGHT [k] [ALGORITHM]          (two-way)
                              nway SHAPE S1 S2 ... [k] [ALGO] [AGG]  (n-way)
                            SHAPE: chain | cycle | triangle | star;
                            two-way ALGORITHM: f-bj | f-idj | b-bj |
                              b-idj-x | b-idj-y | auto;
                            n-way ALGO: nl | ap | pj | pj-i | auto;
                            AGG: min | max | sum | mean; `#` starts a comment
    --k <n>                 default k for queries that omit it   [default: 10]
    --algorithm <name>      default two-way algorithm (a fixed
                            name or `auto`)                      [default: B-IDJ-Y]
    --m <n>                 PJ / PJ-i initial 2-way join size    [default: 50]
    --explain <0|1>         1: print each first-pass query's plan
                            (chosen algorithm, cache
                            residency)                           [default: 0]
    --trace <0|1>           1: record per-query span timings
                            (parse/plan/column/Y/join/top-k) and
                            report the per-phase totals; answers
                            are bit-identical either way         [default: 0]
    --sessions <n>          concurrent sessions answering the
                            stream (round-robin)                 [default: 1]
    --cache <bytes>         column-cache byte budget
                            (0 disables caching)                 [default: 67108864]
    --shared <0|1>          1: one cross-session cache shared by
                            all sessions; 0: private caches      [default: 1]
    --repeat <n>            answer the whole stream n times      [default: 1]
    --variant <lambda|e>    DHT variant                          [default: lambda]
    --lambda <x>            DHT_λ decay factor                   [default: 0.2]
    --epsilon <x>           truncation error bound               [default: 1e-6]
    --engine <name>         walk engine: dense | sparse | auto   [default: auto]
    --threads <n>           worker threads per query (0 = all)   [default: 1]
";

const KNOWN: &[&str] = &[
    "graph",
    "sets",
    "queries",
    "k",
    "algorithm",
    "m",
    "explain",
    "trace",
    "sessions",
    "cache",
    "shared",
    "repeat",
    "variant",
    "lambda",
    "epsilon",
    "engine",
    "threads",
];

/// Parses the query file through the shared `dht_core::queryline` parser
/// (one query per line, `#` comments, eager validation with line-numbered
/// errors) — the **same** parser `dht-server` runs on its wire protocol,
/// so CLI files and served streams can never drift apart.
fn parse_queries(
    text: &str,
    sets: &[NodeSet],
    default_k: usize,
    default_algorithm: AlgorithmChoice<TwoWayAlgorithm>,
    m: usize,
) -> Result<Vec<ParsedQuery>> {
    let options = ParseOptions {
        default_k,
        default_two_way: default_algorithm,
        m,
    };
    let queries = queryline::parse_query_file(text, sets, &options)
        .map_err(|error| CliError::Parse(error.to_string()))?;
    if queries.is_empty() {
        return Err(CliError::Parse("query file contains no queries".into()));
    }
    Ok(queries)
}

/// What one session worker measured: per-query latencies (with global query
/// indices), answer counts and its session-local cache counters.
struct WorkerReport {
    latencies_ms: Vec<f64>,
    answers_returned: usize,
    cache: dht_walks::CacheStats,
    y_tables: (u64, u64),
    /// First error (by global query index), if any.
    error: Option<(usize, String)>,
    /// Line numbers of queries that returned no answers.
    empty_lines: Vec<usize>,
    /// `--explain 1`: `(query index, line number, plan line)` of every
    /// first-pass query this worker answered.
    plans: Vec<(usize, usize, String)>,
    /// `--trace 1`: accumulated `(ms, count)` per [`Phase`], in
    /// [`Phase::ALL`] order, across every query this worker answered.
    spans: Vec<(f64, u64)>,
}

/// Answers the indices of `stream` owned by `worker` (round-robin over
/// `sessions`) on one fresh session, `repeat` passes.
fn run_worker(
    engine: &Engine,
    stream: &[ParsedQuery],
    worker: usize,
    sessions: usize,
    repeat: usize,
    explain: bool,
    trace: bool,
) -> WorkerReport {
    let mut session = engine.session();
    session.set_trace_enabled(trace);
    let mut report = WorkerReport {
        latencies_ms: Vec::new(),
        answers_returned: 0,
        cache: dht_walks::CacheStats::default(),
        y_tables: (0, 0),
        error: None,
        empty_lines: Vec::new(),
        plans: Vec::new(),
        spans: vec![(0.0, 0); Phase::COUNT],
    };
    for pass in 0..repeat {
        for (index, item) in stream
            .iter()
            .enumerate()
            .filter(|(index, _)| index % sessions == worker)
        {
            let start = Instant::now();
            let output = if explain && pass == 0 {
                session.run_with_plan(&item.spec).map(|(plan, output)| {
                    report.plans.push((index, item.line_no, plan.to_string()));
                    output
                })
            } else {
                session.run(&item.spec)
            };
            report
                .latencies_ms
                .push(start.elapsed().as_secs_f64() * 1e3);
            match output {
                Ok(output) => {
                    if output.answer_count() == 0 {
                        report.empty_lines.push(item.line_no);
                    }
                    report.answers_returned += output.answer_count();
                }
                Err(err) => {
                    if report
                        .error
                        .as_ref()
                        .is_none_or(|(first, _)| index < *first)
                    {
                        report.error = Some((index, format!("line {}: {err}", item.line_no)));
                    }
                }
            }
        }
    }
    if trace {
        for (slot, phase) in Phase::ALL.into_iter().enumerate() {
            report.spans[slot] = (
                session.trace().phase_ms(phase),
                session.trace().phase_count(phase),
            );
        }
    }
    report.cache = session.cache_stats();
    report.y_tables = session.y_table_stats();
    report
}

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(KNOWN)?;
    let graph = super::load_graph(args)?;
    let sets = setsfile::read_node_sets_for(args.require("sets")?, &graph)?;
    let queries_path = args.require("queries")?;
    let queries_text = std::fs::read_to_string(queries_path).map_err(CliError::Io)?;

    let default_k: usize = args.get_parsed_or("k", 10)?;
    let default_algorithm =
        super::parse_two_way_choice(args.get("algorithm").unwrap_or("b-idj-y"))?;
    let m: usize = args.get_parsed_or("m", 50)?;
    let explain = args.get_parsed_or("explain", 0u8)? == 1;
    let trace = args.get_parsed_or("trace", 0u8)? == 1;
    let sessions: usize = args.get_parsed_or("sessions", 1)?.max(1);
    let cache: usize = args.get_parsed_or("cache", dht_engine::DEFAULT_CACHE_BYTES)?;
    let shared = args.get_parsed_or("shared", 1u8)? == 1;
    let repeat: usize = args.get_parsed_or("repeat", 1)?.max(1);
    let (params, depth) = super::dht_options(args)?;
    let (walk_engine, threads) = super::engine_options(args)?;

    let stream = parse_queries(&queries_text, &sets, default_k, default_algorithm, m)?;

    let config = EngineConfig::paper_default()
        .with_params(params, depth)
        .with_engine(walk_engine)
        .with_threads(threads)
        .with_cache_bytes(cache)
        .with_shared_cache(shared);
    let engine = Engine::with_config(graph, config);

    let stream_start = Instant::now();
    let mut reports: Vec<WorkerReport> = if sessions == 1 {
        vec![run_worker(&engine, &stream, 0, 1, repeat, explain, trace)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|worker| {
                    let engine = &engine;
                    let stream = &stream;
                    scope.spawn(move || {
                        run_worker(engine, stream, worker, sessions, repeat, explain, trace)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session worker panicked"))
                .collect()
        })
    };
    let total_s = stream_start.elapsed().as_secs_f64();

    // Surface the first (smallest query index) error deterministically.
    if let Some((_, message)) = reports
        .iter()
        .filter_map(|r| r.error.clone())
        .min_by_key(|(index, _)| *index)
    {
        return Err(CliError::Parse(format!("query failed at {message}")));
    }

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut answers_returned = 0usize;
    let mut cache_stats = dht_walks::CacheStats::default();
    let (mut y_hits, mut y_misses) = (0u64, 0u64);
    let mut empty_lines: Vec<usize> = Vec::new();
    let mut plans: Vec<(usize, usize, String)> = Vec::new();
    let mut spans = [(0.0f64, 0u64); Phase::COUNT];
    for report in reports.drain(..) {
        latencies_ms.extend(report.latencies_ms);
        answers_returned += report.answers_returned;
        cache_stats = cache_stats.merged(report.cache);
        y_hits += report.y_tables.0;
        y_misses += report.y_tables.1;
        empty_lines.extend(report.empty_lines);
        plans.extend(report.plans);
        for (slot, (ms, count)) in report.spans.into_iter().enumerate() {
            spans[slot].0 += ms;
            spans[slot].1 += count;
        }
    }
    empty_lines.sort_unstable();
    empty_lines.dedup();
    for line in empty_lines {
        // Degenerate but legal (fully disconnected sets); mention the line
        // so operators can spot bad query files.
        eprintln!("note: query at line {line} returned no answers");
    }

    latencies_ms.sort_by(f64::total_cmp);
    let answered = latencies_ms.len();

    let mut out = String::new();
    if explain {
        plans.sort_unstable_by_key(|&(index, _, _)| index);
        out.push_str("query plans (first pass, in stream order):\n");
        for (_, line_no, plan) in &plans {
            out.push_str(&format!("  plan line {line_no}: {plan}\n"));
        }
    }
    out.push_str(&format!(
        "query stream: {answered} quer{} answered ({} unique lines × {repeat} pass{}), \
         {answers_returned} answers returned\n",
        if answered == 1 { "y" } else { "ies" },
        stream.len(),
        if repeat == 1 { "" } else { "es" },
    ));
    out.push_str(&format!(
        "engine: d={depth}, engine={}, threads={threads}, sessions={sessions}, \
         cache={cache} bytes ({})\n",
        walk_engine.name(),
        if shared {
            "shared across sessions"
        } else {
            "private per session"
        }
    ));
    out.push_str(&format!(
        "total {total_s:.4} s, throughput {:.1} queries/s\n",
        answered as f64 / total_s.max(1e-12)
    ));
    out.push_str("latency (ms per query)\n");
    for (label, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        out.push_str(&format!(
            "  {label}  {:>10.4}\n",
            percentile(&latencies_ms, p)
        ));
    }
    out.push_str(&format!(
        "  max  {:>10.4}\n",
        latencies_ms.last().copied().unwrap_or(0.0)
    ));
    if trace {
        out.push_str("trace spans (summed across all queries and sessions)\n");
        for (slot, phase) in Phase::ALL.into_iter().enumerate() {
            let (ms, count) = spans[slot];
            if count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<14} {ms:>10.3} ms  ({count} span{})\n",
                phase.key(),
                if count == 1 { "" } else { "s" }
            ));
        }
    }
    out.push_str(&format!(
        "column cache: {} hits, {} misses ({:.1}% hit rate across sessions); \
         Y-tables: {y_hits} hits, {y_misses} misses\n",
        cache_stats.hits,
        cache_stats.misses,
        100.0 * cache_stats.hit_rate(),
    ));
    if let Some(stats) = engine.shared_cache_stats() {
        out.push_str(&format!(
            "shared cache: {} hits, {} misses, {} evictions ({:.1}% hit rate)\n",
            stats.hits,
            stats.misses,
            stats.evictions,
            100.0 * stats.hit_rate(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::{GraphBuilder, NodeId};

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// Writes a small graph, node sets and a query file; returns the paths.
    fn fixture(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, std::path::PathBuf) {
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
        let g = b.build().unwrap();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let graph_path = dir.join(format!("dht-qs-{tag}-{pid}.tsv"));
        let sets_path = dir.join(format!("dht-qs-{tag}-{pid}.sets"));
        let queries_path = dir.join(format!("dht-qs-{tag}-{pid}.queries"));
        dht_graph::io::write_edge_list_file(&g, &graph_path).unwrap();
        let sets = vec![
            NodeSet::new("P", (0..5).map(NodeId)),
            NodeSet::new("Q", (5..10).map(NodeId)),
        ];
        setsfile::write_node_sets_file(&sets, &sets_path).unwrap();
        std::fs::write(
            &queries_path,
            "# repeated-target stream\n\
             P Q 3\n\
             Q P 2 b-bj\n\
             P Q 3\n\
             P Q        # same query again, should hit the cache\n",
        )
        .unwrap();
        (graph_path, sets_path, queries_path)
    }

    fn cleanup(paths: &[&std::path::Path]) {
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn help_mentions_both_query_line_formats_and_auto() {
        let out = run(&argmap(&["--help"])).unwrap();
        assert!(out.contains("LEFT RIGHT"));
        assert!(out.contains("nway SHAPE"));
        assert!(out.contains("--sessions"));
        assert!(out.contains("auto"));
        assert!(out.contains("--explain"));
    }

    #[test]
    fn stream_reports_percentiles_and_cache_hits() {
        let (g, s, q) = fixture("basic");
        let out = run(&argmap(&[
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--queries",
            q.to_str().unwrap(),
            "--repeat",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("8 queries answered"), "got: {out}");
        assert!(out.contains("p50"));
        assert!(out.contains("p99"));
        assert!(out.contains("hit rate"));
        // The stream repeats its queries, so the warm cache must hit.
        let hits: u64 = out
            .split("column cache: ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(hits > 0, "repeated queries must hit the cache: {out}");
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn auto_queries_are_planned_and_explained() {
        let (g, s, q) = fixture("auto");
        std::fs::write(
            &q,
            "P Q 3 auto\n\
             P Q 3 auto      # second pass over warm columns\n\
             nway chain P Q 2 auto min\n",
        )
        .unwrap();
        let out = run(&argmap(&[
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--queries",
            q.to_str().unwrap(),
            "--explain",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("3 queries answered"), "got: {out}");
        assert!(out.contains("plan line 1:"), "got: {out}");
        assert!(out.contains("plan line 3:"), "got: {out}");
        assert!(out.contains("(auto"), "got: {out}");
        assert!(out.contains("warm "), "got: {out}");
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn trace_flag_reports_span_totals_without_perturbing_the_stream() {
        let (g, s, q) = fixture("trace");
        let base = [
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--queries",
            q.to_str().unwrap(),
        ];
        let plain = run(&argmap(&base)).unwrap();
        let mut traced_args: Vec<&str> = base.to_vec();
        traced_args.extend(["--trace", "1"]);
        let traced = run(&argmap(&traced_args)).unwrap();
        assert!(traced.contains("trace spans"), "got: {traced}");
        assert!(traced.contains("join"), "got: {traced}");
        assert!(!plain.contains("trace spans"), "got: {plain}");
        // Tracing only observes: both runs answer the same stream the same way.
        let answers = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("query stream:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(answers(&plain), answers(&traced));
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn default_algorithm_option_accepts_auto() {
        let (g, s, q) = fixture("defauto");
        let out = run(&argmap(&[
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--queries",
            q.to_str().unwrap(),
            "--algorithm",
            "auto",
        ]))
        .unwrap();
        assert!(out.contains("4 queries answered"), "got: {out}");
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn nway_lines_are_answered_alongside_two_way_ones() {
        let (g, s, q) = fixture("nway");
        std::fs::write(
            &q,
            "P Q 3\n\
             nway chain P Q 2 ap min\n\
             nway chain P Q P 2 pj-i\n\
             nway star Q P 2 sum\n",
        )
        .unwrap();
        let out = run(&argmap(&[
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--queries",
            q.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("4 queries answered"), "got: {out}");
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn concurrent_sessions_report_the_shared_cache() {
        let (g, s, q) = fixture("sessions");
        let out = run(&argmap(&[
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--queries",
            q.to_str().unwrap(),
            "--sessions",
            "3",
            "--repeat",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("sessions=3"), "got: {out}");
        assert!(out.contains("shared cache:"), "got: {out}");
        assert!(out.contains("8 queries answered"), "got: {out}");
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn cache_zero_disables_caching_but_answers_identically() {
        let (g, s, q) = fixture("nocache");
        let base = [
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--queries",
            q.to_str().unwrap(),
        ];
        let mut cold: Vec<&str> = base.to_vec();
        cold.extend(["--cache", "0"]);
        let out = run(&argmap(&cold)).unwrap();
        assert!(out.contains("0 hits"), "got: {out}");
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn malformed_query_files_are_rejected_with_line_numbers_and_tokens() {
        let (g, s, q) = fixture("badfile");
        let base = |q: &std::path::Path| {
            argmap(&[
                "--graph",
                g.to_str().unwrap(),
                "--sets",
                s.to_str().unwrap(),
                "--queries",
                q.to_str().unwrap(),
            ])
        };
        std::fs::write(&q, "P\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");

        std::fs::write(&q, "P Z\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("unknown node set"), "{err}");
        assert!(err.to_string().contains("'Z'"), "{err}");

        // Two numeric fields (e.g. a typo for one k) must not silently let
        // the second overwrite the first.
        std::fs::write(&q, "P Q 3 4\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("duplicate k"), "{err}");

        // A bad algorithm token is reported with its line and spelling.
        std::fs::write(&q, "P Q\nP Q 3 b-idj-z\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("'b-idj-z'"), "{err}");

        // k = 0 is rejected at parse time with the line number.
        std::fs::write(&q, "P Q 0\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(err.to_string().contains("k = 0"), "{err}");

        // n-way lines need at least two known sets and a valid shape.
        std::fs::write(&q, "nway chain P 3\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("at least two node sets"), "{err}");
        std::fs::write(&q, "nway blob P Q\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("unknown query shape"), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(err.to_string().contains("'blob'"), "{err}");
        // A triangle needs exactly three sets; the error names the token.
        std::fs::write(&q, "nway triangle P Q\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("exactly 3"), "{err}");
        assert!(err.to_string().contains("'triangle'"), "{err}");
        // A bad n-way algorithm token is named too.
        std::fs::write(&q, "nway chain P Q zz\n").unwrap();
        let err = run(&base(&q)).unwrap_err();
        assert!(err.to_string().contains("'zz'"), "{err}");
        cleanup(&[&g, &s, &q]);
    }

    #[test]
    fn percentiles_interpolate_the_sorted_sample() {
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 0.5), 3.0);
        assert_eq!(percentile(&sample, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
