//! `dht nway` — top-k n-way join over a query graph of node sets.

use dht_core::multiway::{ap, NWayAlgorithm, NWayConfig};
use dht_core::{Answer, QueryCtx, QueryGraph};
use dht_graph::{Graph, NodeSet};
use dht_measures::MeasureSource;

use crate::{setsfile, ArgMap, CliError, Result};

const HELP: &str = "\
dht nway — top-k n-way join over a query graph of node sets

The node sets participating in the join are given with repeated --set
options; their order defines the query-graph vertices R_1 … R_n.

OPTIONS:
    --graph <path>          edge-list graph file (required)
    --sets <path>           node-set file (required)
    --set <name>            node set, repeated n times in order (required, n ≥ 2)
    --query <shape>         chain | cycle | triangle | star     [default: chain]
    --k <n>                 number of answers to return         [default: 10]
    --m <n>                 PJ / PJ-i initial 2-way join size   [default: 50]
    --algorithm <name>      NL | AP | PJ | PJ-i (DHT only)      [default: PJ-i]
    --aggregate <name>      min | max | sum | mean              [default: min]
    --measure <name>        dht | ppr | ht                      [default: dht]
    --variant <lambda|e>    DHT variant                         [default: lambda]
    --lambda <x>            DHT_λ decay factor                  [default: 0.2]
    --epsilon <x>           truncation error bound              [default: 1e-6]
    --damping <x>           PPR walk-continuation probability   [default: 0.85]
    --engine <name>         walk engine: dense | sparse | auto  [default: auto]
    --threads <n>           worker threads (0 = all cores)      [default: 1]
    --labels <0|1>          print node labels when available    [default: 1]
";

const KNOWN: &[&str] = &[
    "graph",
    "sets",
    "set",
    "query",
    "k",
    "m",
    "algorithm",
    "aggregate",
    "measure",
    "variant",
    "lambda",
    "epsilon",
    "damping",
    "engine",
    "threads",
    "labels",
];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(KNOWN)?;
    let graph = super::load_graph(args)?;
    let all_sets = setsfile::read_node_sets_for(args.require("sets")?, &graph)?;
    let chosen_names = args.get_all("set");
    if chosen_names.len() < 2 {
        return Err(CliError::Usage(
            "an n-way join needs at least two --set options".to_string(),
        ));
    }
    let node_sets: Vec<NodeSet> = chosen_names
        .iter()
        .map(|name| setsfile::find_set(&all_sets, name).cloned())
        .collect::<Result<_>>()?;
    let query = build_query(args.get("query").unwrap_or("chain"), node_sets.len())?;
    let k: usize = args.get_parsed_or("k", 10)?;
    let aggregate = super::parse_aggregate(args.get("aggregate").unwrap_or("min"))?;
    let with_labels = args.get_parsed_or("labels", 1u8)? == 1;
    let (engine, threads) = super::engine_options(args)?;

    let measure = args.get("measure").unwrap_or("dht");
    let (header, answers) = match measure.to_ascii_lowercase().as_str() {
        "dht" => {
            let (params, depth) = super::dht_options(args)?;
            let m: usize = args.get_parsed_or("m", 50)?;
            let algorithm = parse_nway_algorithm(args.get("algorithm").unwrap_or("pj-i"), m)?;
            let config = NWayConfig::new(params, depth, aggregate, k)
                .with_engine(engine)
                .with_threads(threads);
            let ctx = &mut QueryCtx::one_shot();
            let output = algorithm.run_with_ctx(&graph, &config, &query, &node_sets, ctx)?;
            (
                format!(
                    "top-{k} {}-way join over {} (DHT, {}, {} aggregate)",
                    node_sets.len(),
                    chosen_names.join(" — "),
                    algorithm.name(),
                    aggregate.name()
                ),
                output.answers,
            )
        }
        "ppr" | "ht" | "hitting-time" => {
            let (name, _, m) = super::measure_options(args)?;
            let source = MeasureSource::new(&*m, engine, threads);
            let ctx = &mut QueryCtx::one_shot();
            let output = ap::run_over(&graph, &source, &query, &node_sets, aggregate, k, ctx)?;
            (
                format!(
                    "top-{k} {}-way join over {} ({name}, {} aggregate)",
                    node_sets.len(),
                    chosen_names.join(" — "),
                    aggregate.name()
                ),
                output.answers,
            )
        }
        other => {
            return Err(CliError::Parse(format!(
                "unknown measure '{other}' for nway (expected dht, ppr or ht)"
            )))
        }
    };

    let table = super::format_ranking(
        answers
            .iter()
            .map(|a| (answer_label(&graph, a, with_labels), a.score)),
    );
    Ok(format!("{header}\n{table}"))
}

/// Builds a query graph of `shape` over `n` node sets (delegates to the
/// shared `dht_core::queryline` parser, so `dht nway`, `dht querystream`
/// and `dht-server` all accept the same shapes).
pub(crate) fn build_query(shape: &str, n: usize) -> Result<QueryGraph> {
    dht_core::queryline::build_query_shape(shape, n).map_err(CliError::Parse)
}

/// Parses an n-way algorithm name (delegates to `dht_core::queryline`).
pub(crate) fn parse_nway_algorithm(name: &str, m: usize) -> Result<NWayAlgorithm> {
    dht_core::queryline::parse_n_way_algorithm(name, m).map_err(CliError::Parse)
}

fn answer_label(graph: &Graph, answer: &Answer, with_labels: bool) -> String {
    let parts: Vec<String> = answer
        .nodes
        .iter()
        .map(|&n| {
            if with_labels {
                graph.display_name(n)
            } else {
                n.0.to_string()
            }
        })
        .collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::{GraphBuilder, NodeId};
    use std::path::Path;

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn fixture(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let mut b = GraphBuilder::with_nodes(9);
        // three loosely connected triples
        for (u, v) in [
            (0u32, 1u32),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (6, 7),
            (7, 8),
            (6, 8),
            (2, 3),
            (5, 6),
            (8, 0),
        ] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let dir = std::env::temp_dir();
        let graph_path = dir.join(format!("dht-cli-nway-{tag}-{}.tsv", std::process::id()));
        let sets_path = dir.join(format!("dht-cli-nway-{tag}-{}.sets", std::process::id()));
        dht_graph::io::write_edge_list_file(&g, &graph_path).unwrap();
        let sets = vec![
            NodeSet::new("A", (0..3).map(NodeId)),
            NodeSet::new("B", (3..6).map(NodeId)),
            NodeSet::new("C", (6..9).map(NodeId)),
        ];
        setsfile::write_node_sets_file(&sets, &sets_path).unwrap();
        (graph_path, sets_path)
    }

    #[test]
    fn query_shapes_validate() {
        assert_eq!(build_query("chain", 4).unwrap().edge_count(), 3);
        assert_eq!(build_query("triangle", 3).unwrap().edge_count(), 6);
        assert!(build_query("triangle", 4).is_err());
        assert!(build_query("hypercube", 3).is_err());
        assert!(parse_nway_algorithm("pj-i", 10).is_ok());
        assert!(parse_nway_algorithm("zz", 10).is_err());
    }

    /// Runs `dht nway` on the fixture with `extra` options.
    fn nway(g: &Path, s: &Path, extra: &[&str]) -> Result<String> {
        let mut parts = vec![
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
        ];
        parts.extend(extra);
        run(&argmap(&parts))
    }

    fn remove(files: [&Path; 2]) {
        let _ = files.map(std::fs::remove_file);
    }

    #[test]
    fn dht_triangle_join_runs_end_to_end() {
        let (g, s) = fixture("dht");
        let sets = ["--set", "A", "--set", "B", "--set", "C"];
        let out = nway(
            &g,
            &s,
            &[&sets[..], &["--query", "triangle", "--k", "4"]].concat(),
        );
        let out = out.unwrap();
        assert!(out.contains("PJ-i"));
        assert!(out.contains("rank"));
        remove([&g, &s]);
    }

    #[test]
    fn ppr_chain_join_runs_end_to_end() {
        let (g, s) = fixture("ppr");
        let extra = [
            "--set",
            "A",
            "--set",
            "B",
            "--measure",
            "ppr",
            "--aggregate",
            "sum",
        ];
        let out = nway(&g, &s, &[&extra[..], &["--k", "3"]].concat()).unwrap();
        assert!(out.contains("PPR"));
        remove([&g, &s]);
    }

    /// `--engine dense` output of the measure n-way joins on the fixture,
    /// captured before the measures moved onto the shared walk kernel and
    /// joins.
    const PINNED: &str = "\
top-5 3-way join over A — B — C (PPR, SUM aggregate)
rank  score        answer
   1  0.204165     (n2, n3, n6)
   2  0.204165     (n2, n5, n6)
   3  0.187178     (n0, n5, n6)
   4  0.187178     (n2, n3, n8)
   5  0.185302     (n1, n5, n6)
top-5 3-way join over A — B — C (truncated hitting time, SUM aggregate)
rank  score        answer
   1  0.597222     (n2, n3, n6)
   2  0.597222     (n2, n5, n6)
   3  0.523341     (n2, n3, n8)
   4  0.523341     (n0, n5, n6)
   5  0.515046     (n1, n5, n6)
";

    #[test]
    fn dense_engine_measure_output_is_pinned() {
        let (g, s) = fixture("pinned");
        let sets = [
            "--set",
            "A",
            "--set",
            "B",
            "--set",
            "C",
            "--aggregate",
            "sum",
        ];
        let out = ["ppr", "ht"].map(|m| {
            let options = ["--k", "5", "--engine", "dense", "--measure", m];
            nway(&g, &s, &[&sets[..], &options].concat()).unwrap()
        });
        assert_eq!(out.concat(), PINNED);
        remove([&g, &s]);
    }

    #[test]
    fn k_zero_prints_an_empty_table_for_every_rank_join() {
        let (g, s) = fixture("k0");
        let sets = ["--set", "A", "--set", "B", "--set", "C", "--k", "0"];
        for options in [
            ["--algorithm", "ap"],
            ["--algorithm", "pj"],
            ["--algorithm", "pj-i"],
            ["--measure", "ppr"],
        ] {
            let out = nway(&g, &s, &[&sets[..], &options].concat()).unwrap();
            let (header, table) = out.split_once('\n').unwrap();
            assert!(header.starts_with("top-0 3-way join"), "{options:?}: {out}");
            assert_eq!(table, "rank  score        answer\n", "{options:?}");
        }
        remove([&g, &s]);
    }

    #[test]
    fn too_few_sets_is_a_usage_error() {
        let (g, s) = fixture("few");
        let err = nway(&g, &s, &["--set", "A"]).unwrap_err();
        assert!(err.to_string().contains("at least two"));
        remove([&g, &s]);
    }
}
