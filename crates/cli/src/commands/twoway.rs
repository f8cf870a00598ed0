//! `dht two-way` — top-k 2-way join between two named node sets.

use dht_core::answer::PairScore;
use dht_core::twoway::{bbj, TwoWayConfig};
use dht_core::QueryCtx;
use dht_graph::Graph;
use dht_measures::MeasureSource;

use crate::{setsfile, ArgMap, Result};

const HELP: &str = "\
dht two-way — top-k 2-way join between two named node sets

OPTIONS:
    --graph <path>          edge-list graph file (required)
    --sets <path>           node-set file (required)
    --left <name>           name of the left node set P (required)
    --right <name>          name of the right node set Q (required)
    --k <n>                 number of pairs to return          [default: 10]
    --measure <name>        dht | ppr | ht | pathsim | katz    [default: dht]
    --algorithm <name>      F-BJ | F-IDJ | B-BJ | B-IDJ-X | B-IDJ-Y
                            (DHT measure only)                 [default: B-IDJ-Y]
    --variant <lambda|e>    DHT variant                        [default: lambda]
    --lambda <x>            DHT_λ decay factor                 [default: 0.2]
    --epsilon <x>           truncation error bound             [default: 1e-6]
    --damping <x>           PPR walk-continuation probability  [default: 0.85]
    --length <n>            PathSim walk length                [default: 2]
    --beta <x>              Katz attenuation factor            [default: 0.05]
    --engine <name>         walk engine: dense | sparse | auto [default: auto]
    --threads <n>           worker threads (0 = all cores)     [default: 1]
    --labels <0|1>          print node labels when available   [default: 1]
";

const KNOWN: &[&str] = &[
    "graph",
    "sets",
    "left",
    "right",
    "k",
    "measure",
    "algorithm",
    "variant",
    "lambda",
    "epsilon",
    "damping",
    "length",
    "beta",
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
    let sets = setsfile::read_node_sets_for(args.require("sets")?, &graph)?;
    let left = setsfile::find_set(&sets, args.require("left")?)?;
    let right = setsfile::find_set(&sets, args.require("right")?)?;
    let k: usize = args.get_parsed_or("k", 10)?;
    let with_labels = args.get_parsed_or("labels", 1u8)? == 1;
    let (engine, threads) = super::engine_options(args)?;

    let (header, pairs) = if args
        .get("measure")
        .unwrap_or("dht")
        .eq_ignore_ascii_case("dht")
    {
        let (params, depth) = super::dht_options(args)?;
        let algorithm = super::parse_two_way_algorithm(args.get("algorithm").unwrap_or("b-idj-y"))?;
        let config = TwoWayConfig::new(params, depth)
            .with_engine(engine)
            .with_threads(threads);
        let ctx = &mut QueryCtx::one_shot();
        let output = algorithm.top_k_with_ctx(&graph, &config, left, right, k, ctx);
        (
            format!(
                "top-{k} 2-way join {} ⋈ {} (DHT, {}, λ={}, d={depth})",
                left.name(),
                right.name(),
                algorithm.name(),
                params.lambda
            ),
            output.pairs,
        )
    } else {
        let (name, detail, m) = super::measure_options(args)?;
        let (l, r) = (left.name(), right.name());
        let source = MeasureSource::new(&*m, engine, threads);
        let output = bbj::top_k(&graph, &source, left, right, k, &mut QueryCtx::one_shot());
        (
            format!("top-{k} 2-way join {l} ⋈ {r} ({name}, {detail})"),
            output.pairs,
        )
    };

    let table = super::format_ranking(
        pairs
            .iter()
            .map(|p| (pair_label(&graph, p, with_labels), p.score)),
    );
    Ok(format!("{header}\n{table}"))
}

fn pair_label(graph: &Graph, pair: &PairScore, with_labels: bool) -> String {
    if with_labels {
        format!(
            "({}, {})",
            graph.display_name(pair.left),
            graph.display_name(pair.right)
        )
    } else {
        format!("({}, {})", pair.left.0, pair.right.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CliError;
    use dht_graph::{GraphBuilder, GraphError, NodeId, NodeSet};
    use std::path::Path;

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// Writes a small two-community graph plus node sets, returns the paths.
    fn fixture(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let mut b = GraphBuilder::with_nodes(8);
        for (u, v) in [
            (0u32, 1u32),
            (1, 2),
            (2, 3),
            (0, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (4, 7),
            (3, 4),
        ] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let dir = std::env::temp_dir();
        let graph_path = dir.join(format!("dht-cli-2way-{tag}-{}.tsv", std::process::id()));
        let sets_path = dir.join(format!("dht-cli-2way-{tag}-{}.sets", std::process::id()));
        dht_graph::io::write_edge_list_file(&g, &graph_path).unwrap();
        let sets = vec![
            NodeSet::new("P", (0..4).map(NodeId)),
            NodeSet::new("Q", (4..8).map(NodeId)),
        ];
        setsfile::write_node_sets_file(&sets, &sets_path).unwrap();
        (graph_path, sets_path)
    }

    /// Runs `dht two-way` on the fixture's `P ⋈ Q` with `extra` options.
    fn join(g: &Path, s: &Path, extra: &[&str]) -> Result<String> {
        let (g, s) = (g.to_str().unwrap(), s.to_str().unwrap());
        let mut parts = vec!["--graph", g, "--sets", s, "--left", "P", "--right", "Q"];
        parts.extend(extra);
        run(&argmap(&parts))
    }

    fn remove(files: [&Path; 2]) {
        let _ = files.map(std::fs::remove_file);
    }

    #[test]
    fn help_lists_measures() {
        assert!(run(&argmap(&["--help"])).unwrap().contains("--measure"));
    }

    #[test]
    fn dht_join_produces_a_ranking() {
        let (g, s) = fixture("dht");
        let out = join(&g, &s, &["--k", "3"]).unwrap();
        assert!(out.contains("B-IDJ-Y"));
        let rows = out
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric));
        assert_eq!(rows.count(), 3);
        remove([&g, &s]);
    }

    #[test]
    fn alternative_measures_produce_rankings() {
        let (g, s) = fixture("alt");
        for measure in ["ppr", "ht", "pathsim", "katz"] {
            let out = join(&g, &s, &["--k", "2", "--measure", measure]).unwrap();
            assert!(out.contains("rank"), "measure {measure} produced no table");
        }
        remove([&g, &s]);
    }

    #[test]
    fn engine_and_threads_flags_do_not_change_the_ranking() {
        let (g, s) = fixture("engine");
        for measure in ["dht", "ppr", "katz"] {
            let base = ["--k", "4", "--measure", measure];
            let reference = join(&g, &s, &base).unwrap();
            for flags in [
                &["--engine", "dense"][..],
                &["--engine", "sparse", "--threads", "4"],
            ] {
                let out = join(&g, &s, &[&base[..], flags].concat()).unwrap();
                assert_eq!(out, reference, "{measure} {flags:?}");
            }
        }
        assert!(join(&g, &s, &["--engine", "warp"]).is_err());
        remove([&g, &s]);
    }

    /// `--engine dense` output of every measure on the fixture, captured
    /// before the measures moved onto the shared walk kernel and joins.
    const PINNED: &str = "\
top-6 2-way join P ⋈ Q (PPR, c=0.85)
rank  score        answer
   1  0.138075     (n3, n4)
   2  0.091870     (n0, n4)
   3  0.091870     (n2, n4)
   4  0.078089     (n1, n4)
   5  0.061247     (n3, n5)
   6  0.061247     (n3, n7)
top-6 2-way join P ⋈ Q (truncated hitting time, d=8)
rank  score        answer
   1  0.405478     (n3, n4)
   2  0.223380     (n0, n4)
   3  0.223380     (n2, n4)
   4  0.170718     (n1, n4)
   5  0.151770     (n3, n5)
   6  0.151770     (n3, n7)
top-6 2-way join P ⋈ Q (PathSim, L=2)
rank  score        answer
   1  0.400000     (n0, n4)
   2  0.400000     (n2, n4)
   3  0.400000     (n3, n5)
   4  0.400000     (n3, n7)
   5  0.000000     (n0, n5)
   6  0.000000     (n0, n6)
top-6 2-way join P ⋈ Q (Katz, β=0.05, d=8)
rank  score        answer
   1  0.016699     (n3, n4)
   2  0.000418     (n0, n4)
   3  0.000418     (n2, n4)
   4  0.000279     (n3, n5)
   5  0.000279     (n3, n7)
   6  0.000021     (n1, n4)
";

    #[test]
    fn dense_engine_measure_output_is_pinned() {
        let (g, s) = fixture("pinned");
        let out: String = ["ppr", "ht", "pathsim", "katz"]
            .map(|m| join(&g, &s, &["--k", "6", "--engine", "dense", "--measure", m]).unwrap())
            .concat();
        assert_eq!(out, PINNED);
        remove([&g, &s]);
    }

    #[test]
    fn out_of_range_set_members_are_a_typed_error() {
        let (g, s) = fixture("range");
        std::fs::write(&s, "P 0 1\nQ 4 99\n").unwrap();
        for measure in ["dht", "ppr"] {
            let err = join(&g, &s, &["--measure", measure]).unwrap_err();
            let CliError::Graph(GraphError::NodeSetOutOfRange {
                set,
                node,
                node_count,
            }) = &err
            else {
                panic!("{measure}: {err}");
            };
            assert_eq!((set.as_str(), *node, *node_count), ("Q", 99, 8));
            let message = "node set 'Q' holds node id 99, but the graph has only 8 nodes";
            assert_eq!(err.to_string(), format!("graph error: {message}"));
        }
        remove([&g, &s]);
    }

    #[test]
    fn unknown_measure_and_set_names_error() {
        let (g, s) = fixture("err");
        assert!(join(&g, &s, &["--measure", "adamic-adar"]).is_err());
        let (gp, sp) = (g.to_str().unwrap(), s.to_str().unwrap());
        let bad_set = ["--graph", gp, "--sets", sp, "--left", "P", "--right", "Z"];
        let err = run(&argmap(&bad_set)).unwrap_err();
        assert!(err.to_string().contains("available sets"));
        remove([&g, &s]);
    }
}
