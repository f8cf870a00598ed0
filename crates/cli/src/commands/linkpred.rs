//! `dht linkpred` — hold-out link-prediction evaluation between two node
//! sets (the Section VII-B experiment, runnable on user-supplied graphs).

use dht_datasets::split::link_prediction_split;
use dht_eval::linkpred;

use crate::{setsfile, ArgMap, CliError, Result};

const HELP: &str = "\
dht linkpred — hold-out link prediction between two node sets

Removes a fraction of the edges between the two sets, ranks the unlinked
pairs on the remaining graph with the chosen measure, and reports how well
the ranking recovers the held-out edges (ROC / AUC).

OPTIONS:
    --graph <path>          edge-list graph file (required)
    --sets <path>           node-set file (required)
    --left <name>           name of the left node set P (required)
    --right <name>          name of the right node set Q (required)
    --fraction <x>          fraction of P–Q edges to hold out   [default: 0.5]
    --seed <n>              hold-out RNG seed                   [default: 42]
    --measure <name>        dht | ppr | ht | pathsim | katz     [default: dht]
    --variant <lambda|e>    DHT variant                         [default: lambda]
    --lambda <x>            DHT_λ decay factor                  [default: 0.2]
    --epsilon <x>           truncation error bound              [default: 1e-6]
    --damping <x>           PPR walk-continuation probability   [default: 0.85]
    --length <n>            PathSim walk length                 [default: 2]
    --beta <x>              Katz attenuation factor             [default: 0.05]
";

const KNOWN: &[&str] = &[
    "graph", "sets", "left", "right", "fraction", "seed", "measure", "variant", "lambda",
    "epsilon", "damping", "length", "beta",
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
    let fraction: f64 = args.get_parsed_or("fraction", 0.5)?;
    if !(0.0..=1.0).contains(&fraction) {
        return Err(CliError::Parse(format!(
            "--fraction must lie in [0, 1], got {fraction}"
        )));
    }
    let seed: u64 = args.get_parsed_or("seed", 42)?;

    let split = link_prediction_split(&graph, left, right, fraction, seed)
        .map_err(|e| CliError::Parse(format!("cannot build the hold-out split: {e}")))?;
    if split.removed.is_empty() {
        return Err(CliError::Parse(format!(
            "no {}–{} edges could be held out (are the sets connected at all?)",
            left.name(),
            right.name()
        )));
    }

    let (name, detail, measure) = super::measure_options(args)?;
    let label = format!("{name} ({detail})");
    let outcome = linkpred::evaluate_with(&graph, &split.test_graph, left, right, |g, t| {
        measure.scores_to_target(g, t)
    });

    let mut out = String::new();
    out.push_str(&format!(
        "link prediction {} ⋈ {} with {label}\n",
        left.name(),
        right.name()
    ));
    out.push_str(&format!(
        "held out {} edges ({}% of the cross-set edges), kept {}\n",
        split.removed.len(),
        (fraction * 100.0).round(),
        split.kept.len()
    ));
    out.push_str(&format!(
        "candidates: {} positives, {} negatives\n",
        outcome.positives, outcome.negatives
    ));
    out.push_str(&format!("AUC = {:.4}\n", outcome.auc()));
    for fpr in [0.05f64, 0.1, 0.2, 0.5] {
        out.push_str(&format!(
            "TPR at FPR {:>4.2} = {:.3}\n",
            fpr,
            outcome.roc.tpr_at_fpr(fpr)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::{GraphBuilder, NodeId, NodeSet};

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// Two groups with several cross edges, so a hold-out split exists.
    fn fixture(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let mut b = GraphBuilder::with_nodes(10);
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                b.add_undirected_edge(NodeId(i), NodeId(j), 1.0).unwrap();
                b.add_undirected_edge(NodeId(5 + i), NodeId(5 + j), 1.0)
                    .unwrap();
            }
        }
        for (u, v) in [(0u32, 5u32), (1, 6), (2, 7), (3, 8), (4, 9), (0, 6), (1, 7)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let dir = std::env::temp_dir();
        let graph_path = dir.join(format!("dht-cli-lp-{tag}-{}.tsv", std::process::id()));
        let sets_path = dir.join(format!("dht-cli-lp-{tag}-{}.sets", std::process::id()));
        dht_graph::io::write_edge_list_file(&g, &graph_path).unwrap();
        let sets = vec![
            NodeSet::new("P", (0..5).map(NodeId)),
            NodeSet::new("Q", (5..10).map(NodeId)),
        ];
        setsfile::write_node_sets_file(&sets, &sets_path).unwrap();
        (graph_path, sets_path)
    }

    #[test]
    fn help_lists_fraction_and_measure() {
        let out = run(&argmap(&["--help"])).unwrap();
        assert!(out.contains("--fraction"));
        assert!(out.contains("--measure"));
    }

    #[test]
    fn evaluates_every_measure_end_to_end() {
        let (g, s) = fixture("all");
        for measure in ["dht", "ppr", "ht", "pathsim", "katz"] {
            let out = run(&argmap(&[
                "--graph",
                g.to_str().unwrap(),
                "--sets",
                s.to_str().unwrap(),
                "--left",
                "P",
                "--right",
                "Q",
                "--measure",
                measure,
                "--seed",
                "7",
            ]))
            .unwrap();
            assert!(out.contains("AUC ="), "{measure}: no AUC reported\n{out}");
            assert!(out.contains("held out"), "{measure}: no split summary");
        }
        std::fs::remove_file(&g).ok();
        std::fs::remove_file(&s).ok();
    }

    #[test]
    fn invalid_fraction_and_measure_are_rejected() {
        let (g, s) = fixture("bad");
        let base = [
            "--graph",
            g.to_str().unwrap(),
            "--sets",
            s.to_str().unwrap(),
            "--left",
            "P",
            "--right",
            "Q",
        ];
        let mut bad_fraction: Vec<&str> = base.to_vec();
        bad_fraction.extend(["--fraction", "1.5"]);
        assert!(run(&argmap(&bad_fraction)).is_err());
        let mut bad_measure: Vec<&str> = base.to_vec();
        bad_measure.extend(["--measure", "adamic-adar"]);
        assert!(run(&argmap(&bad_measure)).is_err());
        std::fs::remove_file(&g).ok();
        std::fs::remove_file(&s).ok();
    }
}
