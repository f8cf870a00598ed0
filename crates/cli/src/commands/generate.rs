//! `dht generate` — write a synthetic dataset (graph + node sets) to files.

use dht_datasets::{dblp, yeast, youtube, Dataset, Scale};

use super::parse_scale;
use crate::{setsfile, ArgMap, CliError, Result};

const HELP: &str = "\
dht generate — generate a synthetic analogue of one of the paper's datasets

OPTIONS:
    --dataset <dblp|yeast|youtube>   which analogue to generate (required)
    --scale <tiny|bench|full>        dataset size preset          [default: tiny]
    --graph-out <path>               where to write the edge list (required)
    --sets-out <path>                where to write the node sets (required)
";

const KNOWN: &[&str] = &["dataset", "scale", "graph-out", "sets-out"];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(KNOWN)?;
    let scale = parse_scale(args.get("scale").unwrap_or("tiny"))?;
    let dataset = build_dataset(args.require("dataset")?, scale)?;
    let graph_out = args.require("graph-out")?;
    let sets_out = args.require("sets-out")?;

    dht_graph::io::write_edge_list_file(&dataset.graph, graph_out)?;
    setsfile::write_node_sets_file(&dataset.node_sets, sets_out)?;

    Ok(format!(
        "generated {}\n  graph written to {graph_out}\n  {} node sets written to {sets_out}\n",
        dataset.summary(),
        dataset.node_sets.len()
    ))
}

fn build_dataset(name: &str, scale: Scale) -> Result<Dataset> {
    match name.to_ascii_lowercase().as_str() {
        "dblp" => Ok(dblp::generate(&dblp::DblpConfig::for_scale(scale))),
        "yeast" => Ok(yeast::generate(&yeast::YeastConfig::for_scale(scale))),
        "youtube" => Ok(youtube::generate(&youtube::YoutubeConfig::for_scale(scale))),
        _ => Err(CliError::Parse(format!(
            "unknown dataset '{name}' (expected dblp, yeast or youtube)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn help_text_is_returned_on_request() {
        let out = run(&argmap(&["--help"])).unwrap();
        assert!(out.contains("--dataset"));
    }

    #[test]
    fn scale_and_dataset_names_validate() {
        assert!(parse_scale("tiny").is_ok());
        assert!(parse_scale("BENCH").is_ok());
        assert!(parse_scale("huge").is_err());
        assert!(build_dataset("yeast", Scale::Tiny).is_ok());
        assert!(build_dataset("imdb", Scale::Tiny).is_err());
    }

    #[test]
    fn missing_outputs_are_usage_errors() {
        let err = run(&argmap(&["--dataset", "yeast"])).unwrap_err();
        assert!(err.to_string().contains("graph-out"));
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = run(&argmap(&["--dataset", "yeast", "--graph-outt", "x"])).unwrap_err();
        assert!(err.to_string().contains("graph-outt"));
    }

    #[test]
    fn generates_files_in_a_temporary_directory() {
        let dir = std::env::temp_dir().join(format!("dht-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.tsv");
        let s = dir.join("s.tsv");
        let out = run(&argmap(&[
            "--dataset",
            "yeast",
            "--scale",
            "tiny",
            "--graph-out",
            g.to_str().unwrap(),
            "--sets-out",
            s.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("node sets"));
        assert!(g.exists());
        assert!(s.exists());
        // the written files parse back
        let graph = dht_graph::io::read_edge_list_file(&g).unwrap();
        assert!(graph.node_count() > 0);
        let sets = setsfile::read_node_sets_file(&s).unwrap();
        assert!(!sets.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
