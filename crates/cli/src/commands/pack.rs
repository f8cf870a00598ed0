//! `dht pack` — convert a graph file into the binary `.dht` container.

use crate::{ArgMap, Result};

const HELP: &str = "\
dht pack — pack a graph into the versioned binary .dht container

Reads either on-disk format (text edge list or an existing .dht container,
detected by magic bytes) and writes the binary container, which loads
straight into its arrays with no per-edge parsing and no probability
re-derivation.

OPTIONS:
    --graph <path>   input graph, text edge list or .dht     (required)
    --out <path>     output path for the binary container    (required)
";

const KNOWN: &[&str] = &["graph", "out"];

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(KNOWN)?;
    let input = args.require("graph")?;
    let out = args.require("out")?;

    let graph = super::load_graph(args)?;
    dht_graph::binfmt::write_graph_file(&graph, out)?;
    let in_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let out_bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);

    Ok(format!(
        "packed {} nodes, {} edges into {out}\n  input:  {in_bytes} bytes ({input})\n  output: {out_bytes} bytes (binary container v{})\n",
        graph.node_count(),
        graph.edge_count(),
        dht_graph::binfmt::VERSION,
    ))
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
        assert!(out.contains("--graph"));
        assert!(out.contains("--out"));
    }

    #[test]
    fn missing_arguments_are_usage_errors() {
        assert!(run(&argmap(&[])).is_err());
        assert!(run(&argmap(&["--graph", "g.tsv"])).is_err());
    }

    #[test]
    fn packs_text_and_repacks_binary() {
        let dir = std::env::temp_dir().join(format!("dht-cli-pack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("g.tsv");
        std::fs::write(&text, "nodes 4\n0 1 2.0\n1 2\n2 3 0.5\n3 0\n").unwrap();
        let packed = dir.join("g.dht");
        let out = run(&argmap(&[
            "--graph",
            text.to_str().unwrap(),
            "--out",
            packed.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("4 nodes"), "{out}");
        let original = dht_graph::io::read_edge_list_file(&text).unwrap();
        let loaded = dht_graph::binfmt::read_graph_file(&packed).unwrap();
        assert_eq!(loaded.forward_csr(), original.forward_csr());

        // Repacking an existing container also works (input auto-detected).
        let repacked = dir.join("g2.dht");
        run(&argmap(&[
            "--graph",
            packed.to_str().unwrap(),
            "--out",
            repacked.to_str().unwrap(),
        ]))
        .unwrap();
        let reloaded = dht_graph::binfmt::read_graph_file(&repacked).unwrap();
        assert_eq!(reloaded.forward_csr(), original.forward_csr());
        std::fs::remove_dir_all(&dir).ok();
    }
}
