//! `dht gen` — generate a seeded scale-free graph straight into the binary
//! `.dht` container, with optional node sets and a zipfian query mix.
//!
//! This is the large-scale workflow: a million-node Barabási–Albert graph
//! never materialises as text — the builder's CSR arrays are written to the
//! container as-is — and the emitted sets/queries let `dht serve`,
//! `dht loadgen` and `dht querystream` exercise the graph with realistic
//! hub-heavy, zipf-skewed traffic.

use dht_datasets::workloads::zipfian_query_mix;
use dht_graph::{Graph, NodeId, NodeSet};

use crate::{setsfile, ArgMap, CliError, Result};

const HELP: &str = "\
dht gen — generate a seeded scale-free graph as a binary .dht container

The graph is a Barabási–Albert preferential-attachment graph (undirected
edges stored in both directions), written directly in the binary container
format without materialising text.  Optionally also writes query node sets
(slices of the degree ranking, so set 0 holds the hubs) and a zipf-skewed
two-way query mix over them for loadgen/querystream replay.

OPTIONS:
    --nodes <n>          number of nodes                        (required)
    --attach <m>         edges attached per new node            [default: 4]
    --seed <u64>         generator seed                         [default: 2014]
    --out <path>         output path for the .dht container     (required)
    --sets-out <path>    also write node sets here              [optional]
    --sets <count>       number of node sets                    [default: 8]
    --set-size <size>    members per node set                   [default: 64]
    --queries-out <path> also write a zipfian query mix here    [optional, needs --sets-out]
    --queries <count>    number of query lines                  [default: 200]
    --zipf-s <s>         zipf exponent of the query mix         [default: 1.0]
    --k <k>              top-k of each generated query          [default: 10]
";

const KNOWN: &[&str] = &[
    "nodes",
    "attach",
    "seed",
    "out",
    "sets-out",
    "sets",
    "set-size",
    "queries-out",
    "queries",
    "zipf-s",
    "k",
];

/// Slices the degree ranking into `count` sets of `size` members: set `S0`
/// holds the highest-degree hubs, `S1` the next band, and so on — a
/// deterministic stand-in for the "popular entities" real query sets name.
fn degree_band_sets(graph: &Graph, count: usize, size: usize) -> Result<Vec<NodeSet>> {
    if count * size > graph.node_count() {
        return Err(CliError::Parse(format!(
            "{count} sets of {size} need {} nodes but the graph has {}",
            count * size,
            graph.node_count()
        )));
    }
    let mut ranking: Vec<u32> = (0..graph.node_count() as u32).collect();
    ranking.sort_by_key(|&u| (std::cmp::Reverse(graph.out_degree(NodeId(u))), u));
    Ok((0..count)
        .map(|i| {
            NodeSet::new(
                format!("S{i}"),
                ranking[i * size..(i + 1) * size].iter().map(|&u| NodeId(u)),
            )
        })
        .collect())
}

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(KNOWN)?;
    let nodes: usize = args
        .require("nodes")?
        .parse()
        .map_err(|_| CliError::Parse("--nodes must be a non-negative integer".into()))?;
    let attach: usize = args.get_parsed_or("attach", 4)?;
    let seed: u64 = args.get_parsed_or("seed", 2014)?;
    let out = args.require("out")?;
    if attach == 0 {
        return Err(CliError::Parse("--attach must be at least 1".into()));
    }

    let graph = dht_graph::generators::barabasi_albert(nodes, attach, seed);
    dht_graph::binfmt::write_graph_file(&graph, out)?;
    let out_bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    let mut report = format!(
        "generated scale-free graph: {} nodes, {} edges (attach={attach}, seed={seed})\n  container written to {out} ({out_bytes} bytes)\n",
        graph.node_count(),
        graph.edge_count(),
    );

    if let Some(sets_out) = args.get("sets-out") {
        let set_count: usize = args.get_parsed_or("sets", 8)?;
        let set_size: usize = args.get_parsed_or("set-size", 64)?;
        let sets = degree_band_sets(&graph, set_count, set_size)?;
        setsfile::write_node_sets_file(&sets, sets_out)?;
        report.push_str(&format!(
            "  {set_count} degree-band node sets written to {sets_out}\n"
        ));

        if let Some(queries_out) = args.get("queries-out") {
            let queries: usize = args.get_parsed_or("queries", 200)?;
            let zipf_s: f64 = args.get_parsed_or("zipf-s", 1.0)?;
            let k: usize = args.get_parsed_or("k", 10)?;
            let mix = zipfian_query_mix(&sets, queries, zipf_s, k, seed);
            let mut text = String::with_capacity(mix.len() * 16);
            for line in &mix {
                text.push_str(line);
                text.push('\n');
            }
            std::fs::write(queries_out, text).map_err(dht_graph::GraphError::Io)?;
            report.push_str(&format!(
                "  {queries} zipf(s={zipf_s}) query lines written to {queries_out}\n"
            ));
        }
    } else if args.get("queries-out").is_some() {
        return Err(CliError::Parse(
            "--queries-out needs --sets-out (queries name the generated sets)".into(),
        ));
    }

    Ok(report)
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
        assert!(out.contains("--nodes"));
        assert!(out.contains("--queries-out"));
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        assert!(run(&argmap(&[])).is_err());
        assert!(run(&argmap(&["--nodes", "10", "--out", "x", "--attach", "0"])).is_err());
        assert!(run(&argmap(&["--nodes", "ten", "--out", "x"])).is_err());
        // queries without sets
        let err = run(&argmap(&[
            "--nodes",
            "50",
            "--out",
            "/nonexistent-dir/x.dht",
            "--queries-out",
            "q.txt",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("sets-out") || err.to_string().contains("i/o"));
    }

    #[test]
    fn generates_container_sets_and_queries() {
        let dir = std::env::temp_dir().join(format!("dht-cli-gen2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.dht");
        let s = dir.join("s.tsv");
        let q = dir.join("q.txt");
        let out = run(&argmap(&[
            "--nodes",
            "300",
            "--attach",
            "3",
            "--seed",
            "7",
            "--out",
            g.to_str().unwrap(),
            "--sets-out",
            s.to_str().unwrap(),
            "--sets",
            "4",
            "--set-size",
            "10",
            "--queries-out",
            q.to_str().unwrap(),
            "--queries",
            "50",
        ]))
        .unwrap();
        assert!(out.contains("300 nodes"), "{out}");
        assert!(dht_graph::binfmt::is_binary_graph_file(&g));
        let graph = dht_graph::binfmt::read_graph_file(&g).unwrap();
        assert_eq!(graph.node_count(), 300);
        assert!(graph.validate());

        let sets = setsfile::read_node_sets_file(&s).unwrap();
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().all(|set| set.len() == 10));
        // S0 holds the hubs: its minimum degree tops S3's maximum.
        let min_deg = |set: &NodeSet| set.iter().map(|n| graph.out_degree(n)).min().unwrap_or(0);
        let max_deg = |set: &NodeSet| set.iter().map(|n| graph.out_degree(n)).max().unwrap_or(0);
        assert!(min_deg(&sets[0]) >= max_deg(&sets[3]));
        let mut members: Vec<_> = sets.iter().flat_map(|set| set.iter()).collect();
        members.sort();
        members.dedup();
        assert_eq!(members.len(), 40, "degree bands must not overlap");

        let queries = std::fs::read_to_string(&q).unwrap();
        assert_eq!(queries.lines().count(), 50);
        let opts = dht_core::queryline::ParseOptions::default();
        assert!(dht_core::queryline::parse_query_file(&queries, &sets, &opts).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn determinism_same_seed_same_bytes() {
        let dir = std::env::temp_dir().join(format!("dht-cli-gen3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.dht");
        let b = dir.join("b.dht");
        for path in [&a, &b] {
            run(&argmap(&[
                "--nodes",
                "120",
                "--seed",
                "11",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_set_request_is_rejected() {
        let graph = dht_graph::generators::barabasi_albert(20, 2, 1);
        assert!(degree_band_sets(&graph, 10, 10).is_err());
        assert!(degree_band_sets(&graph, 2, 5).is_ok());
    }
}
