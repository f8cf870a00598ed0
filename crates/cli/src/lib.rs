//! # dht-cli
//!
//! A small command-line front-end over the workspace:
//!
//! ```text
//! dht generate --dataset yeast --scale tiny --graph-out g.tsv --sets-out s.tsv
//! dht stats    --graph g.tsv
//! dht two-way  --graph g.tsv --sets s.tsv --left 3-U --right 8-D --k 10
//! dht nway     --graph g.tsv --sets s.tsv --query triangle --set DB --set AI --set SYS --k 5
//! dht repro    --scale tiny fig9 fig10
//! ```
//!
//! The crate is structured as a library (argument parsing, node-set file
//! format, and one module per sub-command, each returning its report as a
//! `String`) plus a thin `main` that prints the report or the error.  That
//! split keeps every code path unit-testable without spawning processes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod commands;
pub mod error;
pub mod setsfile;

pub use args::ArgMap;
pub use error::CliError;

/// Convenience result alias for the CLI crate.
pub type Result<T> = std::result::Result<T, CliError>;

/// Top-level usage text shown by `dht help` and on argument errors.
pub const USAGE: &str = "\
dht — top-k joins over discounted hitting time and related measures

USAGE:
    dht <COMMAND> [OPTIONS]

COMMANDS:
    generate     Generate a synthetic dataset (graph + node sets) to files
    gen          Generate a seeded scale-free graph as a binary .dht container
    pack         Pack a graph into the versioned binary .dht container
    stats        Print structural statistics of an edge-list graph
    two-way      Run a top-k 2-way join between two named node sets
    nway         Run a top-k n-way join over a query graph of node sets
    querystream  Answer a file of 2-way queries on a warm engine session
    serve        Serve querystream queries over TCP from one warm engine
                 (or a registry of named graphs: --graph NAME=PATH …)
    route        Shard backward-walk targets across a fleet of dht-servers
    shard-sets   Partition a node-set file into per-backend shard files
    loadgen      Replay a query file against a running serve instance
    linkpred     Hold-out link-prediction evaluation between two node sets
    repro        Regenerate the paper's tables and figures and check its claims
    help         Show this message

Run `dht <COMMAND> --help` for the options of a command.
";

/// Parses the argument vector (excluding the program name) and runs the
/// selected sub-command, returning its textual report.
pub fn run(args: &[String]) -> Result<String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    match command.as_str() {
        "generate" => commands::generate::run(&ArgMap::parse(rest)?),
        "gen" => commands::gen::run(&ArgMap::parse(rest)?),
        "pack" => commands::pack::run(&ArgMap::parse(rest)?),
        "stats" => commands::stats::run(&ArgMap::parse(rest)?),
        "two-way" | "twoway" => commands::twoway::run(&ArgMap::parse(rest)?),
        "nway" | "n-way" => commands::nway::run(&ArgMap::parse(rest)?),
        "querystream" | "query-stream" => commands::querystream::run(&ArgMap::parse(rest)?),
        "serve" | "server" => commands::serve::run(&ArgMap::parse(rest)?),
        "route" | "router" => commands::route::run(&ArgMap::parse(rest)?),
        "shard-sets" | "shardsets" => commands::shardsets::run(&ArgMap::parse(rest)?),
        "loadgen" | "load-gen" => commands::loadgen::run(&ArgMap::parse(rest)?),
        "linkpred" | "link-prediction" => commands::linkpred::run(&ArgMap::parse(rest)?),
        "repro" => commands::repro::run(&ArgMap::parse(rest)?),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("two-way"));
        assert!(out.contains("nway"));
    }

    #[test]
    fn missing_command_is_a_usage_error() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("frobnicate"));
    }

    #[test]
    fn binary_container_is_accepted_wherever_text_is() {
        let dir = std::env::temp_dir().join(format!("dht-cli-dht-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let sets_path = dir.join("s.tsv");
        let packed_path = dir.join("g.dht");

        run(&argv(&[
            "generate",
            "--dataset",
            "yeast",
            "--scale",
            "tiny",
            "--graph-out",
            graph_path.to_str().unwrap(),
            "--sets-out",
            sets_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "pack",
            "--graph",
            graph_path.to_str().unwrap(),
            "--out",
            packed_path.to_str().unwrap(),
        ]))
        .unwrap();

        // Same stats from both formats, and a bit-identical join answer.
        let stats_text = run(&argv(&["stats", "--graph", graph_path.to_str().unwrap()])).unwrap();
        let stats_packed =
            run(&argv(&["stats", "--graph", packed_path.to_str().unwrap()])).unwrap();
        assert_eq!(stats_text, stats_packed);

        let sets = setsfile::read_node_sets_file(&sets_path).unwrap();
        let (left, right) = (sets[0].name().to_string(), sets[1].name().to_string());
        let join = |graph: &std::path::Path| {
            run(&argv(&[
                "two-way",
                "--graph",
                graph.to_str().unwrap(),
                "--sets",
                sets_path.to_str().unwrap(),
                "--left",
                &left,
                "--right",
                &right,
                "--k",
                "5",
            ]))
            .unwrap()
        };
        assert_eq!(join(&graph_path), join(&packed_path));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_stats_and_join_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("dht-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let sets_path = dir.join("s.tsv");

        let out = run(&argv(&[
            "generate",
            "--dataset",
            "yeast",
            "--scale",
            "tiny",
            "--graph-out",
            graph_path.to_str().unwrap(),
            "--sets-out",
            sets_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("yeast"));

        let stats = run(&argv(&["stats", "--graph", graph_path.to_str().unwrap()])).unwrap();
        assert!(stats.contains("nodes"));

        // Find two set names from the sets file for the join.
        let sets_text = std::fs::read_to_string(&sets_path).unwrap();
        let sets = setsfile::parse_node_sets(&sets_text).unwrap();
        assert!(sets.len() >= 2);
        let left = sets[0].name().to_string();
        let right = sets[1].name().to_string();

        let join = run(&argv(&[
            "two-way",
            "--graph",
            graph_path.to_str().unwrap(),
            "--sets",
            sets_path.to_str().unwrap(),
            "--left",
            &left,
            "--right",
            &right,
            "--k",
            "5",
        ]))
        .unwrap();
        assert!(join.contains("rank"));

        let nway = run(&argv(&[
            "nway",
            "--graph",
            graph_path.to_str().unwrap(),
            "--sets",
            sets_path.to_str().unwrap(),
            "--query",
            "chain",
            "--set",
            &left,
            "--set",
            &right,
            "--k",
            "3",
        ]))
        .unwrap();
        assert!(nway.contains("rank"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
