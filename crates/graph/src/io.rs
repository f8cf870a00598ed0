//! Plain-text edge-list I/O.
//!
//! The format is intentionally simple and line-oriented so that graphs can be
//! exchanged with other tools and inspected by hand:
//!
//! ```text
//! # comment lines start with '#'
//! # optional header: "nodes <count>"
//! nodes 5
//! 0 1 1.0
//! 0 2 2.5
//! 3 4        # weight defaults to 1.0
//! ```
//!
//! Node ids are dense non-negative integers.  If no `nodes` header is given
//! the node count is inferred as `max id + 1`.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::Result;

/// Parses a graph from an edge-list string.
pub fn parse_edge_list(text: &str) -> Result<Graph> {
    read_edge_list(text.as_bytes())
}

/// Reads a graph in edge-list format from an arbitrary reader.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph> {
    let reader = BufReader::new(reader);
    let mut builder = GraphBuilder::new();
    let mut max_node: Option<u32> = None;
    let mut pending_edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;

    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.map_err(GraphError::Io)?;
        let content = match line.find('#') {
            Some(pos) => &line[..pos],
            None => &line[..],
        };
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let first = parts.next().expect("non-empty line has a first token");
        if first == "nodes" {
            let count = parts.next().ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "missing node count".into(),
            })?;
            let count: usize = count.parse().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid node count '{count}'"),
            })?;
            declared_nodes = Some(count);
            continue;
        }
        let from: u32 = first.parse().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid source node '{first}'"),
        })?;
        let to_tok = parts.next().ok_or_else(|| GraphError::Parse {
            line: lineno,
            message: "missing target node".into(),
        })?;
        let to: u32 = to_tok.parse().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid target node '{to_tok}'"),
        })?;
        let weight = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid weight '{tok}'"),
            })?,
            None => 1.0,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                message: "trailing tokens after weight".into(),
            });
        }
        max_node = Some(max_node.map_or(from.max(to), |m| m.max(from).max(to)));
        pending_edges.push((from, to, weight));
    }

    let node_count = declared_nodes.unwrap_or_else(|| max_node.map_or(0, |m| m as usize + 1));
    builder.ensure_nodes(node_count);
    for (from, to, w) in pending_edges {
        builder.add_edge(NodeId(from), NodeId(to), w)?;
    }
    builder.build()
}

/// Reads a graph from a file in edge-list format.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<Graph> {
    let file = File::open(path)?;
    read_edge_list(file)
}

/// Reads a graph from a file in either supported on-disk format, sniffing
/// the first bytes: files that start with the [`crate::binfmt::MAGIC`]
/// container magic stream straight into their CSR arrays
/// ([`crate::binfmt::read_graph_file`]), everything else is
/// parsed as a text edge list.  This is what every `--graph` flag funnels
/// through, so `.dht` containers are accepted transparently wherever a
/// text graph is.
pub fn read_graph_file_auto(path: impl AsRef<Path>) -> Result<Graph> {
    let path = path.as_ref();
    if crate::binfmt::is_binary_graph_file(path) {
        crate::binfmt::read_graph_file(path)
    } else {
        read_edge_list_file(path)
    }
}

/// Serialises a graph to edge-list text.
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("nodes {}\n", graph.node_count()));
    for (u, v, w) in graph.edges() {
        out.push_str(&format!("{} {} {}\n", u.0, v.0, w));
    }
    out
}

/// Writes a graph to a writer in edge-list format.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<()> {
    let mut writer = BufWriter::new(writer);
    writer.write_all(to_edge_list(graph).as_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Writes a graph to a file in edge-list format.
pub fn write_edge_list_file(graph: &Graph, path: impl AsRef<Path>) -> Result<()> {
    let file = File::create(path)?;
    write_edge_list(graph, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn parse_simple_edge_list() {
        let text = "# a comment\nnodes 4\n0 1 2.0\n1 2\n3 0 0.5 # inline comment\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(2.0));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(1.0));
        assert_eq!(g.edge_weight(NodeId(3), NodeId(0)), Some(0.5));
    }

    #[test]
    fn node_count_inferred_without_header() {
        let g = parse_edge_list("0 5\n").unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn parse_errors_report_line_numbers() {
        let err = parse_edge_list("0 1\nbogus 2\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_target_is_an_error() {
        assert!(parse_edge_list("3\n").is_err());
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        assert!(parse_edge_list("0 1 1.0 extra\n").is_err());
    }

    #[test]
    fn round_trip_preserves_structure() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 1.5).unwrap();
        let g = b.build().unwrap();
        let text = to_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.edge_weight(NodeId(2), NodeId(0)), Some(1.5));
    }

    #[test]
    fn auto_reader_dispatches_on_magic() {
        let dir = std::env::temp_dir().join(format!("dht-io-auto-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();

        let text_path = dir.join("g.tsv");
        write_edge_list_file(&g, &text_path).unwrap();
        let binary_path = dir.join("g.dht");
        crate::binfmt::write_graph_file(&g, &binary_path).unwrap();

        let from_text = read_graph_file_auto(&text_path).unwrap();
        let from_binary = read_graph_file_auto(&binary_path).unwrap();
        assert_eq!(from_text.edge_count(), from_binary.edge_count());
        assert_eq!(from_text.forward_csr(), from_binary.forward_csr());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dht_graph_io_test_{}.txt", std::process::id()));
        let mut b = GraphBuilder::with_nodes(2);
        b.add_unit_edge(NodeId(0), NodeId(1)).unwrap();
        let g = b.build().unwrap();
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g2.edge_count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
