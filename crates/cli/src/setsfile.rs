//! The node-set file format used by the CLI.
//!
//! One node set per line: the set name followed by whitespace-separated node
//! ids.  Lines may be continued by repeating the name.  `#` starts a comment.
//!
//! ```text
//! # research areas
//! DB   0 4 17 23
//! AI   1 5 9
//! SYS  2 7
//! DB   42          # appended to the DB set
//! ```

use std::fs;
use std::path::Path;

use dht_graph::{Graph, NodeId, NodeSet};

use crate::{CliError, Result};

/// Parses node sets from the text format described in the module docs.
pub fn parse_node_sets(text: &str) -> Result<Vec<NodeSet>> {
    let mut order: Vec<String> = Vec::new();
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("non-empty line has a name").to_string();
        let idx = match order.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                order.push(name.clone());
                members.push(Vec::new());
                order.len() - 1
            }
        };
        for token in parts {
            let id: u32 = token.parse().map_err(|_| {
                CliError::Parse(format!(
                    "sets file line {lineno}: invalid node id '{token}'"
                ))
            })?;
            members[idx].push(NodeId(id));
        }
    }
    Ok(order
        .into_iter()
        .zip(members)
        .map(|(name, ids)| NodeSet::new(name, ids))
        .collect())
}

/// Reads node sets from a file.
pub fn read_node_sets_file(path: impl AsRef<Path>) -> Result<Vec<NodeSet>> {
    let text = fs::read_to_string(path.as_ref()).map_err(|e| {
        CliError::Io(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", path.as_ref().display()),
        ))
    })?;
    parse_node_sets(&text)
}

/// Reads node sets from a file and checks every set against the graph they
/// will be joined on, so an out-of-range id is a typed error naming the set,
/// the id and the node count rather than a panic deep inside a join.
pub fn read_node_sets_for(path: impl AsRef<Path>, graph: &Graph) -> Result<Vec<NodeSet>> {
    let sets = read_node_sets_file(path)?;
    for set in &sets {
        graph.check_node_set(set)?;
    }
    Ok(sets)
}

/// Serialises node sets into the text format (stable ordering).
pub fn to_sets_text(sets: &[NodeSet]) -> String {
    let mut out = String::new();
    out.push_str("# node sets: <name> <id> <id> ...\n");
    for set in sets {
        out.push_str(set.name());
        for node in set.iter() {
            out.push(' ');
            out.push_str(&node.0.to_string());
        }
        out.push('\n');
    }
    out
}

/// Writes node sets to a file.
pub fn write_node_sets_file(sets: &[NodeSet], path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, to_sets_text(sets)).map_err(CliError::Io)
}

/// Finds a set by name, with an error listing the available names.
pub fn find_set<'a>(sets: &'a [NodeSet], name: &str) -> Result<&'a NodeSet> {
    sets.iter().find(|s| s.name() == name).ok_or_else(|| {
        let available: Vec<&str> = sets.iter().map(|s| s.name()).collect();
        CliError::NotFound(format!(
            "node set '{name}' not found; available sets: {}",
            available.join(", ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sets_with_comments_and_continuations() {
        let text = "# areas\nDB 0 4 17\nAI 1 5\nDB 23 # appended\n\nSYS 2\n";
        let sets = parse_node_sets(text).unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].name(), "DB");
        assert_eq!(
            sets[0].members(),
            &[NodeId(0), NodeId(4), NodeId(17), NodeId(23)]
        );
        assert_eq!(sets[1].len(), 2);
        assert_eq!(sets[2].name(), "SYS");
    }

    #[test]
    fn invalid_ids_are_rejected_with_line_numbers() {
        let err = parse_node_sets("DB 0 x 2\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(err.to_string().contains('x'));
    }

    #[test]
    fn a_set_line_with_no_ids_creates_an_empty_set() {
        let sets = parse_node_sets("LONELY\n").unwrap();
        assert_eq!(sets.len(), 1);
        assert!(sets[0].is_empty());
    }

    #[test]
    fn round_trip_through_text() {
        let sets = vec![
            NodeSet::new("A", [NodeId(3), NodeId(1)]),
            NodeSet::new("B", [NodeId(2)]),
        ];
        let text = to_sets_text(&sets);
        let parsed = parse_node_sets(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].members(), sets[0].members());
        assert_eq!(parsed[1].name(), "B");
    }

    #[test]
    fn find_set_reports_available_names() {
        let sets = vec![
            NodeSet::new("A", [NodeId(0)]),
            NodeSet::new("B", [NodeId(1)]),
        ];
        assert_eq!(find_set(&sets, "B").unwrap().name(), "B");
        let err = find_set(&sets, "C").unwrap_err();
        assert!(err.to_string().contains("available sets: A, B"));
    }
}
