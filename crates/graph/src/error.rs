//! Error type for graph construction and I/O.

use std::fmt;
use std::io;

/// Errors produced by graph construction, validation and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node id that is not part of the graph being
    /// built.
    InvalidNode {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// A node set names a node id the graph it was loaded for does not
    /// have.
    NodeSetOutOfRange {
        /// Name of the offending set.
        set: String,
        /// The first out-of-range member.
        node: u32,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// An edge weight was not a finite, strictly positive number.
    InvalidWeight {
        /// Source node of the edge.
        from: u32,
        /// Target node of the edge.
        to: u32,
        /// The offending weight.
        weight: f64,
    },
    /// A text edge-list line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A binary graph file ended before the declared payload was complete.
    Truncated {
        /// Bytes the header (or magic/version prelude) promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A binary graph file failed structural validation: bad magic,
    /// checksum mismatch, non-monotone offsets, out-of-range neighbour ids,
    /// or an inconsistent labels blob.
    Corrupt {
        /// Human-readable description of the violated invariant.
        message: String,
    },
    /// A binary graph file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// Underlying I/O failure while reading or writing a graph file.
    Io(io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode { node, node_count } => {
                write!(
                    f,
                    "node id {node} is out of range for a graph with {node_count} nodes"
                )
            }
            GraphError::NodeSetOutOfRange {
                set,
                node,
                node_count,
            } => write!(
                f,
                "node set '{set}' holds node id {node}, but the graph has only \
                 {node_count} nodes"
            ),
            GraphError::InvalidWeight { from, to, weight } => {
                write!(f, "edge ({from}, {to}) has invalid weight {weight}; weights must be finite and > 0")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated binary graph file: expected {expected} bytes, found {actual}"
                )
            }
            GraphError::Corrupt { message } => {
                write!(f, "corrupt binary graph file: {message}")
            }
            GraphError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "binary graph format version {found} is not supported (this build reads version {supported})"
                )
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(value: io::Error) -> Self {
        GraphError::Io(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::InvalidNode {
            node: 9,
            node_count: 3,
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("3"));

        let e = GraphError::NodeSetOutOfRange {
            set: "DB".into(),
            node: 99,
            node_count: 4,
        };
        assert!(e.to_string().contains("'DB'"));
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("4 nodes"));

        let e = GraphError::InvalidWeight {
            from: 1,
            to: 2,
            weight: -1.0,
        };
        assert!(e.to_string().contains("-1"));

        let e = GraphError::Parse {
            line: 4,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 4"));

        let e = GraphError::Truncated {
            expected: 128,
            actual: 64,
        };
        assert!(e.to_string().contains("128"));
        assert!(e.to_string().contains("64"));

        let e = GraphError::Corrupt {
            message: "offsets not monotone".into(),
        };
        assert!(e.to_string().contains("offsets not monotone"));

        let e = GraphError::VersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
    }

    #[test]
    fn io_error_is_wrapped_with_source() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "missing");
        let e: GraphError = inner.into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
