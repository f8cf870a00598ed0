//! Error type shared by the measure constructors and solvers.

use std::fmt;

/// Errors produced when configuring or evaluating a proximity measure.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// A probability-like parameter fell outside its valid open interval.
    ParameterOutOfRange {
        /// Parameter name (e.g. "damping", "decay").
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable valid range (e.g. "(0, 1)").
        range: &'static str,
    },
    /// A count-like parameter (depth, iterations, walks, path length) must be
    /// at least one.
    ZeroCount {
        /// Parameter name.
        name: &'static str,
    },
    /// A dense solver was asked to run on a graph larger than its configured
    /// node limit (the limit protects against accidental O(n²) blow-ups).
    GraphTooLarge {
        /// Number of nodes in the offending graph.
        nodes: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::ParameterOutOfRange { name, value, range } => {
                write!(f, "parameter `{name}` must lie in {range}, got {value}")
            }
            MeasureError::ZeroCount { name } => {
                write!(f, "parameter `{name}` must be at least 1")
            }
            MeasureError::GraphTooLarge { nodes, limit } => write!(
                f,
                "graph has {nodes} nodes but the dense solver is limited to {limit}; \
                 raise the limit explicitly or use the Monte-Carlo estimator"
            ),
        }
    }
}

impl std::error::Error for MeasureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameter_names() {
        let e = MeasureError::ParameterOutOfRange {
            name: "damping",
            value: 1.5,
            range: "(0, 1)",
        };
        assert!(e.to_string().contains("damping"));
        assert!(e.to_string().contains("1.5"));
        assert!(MeasureError::ZeroCount { name: "depth" }
            .to_string()
            .contains("depth"));
        assert!(MeasureError::GraphTooLarge {
            nodes: 10,
            limit: 5
        }
        .to_string()
        .contains("10"));
    }
}
