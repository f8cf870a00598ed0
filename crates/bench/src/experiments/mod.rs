//! One module per table / figure of the paper's evaluation, plus the
//! `server_overload` hostile-client serving scenario.
//!
//! Every module exposes `run(scale) -> String`, returning the formatted
//! report that the corresponding binary prints.  The reports contain the
//! same rows / series as the paper's artefacts; EXPERIMENTS.md records a
//! side-by-side comparison of the measured shapes against the published
//! ones.

pub mod fig10;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod server_overload;
pub mod table3;
pub mod table4;

use dht_core::multiway::{NWayAlgorithm, NWayConfig};
use dht_core::QueryGraph;
use dht_datasets::Dataset;
use dht_graph::NodeSet;

use crate::timing;

/// Times one n-way join run and returns `(seconds, answers returned)`.
pub(crate) fn time_nway(
    dataset: &Dataset,
    algorithm: NWayAlgorithm,
    config: &NWayConfig,
    query: &QueryGraph,
    sets: &[NodeSet],
) -> (f64, usize) {
    let (out, elapsed) = timing::time(|| {
        algorithm
            .run(&dataset.graph, config, query, sets)
            .expect("experiment query graphs and node sets are valid")
    });
    (elapsed.as_secs_f64(), out.answers.len())
}

/// Builds the query graph with three node sets and the requested number of
/// edges, used by the |E_Q| sweeps of Figures 7(b) and 8(b): 2 edges form a
/// chain, 3 a directed cycle, and 4–6 progressively add the reverse edges
/// until the full bidirectional triangle is reached.
pub(crate) fn three_set_query_with_edges(edges: usize) -> QueryGraph {
    let mut q = QueryGraph::new(3);
    let ordered = [(0usize, 1usize), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)];
    for &(a, b) in ordered.iter().take(edges.clamp(2, 6)) {
        q.add_edge(a, b).expect("hard-coded edges are valid");
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_sweep_query_graphs_have_the_requested_sizes() {
        for edges in 2..=6 {
            let q = three_set_query_with_edges(edges);
            assert_eq!(q.edge_count(), edges);
            assert!(q.is_connected());
        }
        // out-of-range requests are clamped to the connected range
        assert_eq!(three_set_query_with_edges(0).edge_count(), 2);
        assert_eq!(three_set_query_with_edges(10).edge_count(), 6);
    }
}
