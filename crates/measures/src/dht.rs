//! The paper's own DHT exposed through the [`ProximityMeasure`] traits.
//!
//! This adapter lets the joins over a [`crate::MeasureSource`] and the
//! comparison experiments treat DHT, Personalized PageRank, SimRank, … uniformly.  It
//! delegates to the walk engines of `dht-walks`, so the scores are exactly
//! the ones the dedicated join algorithms in `dht-core` compute.

use dht_graph::{Graph, NodeId};
use dht_walks::backward::backward_dht_into;
use dht_walks::forward::forward_dht;
use dht_walks::{DhtParams, WalkEngine, WalkScratch};

use crate::measure::ProximityMeasure;
use crate::{MeasureError, Result};

/// Truncated discounted hitting time `h_d(u, v)` as a [`ProximityMeasure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhtMeasure {
    params: DhtParams,
    depth: usize,
}

impl DhtMeasure {
    /// Creates a DHT measure with explicit parameters and truncation depth.
    pub fn new(params: DhtParams, depth: usize) -> Result<Self> {
        if depth == 0 {
            return Err(MeasureError::ZeroCount { name: "depth" });
        }
        Ok(DhtMeasure { params, depth })
    }

    /// The paper's experimental default: `DHT_λ` with `λ = 0.2`, `ε = 10⁻⁶`
    /// (depth 8).
    pub fn paper_default() -> Self {
        let params = DhtParams::paper_default();
        let depth = params
            .depth_for_epsilon(1e-6)
            .expect("1e-6 is a valid epsilon");
        DhtMeasure { params, depth }
    }

    /// The underlying general-form parameters.
    pub fn params(&self) -> &DhtParams {
        &self.params
    }
}

impl ProximityMeasure for DhtMeasure {
    fn name(&self) -> &'static str {
        "DHT"
    }

    fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        forward_dht(graph, &self.params, u, v, self.depth)
    }

    fn column(
        &self,
        graph: &Graph,
        v: NodeId,
        steps: usize,
        engine: WalkEngine,
        scratch: &mut WalkScratch,
    ) -> Vec<f64> {
        let (d, mut out) = (steps.clamp(1, self.depth), Vec::new());
        backward_dht_into(graph, &self.params, v, d, engine, scratch, &mut out);
        out
    }

    fn min_score(&self) -> f64 {
        self.params.min_score()
    }

    fn max_score(&self) -> f64 {
        self.params.max_score()
    }

    fn column_signature(&self) -> Option<u64> {
        Some(dht_walks::cache::custom_column_sig(
            "measure:DHT",
            &[
                self.params.alpha.to_bits(),
                self.params.beta.to_bits(),
                self.params.lambda.to_bits(),
                self.depth as u64,
            ],
        ))
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn tail_bound(&self, l: usize) -> f64 {
        if l >= self.depth {
            0.0
        } else {
            // X_l⁺ of Lemma 2, capped at the truncated tail (steps l+1..d).
            self.params.tail_bound(l) - self.params.tail_bound(self.depth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::IterativeMeasure;
    use dht_graph::GraphBuilder;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::with_nodes(5);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn rejects_zero_depth() {
        assert_eq!(
            DhtMeasure::new(DhtParams::paper_default(), 0).unwrap_err(),
            MeasureError::ZeroCount { name: "depth" }
        );
    }

    #[test]
    fn paper_default_depth_is_eight() {
        let m = DhtMeasure::paper_default();
        assert_eq!(m.depth(), 8);
        assert_eq!(m.name(), "DHT");
    }

    #[test]
    fn bulk_scores_match_single_pair_scores() {
        let g = small_graph();
        let m = DhtMeasure::paper_default();
        let column = m.scores_to_target(&g, NodeId(3));
        for u in g.nodes().filter(|&u| u != NodeId(3)) {
            let single = m.score(&g, u, NodeId(3));
            assert!(
                (column[u.index()] - single).abs() < 1e-12,
                "node {u:?}: bulk {} vs single {}",
                column[u.index()],
                single
            );
        }
    }

    #[test]
    fn partial_plus_tail_bounds_full_score() {
        let g = small_graph();
        let m = DhtMeasure::paper_default();
        let full = m.scores_to_target(&g, NodeId(2));
        for l in 1..=m.depth() {
            let partial = m.partial_scores_to_target(&g, NodeId(2), l);
            let tail = m.tail_bound(l);
            assert!(tail >= 0.0);
            for u in g.nodes().filter(|&u| u != NodeId(2)) {
                let i = u.index();
                assert!(
                    partial[i] <= full[i] + 1e-12,
                    "partial exceeds full at l={l}"
                );
                assert!(
                    full[i] <= partial[i] + tail + 1e-12,
                    "tail bound violated at l={l}"
                );
            }
        }
        assert_eq!(m.tail_bound(m.depth()), 0.0);
        assert_eq!(m.tail_bound(m.depth() + 3), 0.0);
    }

    #[test]
    fn tail_bound_is_non_increasing() {
        let m = DhtMeasure::paper_default();
        for l in 0..m.depth() {
            assert!(m.tail_bound(l) >= m.tail_bound(l + 1) - 1e-15);
        }
    }

    #[test]
    fn score_range_is_respected() {
        let g = small_graph();
        let m = DhtMeasure::paper_default();
        for u in g.nodes() {
            for v in g.nodes().filter(|&v| v != u) {
                let s = m.score(&g, u, v);
                assert!(s >= m.min_score() - 1e-12);
                assert!(s <= m.max_score() + 1e-12);
            }
        }
    }
}
