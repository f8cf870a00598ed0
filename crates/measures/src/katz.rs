//! The (truncated) Katz index (Katz, Psychometrika 1953).
//!
//! The Katz index scores a pair by the weighted number of walks of every
//! length between them, discounted geometrically:
//!
//! ```text
//! katz(u, v) = Σ_{i ≥ 1} β^i · walks_i(u, v)
//! ```
//!
//! where `walks_i(u, v)` counts the length-`i` walks from `u` to `v`
//! (weighted by the product of edge weights along each walk).  It is the
//! classical link-prediction baseline of Liben-Nowell & Kleinberg — the very
//! reference the paper cites when motivating hitting-time measures — and it
//! differs from DHT in two ways: it counts *all* walks rather than first
//! hits, and it uses raw walk counts rather than transition probabilities.
//!
//! As with the other series measures, the sum is truncated at a depth `d`.
//! With probability-normalised counts ([`KatzMode::Transition`]) the tail is
//! bounded by a geometric series, which the pruned join prunes with.  With
//! raw weighted counts ([`KatzMode::Weighted`]) the series may diverge: the
//! tail bound is infinite, so pruning never fires.

use dht_graph::{Graph, NodeId};
use dht_walks::{EdgeValues, WalkEngine, WalkScratch};

use crate::measure::ProximityMeasure;
use crate::{MeasureError, Result};

/// How walks are counted by the Katz index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KatzMode {
    /// Walks weighted by the product of transition probabilities
    /// (`Σ β^i · P^i(u,v)`): bounded by `β^{i}`, tail-boundable, and
    /// comparable to PPR without its restart normalisation.
    Transition,
    /// Walks weighted by the product of raw edge weights
    /// (`Σ β^i · A^i(u,v)`): the textbook Katz index.  The caller must pick
    /// `β` below the reciprocal spectral radius for the untruncated series to
    /// converge; the truncated value is always finite.
    Weighted,
}

/// Truncated Katz index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KatzIndex {
    beta: f64,
    depth: usize,
    mode: KatzMode,
}

impl KatzIndex {
    /// Creates a truncated Katz index with attenuation `β ∈ (0, 1)`, walk
    /// depth `depth ≥ 1`, and the given counting mode.
    pub fn new(beta: f64, depth: usize, mode: KatzMode) -> Result<Self> {
        if beta <= 0.0 || beta >= 1.0 || !beta.is_finite() {
            return Err(MeasureError::ParameterOutOfRange {
                name: "beta",
                value: beta,
                range: "(0, 1)",
            });
        }
        if depth == 0 {
            return Err(MeasureError::ZeroCount { name: "depth" });
        }
        Ok(KatzIndex { beta, depth, mode })
    }

    /// The classical link-prediction configuration: transition-normalised
    /// counts, `β = 0.05`, depth 6.
    pub fn link_prediction_default() -> Self {
        KatzIndex {
            beta: 0.05,
            depth: 6,
            mode: KatzMode::Transition,
        }
    }

    /// The attenuation factor `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The counting mode.
    pub fn mode(&self) -> KatzMode {
        self.mode
    }
}

impl ProximityMeasure for KatzIndex {
    fn name(&self) -> &'static str {
        match self.mode {
            KatzMode::Transition => "Katz",
            KatzMode::Weighted => "Katz-w",
        }
    }

    fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        let column = self.scores_to_target(graph, v);
        column.get(u.index()).copied().unwrap_or(0.0)
    }

    fn column(
        &self,
        graph: &Graph,
        v: NodeId,
        steps: usize,
        engine: WalkEngine,
        scratch: &mut WalkScratch,
    ) -> Vec<f64> {
        let mut out = vec![0.0; graph.node_count()];
        let values = match self.mode {
            KatzMode::Transition => EdgeValues::Probabilities,
            KatzMode::Weighted => EdgeValues::Weights,
        };
        let mut discount = 1.0;
        scratch.begin(graph.node_count(), [v]);
        for _ in 0..steps.min(self.depth) {
            scratch.step_backward(graph, v, false, values, engine);
            discount *= self.beta;
            scratch.for_each_nonzero(|u, w| out[u] += discount * w);
        }
        out
    }

    fn min_score(&self) -> f64 {
        0.0
    }

    fn max_score(&self) -> f64 {
        match self.mode {
            // Σ β^i with every walk probability 1.
            KatzMode::Transition => {
                self.beta * (1.0 - self.beta.powi(self.depth as i32)) / (1.0 - self.beta)
            }
            KatzMode::Weighted => f64::INFINITY,
        }
    }

    fn column_signature(&self) -> Option<u64> {
        let mode = match self.mode {
            KatzMode::Transition => 0u64,
            KatzMode::Weighted => 1u64,
        };
        Some(dht_walks::cache::custom_column_sig(
            "measure:Katz",
            &[self.beta.to_bits(), self.depth as u64, mode],
        ))
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn tail_bound(&self, l: usize) -> f64 {
        if l >= self.depth {
            return 0.0;
        }
        match self.mode {
            // Σ_{i=l+1..d} β^i · P^i ≤ Σ_{i=l+1..d} β^i (each P^i ≤ 1).
            KatzMode::Transition => {
                self.beta.powi(l as i32 + 1) * (1.0 - self.beta.powi((self.depth - l) as i32))
                    / (1.0 - self.beta)
            }
            // Weighted walk counts are unbounded; an infinite bound disables
            // pruning but keeps the pruned join correct.
            KatzMode::Weighted => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::IterativeMeasure;
    use crate::MeasureSource;
    use dht_core::twoway::{bbj, bidj};
    use dht_core::QueryCtx;
    use dht_graph::{GraphBuilder, NodeSet};

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n - 1 {
            b.add_unit_edge(NodeId(i as u32), NodeId((i + 1) as u32))
                .unwrap();
        }
        b.build().unwrap()
    }

    fn two_triangles_with_bridge() -> Graph {
        let mut b = GraphBuilder::with_nodes(6);
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(KatzIndex::new(0.0, 5, KatzMode::Transition).is_err());
        assert!(KatzIndex::new(1.0, 5, KatzMode::Transition).is_err());
        assert!(KatzIndex::new(0.1, 0, KatzMode::Weighted).is_err());
        assert!(KatzIndex::new(0.1, 5, KatzMode::Weighted).is_ok());
    }

    #[test]
    fn directed_path_has_exact_katz_scores() {
        // On the directed path there is exactly one walk of length j-i from
        // node i to node j, so katz(i, j) = β^(j-i) in both modes.
        let g = path(5);
        for mode in [KatzMode::Transition, KatzMode::Weighted] {
            let m = KatzIndex::new(0.3, 8, mode).unwrap();
            for i in 0..5u32 {
                for j in (i + 1)..5u32 {
                    let expected = 0.3f64.powi((j - i) as i32);
                    let s = m.score(&g, NodeId(i), NodeId(j));
                    assert!(
                        (s - expected).abs() < 1e-12,
                        "{mode:?} ({i},{j}): {s} vs {expected}"
                    );
                    // nothing flows against the edge direction
                    assert_eq!(m.score(&g, NodeId(j), NodeId(i)), 0.0);
                }
            }
        }
    }

    #[test]
    fn weighted_mode_scales_with_edge_weights() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(NodeId(0), NodeId(1), 4.0).unwrap();
        let g = b.build().unwrap();
        let weighted = KatzIndex::new(0.2, 4, KatzMode::Weighted).unwrap();
        let transition = KatzIndex::new(0.2, 4, KatzMode::Transition).unwrap();
        assert!((weighted.score(&g, NodeId(0), NodeId(1)) - 0.2 * 4.0).abs() < 1e-12);
        assert!((transition.score(&g, NodeId(0), NodeId(1)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn closer_pairs_score_higher_within_a_community() {
        let g = two_triangles_with_bridge();
        let m = KatzIndex::link_prediction_default();
        // 0 and 1 share a triangle; 0 and 5 are in different triangles.
        assert!(m.score(&g, NodeId(0), NodeId(1)) > m.score(&g, NodeId(0), NodeId(5)));
    }

    #[test]
    fn bulk_matches_single_pair_and_respects_bounds() {
        let g = two_triangles_with_bridge();
        let m = KatzIndex::new(0.2, 6, KatzMode::Transition).unwrap();
        for v in g.nodes() {
            let column = m.scores_to_target(&g, v);
            for u in g.nodes() {
                let single = m.score(&g, u, v);
                assert!((column[u.index()] - single).abs() < 1e-12);
                assert!(single >= m.min_score());
                assert!(single <= m.max_score() + 1e-12);
            }
        }
    }

    #[test]
    fn partial_plus_tail_bounds_full_score() {
        let g = two_triangles_with_bridge();
        let m = KatzIndex::new(0.4, 7, KatzMode::Transition).unwrap();
        let full = m.scores_to_target(&g, NodeId(4));
        for l in 1..=m.depth() {
            let partial = m.partial_scores_to_target(&g, NodeId(4), l);
            let tail = m.tail_bound(l);
            for u in g.nodes() {
                let i = u.index();
                assert!(partial[i] <= full[i] + 1e-12);
                assert!(full[i] <= partial[i] + tail + 1e-12);
            }
        }
        assert_eq!(m.tail_bound(m.depth()), 0.0);
    }

    #[test]
    fn pruned_join_agrees_with_basic_join_even_in_weighted_mode() {
        let g = two_triangles_with_bridge();
        let p = NodeSet::new("P", (0..3).map(NodeId));
        let q = NodeSet::new("Q", (3..6).map(NodeId));
        for mode in [KatzMode::Transition, KatzMode::Weighted] {
            let m = KatzIndex::new(0.3, 6, mode).unwrap();
            let (source, ctx) = (
                MeasureSource::new(&m, WalkEngine::default(), 1),
                &mut QueryCtx::one_shot(),
            );
            let basic = bbj::top_k(&g, &source, &p, &q, 4, ctx);
            let pruned = bidj::top_k_x(&g, &source, &p, &q, 4, ctx);
            assert_eq!(basic.pairs, pruned.pairs, "{mode:?}");
        }
    }
}
