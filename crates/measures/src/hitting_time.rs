//! The plain truncated hitting time (Sarkar & Moore, UAI 2007), without the
//! discount that defines DHT.
//!
//! The `d`-truncated hitting time of the ordered pair `(u, v)` is the
//! expected number of steps a random walker starting at `u` needs to first
//! reach `v`, where walks that have not arrived after `d` steps are charged
//! the full `d`:
//!
//! ```text
//! ht_d(u, v) = Σ_{i=1..d} i · P_i(u, v) + d · (1 − Σ_{i=1..d} P_i(u, v))
//! ```
//!
//! `ht_d` is a *distance* in `[1, d]` (small is close).  To fit the
//! higher-is-closer convention of [`ProximityMeasure`] it is normalised into
//! the similarity
//!
//! ```text
//! sim_d(u, v) = (d − ht_d(u, v)) / d   ∈ [0, 1 − 1/d]
//! ```
//!
//! The measure shares its first-hit probabilities `P_i(u, v)` with DHT, so
//! the backward bulk computation reuses `dht-walks`.  Comparing it against
//! [`crate::DhtMeasure`] isolates the effect of the discount — one of the
//! claims of the papers the DHT variants come from.

use dht_graph::{Graph, NodeId};
use dht_walks::forward::hitting_probabilities;
use dht_walks::EdgeValues::Probabilities;
use dht_walks::{WalkEngine, WalkScratch};

use crate::measure::ProximityMeasure;
use crate::{MeasureError, Result};

/// Normalised truncated hitting-time similarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedHittingTime {
    depth: usize,
}

impl TruncatedHittingTime {
    /// Creates the measure with truncation depth `depth ≥ 1`.
    pub fn new(depth: usize) -> Result<Self> {
        if depth == 0 {
            return Err(MeasureError::ZeroCount { name: "depth" });
        }
        Ok(TruncatedHittingTime { depth })
    }

    /// The raw truncated hitting time (a distance in `[1, d]`) from the
    /// per-step first-hit probabilities `hits[i-1] = P_i(u, v)`.
    pub fn distance_from_hits(&self, hits: &[f64]) -> f64 {
        let d = self.depth as f64;
        let mut expected = 0.0;
        let mut arrived = 0.0;
        for (i, &p) in hits.iter().take(self.depth).enumerate() {
            expected += (i + 1) as f64 * p;
            arrived += p;
        }
        expected + d * (1.0 - arrived.min(1.0))
    }

    /// Converts a distance in `[1, d]` into the normalised similarity.
    fn similarity(&self, distance: f64) -> f64 {
        (self.depth as f64 - distance) / self.depth as f64
    }
}

impl ProximityMeasure for TruncatedHittingTime {
    fn name(&self) -> &'static str {
        "HT"
    }

    fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        let n = graph.node_count();
        if n == 0 || u.index() >= n || v.index() >= n {
            return 0.0;
        }
        if u == v {
            return self.max_score();
        }
        let hits = hitting_probabilities(graph, u, v, self.depth);
        self.similarity(self.distance_from_hits(&hits))
    }

    /// Similarity column from the backward first-hit probabilities of walks
    /// of length at most `steps`.
    fn column(
        &self,
        graph: &Graph,
        v: NodeId,
        steps: usize,
        engine: WalkEngine,
        scratch: &mut WalkScratch,
    ) -> Vec<f64> {
        let n = graph.node_count();
        let mut out = vec![0.0; n];
        if v.index() >= n {
            return out;
        }
        // `out` collects the arrival probability, `expected` the step count.
        let mut expected = vec![0.0; n];
        scratch.begin(n, [v]);
        for i in 1..=steps.min(self.depth) {
            // From step 2 on the target absorbs: first-hit probabilities.
            scratch.step_backward(graph, v, i > 1, Probabilities, engine);
            scratch.for_each_nonzero(|u, p| {
                expected[u] += i as f64 * p;
                out[u] += p;
            });
        }
        let d = self.depth as f64;
        for (s, &expected) in out.iter_mut().zip(&expected) {
            *s = self.similarity(expected + d * (1.0 - s.min(1.0)));
        }
        // Self-similarity: a walker standing on the target has distance 0.
        out[v.index()] = self.max_score();
        out
    }

    fn min_score(&self) -> f64 {
        0.0
    }

    fn max_score(&self) -> f64 {
        1.0
    }

    fn column_signature(&self) -> Option<u64> {
        Some(dht_walks::cache::custom_column_sig(
            "measure:HT",
            &[self.depth as u64],
        ))
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn tail_bound(&self, l: usize) -> f64 {
        if l >= self.depth {
            return 0.0;
        }
        // A walker that has not arrived within l steps is charged d by the
        // partial score; arriving at step i ∈ (l, d] instead charges i, so the
        // similarity can still rise by at most (d − (l+1)) / d.
        (self.depth - (l + 1)) as f64 / self.depth as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::IterativeMeasure;
    use dht_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n - 1 {
            b.add_unit_edge(NodeId(i as u32), NodeId((i + 1) as u32))
                .unwrap();
        }
        b.build().unwrap()
    }

    fn lollipop() -> Graph {
        // a triangle 0-1-2 (undirected) with a tail 2 -> 3
        let mut b = GraphBuilder::with_nodes(4);
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 2)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.add_unit_edge(NodeId(2), NodeId(3)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn zero_depth_is_rejected() {
        assert!(TruncatedHittingTime::new(0).is_err());
        assert!(TruncatedHittingTime::new(1).is_ok());
    }

    #[test]
    fn deterministic_path_has_exact_hitting_times() {
        // On the directed path 0 -> 1 -> 2 -> 3 the hitting time from node i
        // to node j > i is exactly j - i.
        let g = path(4);
        let m = TruncatedHittingTime::new(10).unwrap();
        for i in 0..4u32 {
            for j in (i + 1)..4u32 {
                let hits = hitting_probabilities(&g, NodeId(i), NodeId(j), 10);
                let dist = m.distance_from_hits(&hits);
                assert!((dist - f64::from(j - i)).abs() < 1e-12);
            }
        }
        // unreachable pairs saturate at d
        let hits = hitting_probabilities(&g, NodeId(3), NodeId(0), 10);
        assert_eq!(m.distance_from_hits(&hits), 10.0);
        assert_eq!(m.score(&g, NodeId(3), NodeId(0)), 0.0);
    }

    #[test]
    fn closer_nodes_score_higher() {
        let g = path(5);
        let m = TruncatedHittingTime::new(8).unwrap();
        let s1 = m.score(&g, NodeId(0), NodeId(1));
        let s3 = m.score(&g, NodeId(0), NodeId(3));
        assert!(s1 > s3);
        assert!(s1 <= m.max_score());
        assert!(s3 >= m.min_score());
    }

    #[test]
    fn bulk_matches_single_pair() {
        let g = lollipop();
        let m = TruncatedHittingTime::new(9).unwrap();
        for v in g.nodes() {
            let column = m.scores_to_target(&g, v);
            for u in g.nodes().filter(|&u| u != v) {
                let single = m.score(&g, u, v);
                assert!(
                    (column[u.index()] - single).abs() < 1e-12,
                    "({u:?},{v:?}): {} vs {}",
                    column[u.index()],
                    single
                );
            }
            assert_eq!(column[v.index()], m.max_score());
        }
    }

    #[test]
    fn partial_plus_tail_bounds_full_score() {
        let g = lollipop();
        let m = TruncatedHittingTime::new(7).unwrap();
        let full = m.scores_to_target(&g, NodeId(3));
        for l in 1..=m.depth() {
            let partial = m.partial_scores_to_target(&g, NodeId(3), l);
            let tail = m.tail_bound(l);
            for u in g.nodes().filter(|&u| u != NodeId(3)) {
                let i = u.index();
                assert!(partial[i] <= full[i] + 1e-12, "partial above full at l={l}");
                assert!(
                    full[i] <= partial[i] + tail + 1e-12,
                    "tail bound violated at l={l}"
                );
            }
        }
        assert_eq!(m.tail_bound(m.depth()), 0.0);
    }

    #[test]
    fn out_of_bounds_nodes_score_zero() {
        let g = path(3);
        let m = TruncatedHittingTime::new(4).unwrap();
        assert_eq!(m.score(&g, NodeId(0), NodeId(7)), 0.0);
        assert_eq!(m.score(&g, NodeId(7), NodeId(0)), 0.0);
    }
}
