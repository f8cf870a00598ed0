//! A PathSim-style normalised walk-count similarity (Sun et al., VLDB 2011),
//! adapted to homogeneous graphs.
//!
//! PathSim is defined on heterogeneous information networks: for a symmetric
//! meta-path `P`,
//!
//! ```text
//! pathsim(u, v) = 2·|{paths u ⇝ v following P}|
//!                 ─────────────────────────────────────────────
//!                 |{paths u ⇝ u following P}| + |{paths v ⇝ v following P}|
//! ```
//!
//! The paper's datasets are homogeneous graphs, so the adaptation here uses
//! "all walks of a fixed length `L`" as the meta-path and *weighted* walk
//! counts (products of edge weights along the walk) as the path count.  For
//! `L = 2` on a co-authorship graph this is the classic "shared co-authors,
//! normalised by productivity" similarity the PathSim paper motivates.
//!
//! The normalisation makes PathSim favour pairs that are not only strongly
//! connected but also *balanced* — a hub is not automatically similar to
//! everything — which is the qualitative difference from DHT/PPR that the
//! measure-comparison example demonstrates.

use dht_graph::{Graph, NodeId};
use dht_walks::EdgeValues::Weights;
use dht_walks::{WalkEngine, WalkScratch};

use crate::measure::ProximityMeasure;
use crate::{MeasureError, Result};

/// Normalised walk-count similarity with a fixed walk length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSim {
    length: usize,
}

impl PathSim {
    /// Creates a PathSim measure counting walks of exactly `length` steps
    /// (`length ≥ 1`).  Even lengths correspond to symmetric meta-paths on
    /// undirected graphs, which is the setting the original definition
    /// assumes; odd lengths are allowed but the self-counts may be zero.
    pub fn new(length: usize) -> Result<Self> {
        if length == 0 {
            return Err(MeasureError::ZeroCount { name: "length" });
        }
        Ok(PathSim { length })
    }

    /// The classic co-occurrence setting: walks of length 2
    /// ("shares a neighbour with").
    pub fn co_occurrence() -> Self {
        PathSim { length: 2 }
    }

    /// The walk length `L`.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Walks `L` weighted backward steps from `target` on the walk kernel:
    /// the result holds every node's weighted count of length-`L` walks
    /// into `target`.
    fn walk_counts<'s>(
        &self,
        graph: &Graph,
        target: NodeId,
        engine: WalkEngine,
        scratch: &'s mut WalkScratch,
    ) -> &'s [f64] {
        scratch.begin(graph.node_count(), [target]);
        for _ in 0..self.length {
            scratch.step_backward(graph, target, false, Weights, engine);
        }
        scratch.current()
    }

    /// The PathSim formula from the walk counts `u ⇝ v`, `u ⇝ u` and
    /// `v ⇝ v`.
    fn normalise(uv: f64, uu: f64, vv: f64) -> f64 {
        let denom = uu + vv;
        if denom <= 0.0 {
            0.0
        } else {
            2.0 * uv / denom
        }
    }
}

impl ProximityMeasure for PathSim {
    fn name(&self) -> &'static str {
        "PathSim"
    }

    fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        let n = graph.node_count();
        if u.index() >= n || v.index() >= n {
            return 0.0;
        }
        if u == v {
            return self.max_score();
        }
        let (engine, scratch) = (WalkEngine::default(), &mut WalkScratch::new());
        let to_v = self.walk_counts(graph, v, engine, scratch);
        let (uv, vv) = (to_v[u.index()], to_v[v.index()]);
        let uu = self.walk_counts(graph, u, engine, scratch)[u.index()];
        Self::normalise(uv, uu, vv)
    }

    fn column(
        &self,
        graph: &Graph,
        v: NodeId,
        _steps: usize,
        engine: WalkEngine,
        scratch: &mut WalkScratch,
    ) -> Vec<f64> {
        let mut out = self.walk_counts(graph, v, engine, scratch).to_vec();
        let Some(&vv) = out.get(v.index()) else {
            return out;
        };
        for (u, uv) in out.iter_mut().enumerate() {
            let uu = self.walk_counts(graph, NodeId(u as u32), engine, scratch)[u];
            *uv = Self::normalise(*uv, uu, vv);
        }
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
            "measure:PathSim",
            &[self.length as u64],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::GraphBuilder;

    /// Authors 0 and 1 co-wrote 2 papers together; author 2 co-wrote 1 paper
    /// with each of them; author 3 is prolific but unrelated to 0.
    fn coauthor_graph() -> Graph {
        let mut b = GraphBuilder::with_nodes(5);
        b.add_undirected_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        b.add_undirected_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        b.add_undirected_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_undirected_edge(NodeId(3), NodeId(4), 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn zero_length_is_rejected() {
        assert!(PathSim::new(0).is_err());
        assert_eq!(PathSim::co_occurrence().length(), 2);
    }

    #[test]
    fn score_is_bounded_and_symmetric_on_undirected_graphs() {
        let g = coauthor_graph();
        let m = PathSim::co_occurrence();
        for u in g.nodes() {
            for v in g.nodes() {
                let s = m.score(&g, u, v);
                assert!((0.0..=1.0 + 1e-12).contains(&s), "score {s} out of range");
                let s_rev = m.score(&g, v, u);
                assert!((s - s_rev).abs() < 1e-12, "asymmetric: {s} vs {s_rev}");
            }
        }
    }

    #[test]
    fn unrelated_components_score_zero() {
        let g = coauthor_graph();
        let m = PathSim::co_occurrence();
        assert_eq!(m.score(&g, NodeId(0), NodeId(3)), 0.0);
        assert_eq!(m.score(&g, NodeId(4), NodeId(2)), 0.0);
    }

    #[test]
    fn shared_neighbours_beat_no_shared_neighbours() {
        let g = coauthor_graph();
        let m = PathSim::co_occurrence();
        // 0 and 1 share co-author 2 (and each other through the weight-2 edge)
        let s01 = m.score(&g, NodeId(0), NodeId(1));
        let s03 = m.score(&g, NodeId(0), NodeId(3));
        assert!(s01 > s03);
        assert!(s01 > 0.0);
    }

    #[test]
    fn bulk_matches_single_pair() {
        let g = coauthor_graph();
        let m = PathSim::co_occurrence();
        for v in g.nodes() {
            let column = m.scores_to_target(&g, v);
            for u in g.nodes() {
                let single = m.score(&g, u, v);
                assert!(
                    (column[u.index()] - single).abs() < 1e-12,
                    "({u:?},{v:?}): {} vs {}",
                    column[u.index()],
                    single
                );
            }
        }
    }

    #[test]
    fn exact_co_occurrence_value() {
        // Unweighted square 0-1-2-3-0: every adjacent pair shares no length-2
        // walk (bipartite), every opposite pair (0,2), (1,3) shares two.
        let mut b = GraphBuilder::with_nodes(4);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let m = PathSim::co_occurrence();
        // walks of length 2 from 0 to 2: via 1 and via 3 → count 2;
        // closed walks at 0 and at 2: each 2 (out and back on either edge).
        let s = m.score(&g, NodeId(0), NodeId(2));
        assert!((s - 2.0 * 2.0 / (2.0 + 2.0)).abs() < 1e-12);
        assert_eq!(m.score(&g, NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn out_of_bounds_and_self_scores() {
        let g = coauthor_graph();
        let m = PathSim::co_occurrence();
        assert_eq!(m.score(&g, NodeId(0), NodeId(42)), 0.0);
        assert_eq!(m.score(&g, NodeId(42), NodeId(0)), 0.0);
        assert_eq!(m.score(&g, NodeId(1), NodeId(1)), 1.0);
        assert!(m.scores_to_target(&g, NodeId(42)).iter().all(|&s| s == 0.0));
    }
}
