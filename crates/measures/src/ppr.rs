//! Truncated Personalized PageRank (Jeh & Widom, WWW 2003).
//!
//! The personalized PageRank of target `v` with respect to source `u` and
//! damping (restart) probability `c ∈ (0, 1)` is
//!
//! ```text
//! ppr(u, v) = (1 − c) · Σ_{i ≥ 0} c^i · W_i(u, v)
//! ```
//!
//! where `W_i(u, v)` is the probability that an `i`-step random walk from `u`
//! is at `v` (a *visit* probability, not a first-hit probability — this is
//! the structural difference from DHT).  As with DHT, the series is truncated
//! at a depth `d`; the tail beyond `d` is at most `c^{d+1}`, which plays the
//! role of the paper's `X_l⁺` bound and lets the generic iterative-deepening
//! join prune targets.
//!
//! Two evaluation directions are provided, mirroring the paper's
//! forward/backward split:
//!
//! * [`PersonalizedPageRank::score`] runs a forward power iteration from the
//!   source (`O(d·|E|)` per source);
//! * [`PersonalizedPageRank::scores_to_target`] computes the whole column
//!   `ppr(·, v)` with one backward sweep (`O(d·|E|)` per **target**) — the
//!   bulk operation that makes B-BJ fast.
//!
//! Both run on the walk kernel of `dht-walks`.

use dht_graph::{Graph, NodeId};
use dht_walks::EdgeValues::Probabilities;
use dht_walks::{WalkEngine, WalkScratch};

use crate::measure::ProximityMeasure;
use crate::{MeasureError, Result};

/// Truncated Personalized PageRank similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonalizedPageRank {
    damping: f64,
    depth: usize,
}

impl PersonalizedPageRank {
    /// Creates a PPR measure with walk-continuation probability `damping`
    /// (often written `c`; the restart probability is `1 − c`) and truncation
    /// depth `depth`.
    pub fn new(damping: f64, depth: usize) -> Result<Self> {
        if damping <= 0.0 || damping >= 1.0 || !damping.is_finite() {
            return Err(MeasureError::ParameterOutOfRange {
                name: "damping",
                value: damping,
                range: "(0, 1)",
            });
        }
        if depth == 0 {
            return Err(MeasureError::ZeroCount { name: "depth" });
        }
        Ok(PersonalizedPageRank { damping, depth })
    }

    /// The common default: damping `0.85`, depth chosen so the ignored tail
    /// is below `ε = 10⁻⁶` (`c^{d+1} ≤ ε`).
    pub fn default_web() -> Self {
        Self::with_epsilon(0.85, 1e-6).expect("default parameters are valid")
    }

    /// Chooses the smallest depth such that the truncated tail `c^{d+1}` is
    /// at most `epsilon`, mirroring Lemma 1 of the paper.
    pub fn with_epsilon(damping: f64, epsilon: f64) -> Result<Self> {
        if epsilon.is_nan() || epsilon <= 0.0 {
            return Err(MeasureError::ParameterOutOfRange {
                name: "epsilon",
                value: epsilon,
                range: "(0, ∞)",
            });
        }
        // smallest d with c^{d+1} <= eps  ⇔  d >= ln(eps)/ln(c) − 1
        let mut probe = Self::new(damping, 1)?;
        if epsilon >= 1.0 {
            return Ok(probe);
        }
        let d = (epsilon.ln() / damping.ln() - 1.0).ceil().max(1.0) as usize;
        probe.depth = d;
        Ok(probe)
    }

    /// The walk-continuation probability `c`.
    pub fn damping(&self) -> f64 {
        self.damping
    }
}

impl ProximityMeasure for PersonalizedPageRank {
    fn name(&self) -> &'static str {
        "PPR"
    }

    /// A forward walk from `u` on the walk kernel, reading the visit
    /// probability of `v` after every step.
    fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        let n = graph.node_count();
        if n == 0 || u.index() >= n || v.index() >= n {
            return 0.0;
        }
        let restart = 1.0 - self.damping;
        let mut score = if u == v { restart } else { 0.0 };
        let mut discount = restart;
        let mut walk = WalkScratch::new();
        walk.begin(n, [u]);
        for _ in 1..=self.depth {
            walk.step_forward(graph, WalkEngine::default());
            discount *= self.damping;
            score += discount * walk.current()[v.index()];
        }
        score
    }

    /// Visit probabilities `W_i(u, v)` folded into the truncated PPR score
    /// of every source `u`, using walks of length at most `steps`.
    fn column(
        &self,
        graph: &Graph,
        v: NodeId,
        steps: usize,
        engine: WalkEngine,
        scratch: &mut WalkScratch,
    ) -> Vec<f64> {
        let mut out = vec![0.0; graph.node_count()];
        let Some(at_target) = out.get_mut(v.index()) else {
            return out;
        };
        // i = 0 term: W_0(u, v) = 1 iff u == v.
        let restart = 1.0 - self.damping;
        *at_target = restart;
        let mut discount = restart;
        scratch.begin(graph.node_count(), [v]);
        for _ in 0..steps.min(self.depth) {
            scratch.step_backward(graph, v, false, Probabilities, engine);
            discount *= self.damping;
            scratch.for_each_nonzero(|u, w| out[u] += discount * w);
        }
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
            "measure:PPR",
            &[self.damping.to_bits(), self.depth as u64],
        ))
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn tail_bound(&self, l: usize) -> f64 {
        if l >= self.depth {
            0.0
        } else {
            // (1-c)·Σ_{i=l+1..d} c^i ≤ c^{l+1} − c^{d+1}
            self.damping.powi(l as i32 + 1) - self.damping.powi(self.depth as i32 + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::IterativeMeasure;
    use dht_graph::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n {
            b.add_unit_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32))
                .unwrap();
        }
        b.build().unwrap()
    }

    fn clique(n: usize) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b.add_unit_edge(NodeId(i as u32), NodeId(j as u32)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(PersonalizedPageRank::new(0.0, 8).is_err());
        assert!(PersonalizedPageRank::new(1.0, 8).is_err());
        assert!(PersonalizedPageRank::new(f64::NAN, 8).is_err());
        assert!(PersonalizedPageRank::new(0.5, 0).is_err());
        assert!(PersonalizedPageRank::with_epsilon(0.5, 0.0).is_err());
        assert!(PersonalizedPageRank::new(0.85, 20).is_ok());
    }

    #[test]
    fn epsilon_picks_sufficient_depth() {
        let m = PersonalizedPageRank::with_epsilon(0.5, 1e-3).unwrap();
        assert!(0.5f64.powi(m.depth() as i32 + 1) <= 1e-3);
        // one step less would not have sufficed
        assert!(0.5f64.powi(m.depth() as i32) > 1e-3);
        // a huge epsilon still keeps one step
        assert_eq!(
            PersonalizedPageRank::with_epsilon(0.5, 2.0)
                .unwrap()
                .depth(),
            1
        );
    }

    #[test]
    fn forward_and_backward_agree() {
        let g = cycle(6);
        let m = PersonalizedPageRank::new(0.8, 10).unwrap();
        for v in g.nodes() {
            let column = m.scores_to_target(&g, v);
            for u in g.nodes() {
                let single = m.score(&g, u, v);
                assert!(
                    (column[u.index()] - single).abs() < 1e-12,
                    "({u:?},{v:?}): column {} vs forward {}",
                    column[u.index()],
                    single
                );
            }
        }
    }

    #[test]
    fn scores_sum_to_at_most_one_per_source() {
        // In a graph with no dangling nodes, Σ_v ppr_d(u, v) = 1 − c^{d+1}
        // exactly, for every source u.
        let g = clique(5);
        let m = PersonalizedPageRank::new(0.85, 12).unwrap();
        let expected = 1.0 - 0.85f64.powi(13);
        for u in g.nodes() {
            let total: f64 = g.nodes().map(|v| m.score(&g, u, v)).sum();
            assert!(total <= 1.0 + 1e-9, "source {u:?} total {total}");
            assert!(
                (total - expected).abs() < 1e-9,
                "expected {expected}, got {total}"
            );
        }
    }

    #[test]
    fn self_score_is_highest_in_a_symmetric_clique() {
        let g = clique(4);
        let m = PersonalizedPageRank::default_web();
        let column = m.scores_to_target(&g, NodeId(0));
        for u in 1..4 {
            assert!(column[0] > column[u as usize]);
        }
    }

    #[test]
    fn partial_plus_tail_bounds_full_score() {
        let g = cycle(5);
        let m = PersonalizedPageRank::new(0.7, 9).unwrap();
        let full = m.scores_to_target(&g, NodeId(2));
        for l in 0..=m.depth() {
            let partial = m.partial_scores_to_target(&g, NodeId(2), l);
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
    fn out_of_bounds_nodes_score_zero() {
        let g = cycle(3);
        let m = PersonalizedPageRank::default_web();
        assert_eq!(m.score(&g, NodeId(0), NodeId(99)), 0.0);
        assert_eq!(m.score(&g, NodeId(99), NodeId(0)), 0.0);
        let column = m.scores_to_target(&g, NodeId(99));
        assert!(column.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn dangling_nodes_lose_mass_but_stay_valid() {
        // 0 -> 1 -> 2, node 2 has no out-edges.
        let mut b = GraphBuilder::with_nodes(3);
        b.add_unit_edge(NodeId(0), NodeId(1)).unwrap();
        b.add_unit_edge(NodeId(1), NodeId(2)).unwrap();
        let g = b.build().unwrap();
        let m = PersonalizedPageRank::new(0.85, 6).unwrap();
        let s = m.score(&g, NodeId(0), NodeId(2));
        assert!(s > 0.0 && s < 1.0);
        // nothing flows backwards
        assert_eq!(m.score(&g, NodeId(2), NodeId(0)), 0.0);
    }
}
