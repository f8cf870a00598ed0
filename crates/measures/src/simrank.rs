//! SimRank (Jeh & Widom, KDD 2002).
//!
//! SimRank scores two nodes as similar when their in-neighbourhoods are
//! similar:
//!
//! ```text
//! s(u, u) = 1
//! s(u, v) = C / (|I(u)|·|I(v)|) · Σ_{a ∈ I(u)} Σ_{b ∈ I(v)} s(a, b)
//! ```
//!
//! with decay `C ∈ (0, 1)` and `s(u, v) = 0` whenever either node has no
//! in-neighbours (and `u ≠ v`).  Unlike DHT and PPR it is symmetric and has
//! no cheap "single column" evaluation, so two solvers are provided:
//!
//! * [`SimRank`] — the textbook dense fixed-point iteration, quadratic in
//!   the number of nodes and therefore guarded by a configurable node limit.
//!   It produces a [`SimRankMatrix`], which implements [`ProximityMeasure`]
//!   by table lookup (the matrix *is* the measure, bound to the graph it was
//!   computed from).
//! * [`MonteCarloSimRank`] — the random-surfer-pair interpretation
//!   `s(u, v) = E[C^τ]`, where `τ` is the first meeting time of two
//!   independent backward random walks.  Seeded, so results are
//!   reproducible; suitable for graphs too large for the dense solver.

use dht_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::ProximityMeasure;
use crate::{MeasureError, Result};

/// Configuration of the dense SimRank fixed-point solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRank {
    decay: f64,
    iterations: usize,
    max_nodes: usize,
}

impl SimRank {
    /// Creates a dense solver with decay `C`, a fixed number of iterations,
    /// and the default node limit of 1 000.
    pub fn new(decay: f64, iterations: usize) -> Result<Self> {
        if decay <= 0.0 || decay >= 1.0 || !decay.is_finite() {
            return Err(MeasureError::ParameterOutOfRange {
                name: "decay",
                value: decay,
                range: "(0, 1)",
            });
        }
        if iterations == 0 {
            return Err(MeasureError::ZeroCount { name: "iterations" });
        }
        Ok(SimRank {
            decay,
            iterations,
            max_nodes: 1_000,
        })
    }

    /// The customary configuration from the original KDD 2002 paper: `C = 0.8`,
    /// 5 iterations.
    pub fn kdd2002_default() -> Self {
        Self::new(0.8, 5).expect("the reference parameters are valid")
    }

    /// Overrides the dense-solver node limit (the quadratic memory guard).
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Runs the fixed-point iteration and returns the full similarity matrix.
    pub fn compute(&self, graph: &Graph) -> Result<SimRankMatrix> {
        let n = graph.node_count();
        if n > self.max_nodes {
            return Err(MeasureError::GraphTooLarge {
                nodes: n,
                limit: self.max_nodes,
            });
        }
        let mut current = identity_matrix(n);
        let mut next = vec![0.0; n * n];
        for _ in 0..self.iterations {
            simrank_iteration(graph, self.decay, &current, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        Ok(SimRankMatrix { scores: current, n })
    }
}

fn identity_matrix(n: usize) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    for i in 0..n {
        m[i * n + i] = 1.0;
    }
    m
}

/// One SimRank iteration: `next = C/( |I(u)||I(v)| ) Σ prev(a, b)` with the
/// diagonal pinned to 1.
fn simrank_iteration(graph: &Graph, decay: f64, prev: &[f64], next: &mut [f64]) {
    let n = graph.node_count();
    next.iter_mut().for_each(|x| *x = 0.0);
    for u in 0..n {
        let iu = graph.in_sources(NodeId(u as u32));
        for v in 0..n {
            if u == v {
                next[u * n + v] = 1.0;
                continue;
            }
            let iv = graph.in_sources(NodeId(v as u32));
            if iu.is_empty() || iv.is_empty() {
                continue;
            }
            let mut acc = 0.0;
            for &a in iu {
                let row = a as usize * n;
                for &b in iv {
                    acc += prev[row + b as usize];
                }
            }
            next[u * n + v] = decay * acc / (iu.len() as f64 * iv.len() as f64);
        }
    }
}

/// A fully materialised SimRank similarity matrix.
///
/// Implements [`ProximityMeasure`] by lookup; the `graph` argument of the
/// trait methods is ignored (the matrix is already bound to the graph it was
/// computed from), which keeps the joins oblivious to the difference
/// between on-the-fly and precomputed measures.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRankMatrix {
    scores: Vec<f64>,
    n: usize,
}

impl SimRankMatrix {
    /// Number of nodes of the graph the matrix was computed from.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// SimRank score of the pair `(u, v)`, or 0 if either id is out of
    /// bounds.
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        if u.index() >= self.n || v.index() >= self.n {
            return 0.0;
        }
        self.scores[u.index() * self.n + v.index()]
    }
}

impl ProximityMeasure for SimRankMatrix {
    fn name(&self) -> &'static str {
        "SimRank"
    }

    fn score(&self, _graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        self.get(u, v)
    }

    fn min_score(&self) -> f64 {
        0.0
    }

    fn max_score(&self) -> f64 {
        1.0
    }
}

/// Monte-Carlo SimRank estimator based on coupled backward random walks.
///
/// For a pair `(u, v)`, `num_walks` independent pairs of walks are started at
/// `u` and `v`; both walkers move to a uniformly random in-neighbour each
/// step.  If they first occupy the same node after `τ` steps the sample
/// contributes `C^τ`; pairs that never meet within `walk_length` steps (or
/// strand on a node without in-neighbours) contribute 0.  The estimate is the
/// sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloSimRank {
    decay: f64,
    walk_length: usize,
    num_walks: usize,
    seed: u64,
}

impl MonteCarloSimRank {
    /// Creates an estimator.
    pub fn new(decay: f64, walk_length: usize, num_walks: usize, seed: u64) -> Result<Self> {
        if decay <= 0.0 || decay >= 1.0 || !decay.is_finite() {
            return Err(MeasureError::ParameterOutOfRange {
                name: "decay",
                value: decay,
                range: "(0, 1)",
            });
        }
        if walk_length == 0 {
            return Err(MeasureError::ZeroCount {
                name: "walk_length",
            });
        }
        if num_walks == 0 {
            return Err(MeasureError::ZeroCount { name: "num_walks" });
        }
        Ok(MonteCarloSimRank {
            decay,
            walk_length,
            num_walks,
            seed,
        })
    }

    /// One coupled-walk sample for the pair `(u, v)`.
    fn sample(&self, graph: &Graph, u: NodeId, v: NodeId, rng: &mut StdRng) -> f64 {
        let mut a = u;
        let mut b = v;
        for step in 1..=self.walk_length {
            let ia = graph.in_sources(a);
            let ib = graph.in_sources(b);
            if ia.is_empty() || ib.is_empty() {
                return 0.0;
            }
            a = NodeId(ia[rng.gen_range(0..ia.len())]);
            b = NodeId(ib[rng.gen_range(0..ib.len())]);
            if a == b {
                return self.decay.powi(step as i32);
            }
        }
        0.0
    }
}

impl ProximityMeasure for MonteCarloSimRank {
    fn name(&self) -> &'static str {
        "SimRank-MC"
    }

    fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        let n = graph.node_count();
        if u.index() >= n || v.index() >= n {
            return 0.0;
        }
        if u == v {
            return 1.0;
        }
        // The seed is mixed with the pair so that every pair gets its own but
        // reproducible random stream, independent of evaluation order.
        let pair_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(u.0) << 32 | u64::from(v.0));
        let mut rng = StdRng::seed_from_u64(pair_seed);
        let total: f64 = (0..self.num_walks)
            .map(|_| self.sample(graph, u, v, &mut rng))
            .sum();
        total / self.num_walks as f64
    }

    fn min_score(&self) -> f64 {
        0.0
    }

    fn max_score(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::GraphBuilder;

    /// Two "parent" nodes 0, 1 both pointing at 2 and 3: the classic example
    /// where 2 and 3 are similar because they share all in-neighbours.
    fn shared_parents() -> Graph {
        let mut b = GraphBuilder::with_nodes(4);
        for (u, v) in [(0u32, 2u32), (0, 3), (1, 2), (1, 3)] {
            b.add_unit_edge(NodeId(u), NodeId(v)).unwrap();
        }
        b.build().unwrap()
    }

    fn undirected_square() -> Graph {
        let mut b = GraphBuilder::with_nodes(4);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(SimRank::new(0.0, 5).is_err());
        assert!(SimRank::new(1.0, 5).is_err());
        assert!(SimRank::new(0.8, 0).is_err());
        assert!(MonteCarloSimRank::new(0.8, 0, 10, 1).is_err());
        assert!(MonteCarloSimRank::new(0.8, 5, 0, 1).is_err());
        assert!(MonteCarloSimRank::new(1.2, 5, 10, 1).is_err());
    }

    #[test]
    fn node_limit_guards_the_dense_solver() {
        let g = shared_parents();
        let solver = SimRank::kdd2002_default().with_max_nodes(2);
        assert!(matches!(
            solver.compute(&g),
            Err(MeasureError::GraphTooLarge { nodes: 4, limit: 2 })
        ));
    }

    #[test]
    fn shared_parents_are_similar() {
        let g = shared_parents();
        let matrix = SimRank::kdd2002_default().compute(&g).unwrap();
        // 2 and 3 share both in-neighbours; after one iteration
        // s(2,3) = C/(2·2) · Σ s(a,b) over {0,1}×{0,1} = C·(2·1)/4 = C/2.
        let s23 = matrix.get(NodeId(2), NodeId(3));
        assert!((s23 - 0.4).abs() < 1e-9, "expected C/2 = 0.4, got {s23}");
        // the sources have no in-neighbours at all
        assert_eq!(matrix.get(NodeId(0), NodeId(1)), 0.0);
        // symmetry and unit diagonal
        assert_eq!(matrix.get(NodeId(3), NodeId(2)), s23);
        assert_eq!(matrix.get(NodeId(2), NodeId(2)), 1.0);
    }

    #[test]
    fn matrix_scores_are_within_bounds_and_symmetric() {
        let g = undirected_square();
        let matrix = SimRank::new(0.6, 8).unwrap().compute(&g).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let s = matrix.get(u, v);
                assert!((0.0..=1.0).contains(&s));
                assert!((s - matrix.get(v, u)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matrix_implements_proximity_measure() {
        let g = shared_parents();
        let matrix = SimRank::kdd2002_default().compute(&g).unwrap();
        assert_eq!(matrix.name(), "SimRank");
        let column = matrix.scores_to_target(&g, NodeId(3));
        assert_eq!(column.len(), 4);
        assert!((column[2] - matrix.get(NodeId(2), NodeId(3))).abs() < 1e-12);
        // out-of-bounds target yields a zero column
        assert!(matrix
            .scores_to_target(&g, NodeId(50))
            .iter()
            .all(|&s| s == 0.0));
        assert_eq!(matrix.get(NodeId(50), NodeId(0)), 0.0);
    }

    #[test]
    fn monte_carlo_agrees_with_dense_on_shared_parents() {
        let g = shared_parents();
        let exact = SimRank::new(0.8, 10).unwrap().compute(&g).unwrap();
        let mc = MonteCarloSimRank::new(0.8, 10, 4_000, 42).unwrap();
        let estimate = mc.score(&g, NodeId(2), NodeId(3));
        let truth = exact.get(NodeId(2), NodeId(3));
        assert!(
            (estimate - truth).abs() < 0.05,
            "Monte-Carlo estimate {estimate} too far from dense value {truth}"
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_for_a_fixed_seed() {
        let g = undirected_square();
        let mc = MonteCarloSimRank::new(0.7, 8, 500, 7).unwrap();
        let a = mc.score(&g, NodeId(0), NodeId(2));
        let b = mc.score(&g, NodeId(0), NodeId(2));
        assert_eq!(a, b);
        let other_seed = MonteCarloSimRank::new(0.7, 8, 500, 8).unwrap();
        // different seeds are allowed to differ (they almost surely do)
        let _ = other_seed.score(&g, NodeId(0), NodeId(2));
    }

    #[test]
    fn monte_carlo_handles_degenerate_inputs() {
        let g = shared_parents();
        let mc = MonteCarloSimRank::new(0.8, 5, 50, 3).unwrap();
        assert_eq!(mc.score(&g, NodeId(0), NodeId(0)), 1.0);
        assert_eq!(mc.score(&g, NodeId(0), NodeId(9)), 0.0);
        // node 0 has no in-neighbours: coupled walks can never meet
        assert_eq!(mc.score(&g, NodeId(0), NodeId(1)), 0.0);
    }
}
