//! Backward walk engine (`backWalk` in the paper, Section VI-A).
//!
//! For a fixed *target* `q`, one pass of the backward recurrence produces the
//! first-hit probabilities `P_i(u, q)` for **every** source `u` at once:
//!
//! ```text
//! P_1(u, q) = p_uq
//! P_i(u, q) = Σ_{v ∈ O_u, v ≠ q} p_uv · P_{i-1}(v, q)     (i > 1)
//! ```
//!
//! Excluding `v = q` for `i > 1` is what makes these *first*-hit
//! probabilities: walks that already passed through `q` are not continued.
//! A full `d`-step pass costs `O(d·|E_G|)`, which is `O(|P|)` times cheaper
//! than evaluating the same scores with forward walks — this asymmetry is
//! the entire point of the backward 2-way join algorithms (B-BJ, B-IDJ).
//!
//! Propagation runs on the sparse-frontier kernel of [`crate::frontier`]:
//! the step-`i` support of `P_i(·, q)` is the `i`-hop in-neighbourhood of
//! `q`, which is small for the first few steps, so the sparse engine pushes
//! mass through the reverse adjacency index instead of pulling through a
//! full `O(|V| + |E|)` sweep.  [`WalkEngine::Dense`] reproduces the seed's
//! sweep bit for bit.

use dht_graph::{Graph, NodeId};

use crate::frontier::EdgeValues::Probabilities;
use crate::frontier::{WalkEngine, WalkScratch};
use crate::params::DhtParams;

/// Incremental backward walk towards a fixed target.  Each call to
/// [`BackwardWalk::step`] advances one step and exposes `P_i(u, target)` for
/// all `u` via [`BackwardWalk::current`].
#[derive(Debug, Clone)]
pub struct BackwardWalk<'g> {
    graph: &'g Graph,
    target: NodeId,
    engine: WalkEngine,
    scratch: WalkScratch,
    steps_taken: usize,
}

impl<'g> BackwardWalk<'g> {
    /// Prepares a backward walk towards `target` on `engine`; no steps are
    /// taken yet.
    pub fn with_engine(graph: &'g Graph, target: NodeId, engine: WalkEngine) -> Self {
        let mut scratch = WalkScratch::new();
        // backProb[q] = 1: at "step 0" only the target itself has hit the
        // target.  The first step then yields P_1(u,q) = p_uq.
        scratch.begin(graph.node_count(), [target]);
        BackwardWalk {
            graph,
            target,
            engine,
            scratch,
            steps_taken: 0,
        }
    }

    /// `P_i(u, target)` for all `u`, where `i` is the number of steps taken.
    /// Before the first step this is the indicator vector of the target.
    pub fn current(&self) -> &[f64] {
        self.scratch.current()
    }

    /// Advances the walk by one step.  After the call, [`Self::current`]
    /// holds `P_{i}(·, target)` for the new step count `i`.
    pub fn step(&mut self) {
        // For i > 1 walks must not pass through the target again.
        let exclude_target = self.steps_taken >= 1;
        let (graph, target) = (self.graph, self.target);
        self.scratch
            .step_backward(graph, target, exclude_target, Probabilities, self.engine);
        self.steps_taken += 1;
    }
}

/// `backWalk(G, q, d)` into a caller-provided output vector: the truncated
/// DHT score `h_d(u, q)` for **every** node `u`, computed with one backward
/// pass on a reused scratch.  This is the zero-allocation inner loop of
/// B-BJ / B-IDJ.
///
/// The entry for `u = q` is set to `params.self_score()` by convention
/// (`h(v, v) = 0` for DHT_λ) and is never used by the join algorithms.
pub fn backward_dht_into(
    graph: &Graph,
    params: &DhtParams,
    target: NodeId,
    d: usize,
    engine: WalkEngine,
    scratch: &mut WalkScratch,
    scores: &mut Vec<f64>,
) {
    let n = graph.node_count();
    scores.clear();
    scores.resize(n, 0.0);
    scratch.begin(n, [target]);
    for i in 1..=d {
        if scratch.is_exhausted() {
            break;
        }
        scratch.step_backward(graph, target, i > 1, Probabilities, engine);
        let discount = params.discount(i);
        scratch.for_each_nonzero(|u, p| {
            scores[u] += discount * p;
        });
    }
    for s in scores.iter_mut() {
        *s += params.beta;
    }
    if target.index() < n {
        scores[target.index()] = params.self_score();
    }
}

/// `backWalk(G, q, d)`: the truncated DHT score `h_d(u, q)` for **every**
/// node `u` of the graph, computed with one backward pass.
pub fn backward_dht_all_sources(
    graph: &Graph,
    params: &DhtParams,
    target: NodeId,
    d: usize,
) -> Vec<f64> {
    let mut scores = Vec::new();
    backward_dht_into(
        graph,
        params,
        target,
        d,
        WalkEngine::default(),
        &mut WalkScratch::new(),
        &mut scores,
    );
    scores
}

/// Per-step first-hit probabilities towards `target` for every source node:
/// entry `[i-1][u] = P_i(u, target)`.
pub fn backward_hitting_probabilities(
    graph: &Graph,
    target: NodeId,
    d: usize,
    engine: WalkEngine,
) -> Vec<Vec<f64>> {
    let mut walk = BackwardWalk::with_engine(graph, target, engine);
    let mut out = Vec::with_capacity(d);
    for _ in 0..d {
        walk.step();
        out.push(walk.current().to_vec());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::{forward_dht, hitting_probabilities};
    use dht_graph::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::with_nodes(3);
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 2)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    fn path3() -> Graph {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_unit_edge(NodeId(0), NodeId(1)).unwrap();
        b.add_unit_edge(NodeId(1), NodeId(2)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn backward_matches_forward_on_triangle() {
        let g = triangle();
        let d = 8;
        let back = backward_hitting_probabilities(&g, NodeId(1), d, WalkEngine::default());
        for u in [0u32, 2u32] {
            let fwd = hitting_probabilities(&g, NodeId(u), NodeId(1), d);
            for i in 0..d {
                assert!(
                    (back[i][u as usize] - fwd[i]).abs() < 1e-12,
                    "step {i} source {u}: backward {} vs forward {}",
                    back[i][u as usize],
                    fwd[i]
                );
            }
        }
    }

    #[test]
    fn backward_dht_matches_forward_dht() {
        let g = triangle();
        let params = DhtParams::paper_default();
        let d = 8;
        let scores = backward_dht_all_sources(&g, &params, NodeId(2), d);
        for u in [0u32, 1u32] {
            let f = forward_dht(&g, &params, NodeId(u), NodeId(2), d);
            assert!((scores[u as usize] - f).abs() < 1e-12);
        }
    }

    #[test]
    fn directed_path_only_upstream_nodes_score() {
        let g = path3();
        let params = DhtParams::paper_default();
        let scores = backward_dht_all_sources(&g, &params, NodeId(2), 8);
        assert!(scores[0] > params.min_score());
        assert!(scores[1] > scores[0], "closer node scores higher");
        // node 2 is the target itself: the h(v,v) = 0 convention.
        assert_eq!(scores[2], params.self_score());
    }

    #[test]
    fn self_pair_convention_agrees_with_forward_engine() {
        let g = triangle();
        for params in [DhtParams::paper_default(), DhtParams::dht_e()] {
            let scores = backward_dht_all_sources(&g, &params, NodeId(1), 8);
            assert_eq!(scores[1], params.self_score());
            assert_eq!(scores[1], forward_dht(&g, &params, NodeId(1), NodeId(1), 8));
        }
    }

    #[test]
    fn unreachable_sources_score_beta() {
        let g = path3();
        let params = DhtParams::paper_default();
        // target 0 is unreachable from 1 and 2
        let scores = backward_dht_all_sources(&g, &params, NodeId(0), 8);
        assert_eq!(scores[1], params.min_score());
        assert_eq!(scores[2], params.min_score());
    }

    #[test]
    fn first_step_equals_transition_probability() {
        let g = triangle();
        let back = backward_hitting_probabilities(&g, NodeId(0), 1, WalkEngine::default());
        assert!((back[0][1] - 0.5).abs() < 1e-12);
        assert!((back[0][2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn walks_do_not_pass_through_the_target() {
        // In the triangle, P_2(2, 0) must only count 2 -> 1 -> 0 (prob 1/4),
        // not 2 -> 0 -> ... which already hit at step 1.
        let g = triangle();
        let back = backward_hitting_probabilities(&g, NodeId(0), 2, WalkEngine::default());
        assert!((back[1][2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pooled_backward_scores_match_fresh_ones() {
        let g = triangle();
        let params = DhtParams::paper_default();
        let mut scratch = WalkScratch::new();
        let mut scores = Vec::new();
        for target in [0u32, 1, 2, 0, 2] {
            backward_dht_into(
                &g,
                &params,
                NodeId(target),
                8,
                WalkEngine::default(),
                &mut scratch,
                &mut scores,
            );
            let fresh = backward_dht_all_sources(&g, &params, NodeId(target), 8);
            assert_eq!(scores, fresh, "scratch reuse changed target {target}");
        }
    }

    #[test]
    fn all_engines_agree_on_backward_scores() {
        let g = triangle();
        let params = DhtParams::dht_lambda(0.4);
        let mut scratch = WalkScratch::new();
        let mut dense = Vec::new();
        let mut other = Vec::new();
        for target in g.nodes() {
            backward_dht_into(
                &g,
                &params,
                target,
                8,
                WalkEngine::Dense,
                &mut scratch,
                &mut dense,
            );
            for engine in [WalkEngine::Sparse, WalkEngine::Auto] {
                backward_dht_into(&g, &params, target, 8, engine, &mut scratch, &mut other);
                for (a, b) in dense.iter().zip(other.iter()) {
                    assert!((a - b).abs() < 1e-12, "{engine:?} target {target:?}");
                }
            }
        }
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let g = triangle();
        let back = backward_hitting_probabilities(&g, NodeId(2), 20, WalkEngine::default());
        for step in &back {
            for &p in step {
                assert!((0.0..=1.0 + 1e-12).contains(&p));
            }
        }
        // cumulative first-hit probability per source also stays <= 1
        for u in 0..3 {
            let total: f64 = back.iter().map(|s| s[u]).sum();
            assert!(total <= 1.0 + 1e-9);
        }
    }
}
