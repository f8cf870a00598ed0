//! The proximity-measure abstraction, and the column source that hands a
//! measure to `dht-core`'s joins.
//!
//! The paper's join algorithms only interact with the similarity measure
//! through two operations:
//!
//! 1. score a single ordered node pair `(u, v)`, and
//! 2. score **all** sources against one fixed target `v` in a single pass
//!    (the "backward" bulk operation that makes B-BJ / B-IDJ `O(|P|)` times
//!    faster than their forward counterparts).
//!
//! [`ProximityMeasure`] captures exactly these two operations, plus the
//! depth and tail bound of a truncated series, which B-IDJ-X prunes with;
//! [`IterativeMeasure`] adds the partial (few-step) scores.
//! [`MeasureSource`] presents a measure as `dht-core`'s [`ColumnSource`].

use dht_core::twoway::ColumnSource;
use dht_graph::{Graph, NodeId};
use dht_walks::cache::custom_column_sig;
use dht_walks::{QueryCtx, WalkEngine, WalkScratch};

/// A directed node-pair similarity measure on a graph.
///
/// Scores must be finite and *higher-is-closer*; asymmetric measures are
/// allowed (`score(u, v)` need not equal `score(v, u)`).
pub trait ProximityMeasure {
    /// Short human-readable name ("DHT", "PPR", "SimRank", …).
    fn name(&self) -> &'static str;

    /// Similarity of the ordered pair `(u, v)`.
    ///
    /// The value for `u == v` is measure-defined (typically the maximum
    /// attainable score); the join algorithms never request it.
    fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64;

    /// Similarity of **every** node of the graph towards the fixed target
    /// `v`, as a vector indexed by node id: the exact
    /// [`ProximityMeasure::column`] on the default walk engine.
    fn scores_to_target(&self, graph: &Graph, v: NodeId) -> Vec<f64> {
        let engine = WalkEngine::default();
        self.column(graph, v, self.depth(), engine, &mut WalkScratch::new())
    }

    /// The similarity of every node towards `v`, indexed by node id — the
    /// hot path of all the joins.  A truncated series counts only walks of
    /// at most `steps` steps (`steps ≥ depth()` is the exact column) and
    /// walks on `engine` with `scratch`; other measures may ignore all
    /// three.
    ///
    /// The default loops over [`ProximityMeasure::score`]; measures with an
    /// efficient backward / bulk formulation override it.
    fn column(
        &self,
        graph: &Graph,
        v: NodeId,
        _steps: usize,
        _engine: WalkEngine,
        _scratch: &mut WalkScratch,
    ) -> Vec<f64> {
        graph.nodes().map(|u| self.score(graph, u, v)).collect()
    }

    /// The lowest score the measure can produce (its "minus infinity").
    /// Used by the joins to initialise thresholds.
    fn min_score(&self) -> f64;

    /// The highest score the measure can produce, used for sanity checks and
    /// as the conventional self-similarity.
    fn max_score(&self) -> f64;

    /// The truncation depth `d` (number of walk steps) of a truncated
    /// series; `1` for a measure whose every column is exact.
    fn depth(&self) -> usize {
        1
    }

    /// Upper bound on the score mass contributed by steps `> l` (the
    /// generic analogue of the paper's `X_l⁺`).  Must be non-negative and
    /// non-increasing in `l`, and zero for `l ≥ depth()`; the default `0`
    /// suits a measure whose every column is exact.
    fn tail_bound(&self, _l: usize) -> f64 {
        0.0
    }

    /// Stable identity of this measure's columns for the session column
    /// cache: equal **iff** [`ProximityMeasure::column`] is bit-identical
    /// for every graph, target, step count and engine ([`MeasureSource`]
    /// adds the last two).  Build one with
    /// [`dht_walks::cache::custom_column_sig`] from the measure name and its
    /// parameter bits.  The default `None` (randomized or stateful measures)
    /// opts out of caching.
    fn column_signature(&self) -> Option<u64> {
        None
    }
}

/// The partial (few-step) scores of a measure, with the contract the
/// paper's B-IDJ-X pruning relies on (Lemma 2), generalised beyond DHT: for
/// every target `v`, source `u`, and prefix length `l ≤ depth()`,
///
/// ```text
/// partial(u, v, l)  ≤  score(u, v)  ≤  partial(u, v, l) + tail_bound(l)
/// ```
///
/// A measure that is not a truncated series has depth 1 and no tail, so the
/// contract holds for every [`ProximityMeasure`], which all implement this.
pub trait IterativeMeasure: ProximityMeasure {
    /// Partial scores of every node towards `v` using only walks of length
    /// `≤ l`: [`ProximityMeasure::column`] with `l` steps on the default
    /// walk engine.
    fn partial_scores_to_target(&self, graph: &Graph, v: NodeId, l: usize) -> Vec<f64> {
        self.column(graph, v, l, WalkEngine::default(), &mut WalkScratch::new())
    }
}

impl<M: ProximityMeasure + ?Sized> IterativeMeasure for M {}

/// A measure as the [`ColumnSource`] `dht-core`'s B-BJ, B-IDJ-X and AP
/// read.  Columns go through the context's cache keyed by the measure's
/// [`ProximityMeasure::column_signature`], the step count and the engine.
pub struct MeasureSource<'m, M: ?Sized> {
    measure: &'m M,
    engine: WalkEngine,
    threads: usize,
}

impl<'m, M: ?Sized> MeasureSource<'m, M> {
    /// The columns of `measure`, walked on `engine` and built on up to
    /// `threads` workers (`0` = every core).
    pub fn new(measure: &'m M, engine: WalkEngine, threads: usize) -> Self {
        MeasureSource {
            measure,
            engine,
            threads,
        }
    }
}

impl<M: ProximityMeasure + Sync + ?Sized> ColumnSource for MeasureSource<'_, M> {
    fn depth(&self) -> usize {
        self.measure.depth()
    }

    fn for_each_column(
        &self,
        graph: &Graph,
        l: usize,
        targets: &[NodeId],
        ctx: &mut QueryCtx,
        consume: impl FnMut(NodeId, &[f64]),
    ) {
        let (measure, engine, steps) = (self.measure, self.engine, l.min(self.depth()));
        let sig = (measure.column_signature())
            .map(|sig| custom_column_sig(engine.name(), &[sig, steps as u64]));
        let produce = |scratch: &mut WalkScratch, target| {
            measure.column(graph, target, steps, engine, scratch)
        };
        ctx.for_each_column_cached(graph, sig, self.threads, targets, produce, consume);
    }

    fn tail_bound(&self, l: usize) -> f64 {
        self.measure.tail_bound(l)
    }

    fn floor(&self) -> f64 {
        self.measure.min_score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DhtMeasure, KatzIndex, KatzMode, PathSim, PersonalizedPageRank, TruncatedHittingTime,
    };
    use dht_core::multiway::ap;
    use dht_core::twoway::{bbj, bidj};
    use dht_core::{Aggregate, CoreError, QueryGraph};
    use dht_graph::{GraphBuilder, NodeSet};
    use dht_walks::backward::backward_hitting_probabilities;
    use dht_walks::EdgeValues;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A trivial measure used to exercise the default `scores_to_target`.
    struct DegreeProduct;

    impl ProximityMeasure for DegreeProduct {
        fn name(&self) -> &'static str {
            "degree-product"
        }
        fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
            (graph.out_degree(u) * graph.in_degree(v)) as f64
        }
        fn min_score(&self) -> f64 {
            0.0
        }
        fn max_score(&self) -> f64 {
            f64::INFINITY
        }
    }

    fn path_graph() -> Graph {
        let mut b = GraphBuilder::with_nodes(4);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            b.add_unit_edge(NodeId(u), NodeId(v)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn default_bulk_scoring_matches_single_pair() {
        let g = path_graph();
        let m = DegreeProduct;
        let column = m.scores_to_target(&g, NodeId(2));
        for u in g.nodes() {
            assert_eq!(column[u.index()], m.score(&g, u, NodeId(2)));
        }
    }

    /// The walk vector after each of `steps` plain backward steps.
    fn kernel_steps(g: &Graph, target: u32, steps: usize, values: EdgeValues) -> Vec<Vec<f64>> {
        let mut walk = WalkScratch::new();
        walk.begin(g.node_count(), [NodeId(target)]);
        (0..steps)
            .map(|_| {
                walk.step_backward(g, NodeId(target), false, values, WalkEngine::Dense);
                walk.current().to_vec()
            })
            .collect()
    }

    #[test]
    fn backward_step_moves_mass_along_out_edges() {
        // Indicator of node 3; after one step node 2 (its only in-neighbour
        // through an out-edge 2 -> 3) holds probability 1.
        let steps = kernel_steps(&path_graph(), 3, 2, EdgeValues::Probabilities);
        assert_eq!(steps[0], vec![0.0, 0.0, 1.0, 0.0]);
        assert_eq!(steps[1], vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn weighted_backward_step_accumulates_walk_weights() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 3.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 5.0).unwrap();
        let steps = kernel_steps(&b.build().unwrap(), 2, 2, EdgeValues::Weights);
        // one-step walk weights into node 2: from 1 (3.0) and from 0 (5.0)
        assert_eq!(steps[0], vec![5.0, 3.0, 0.0]);
        // two-step: 0 -> 1 -> 2 has weight 2*3 = 6
        assert_eq!(steps[1], vec![6.0, 0.0, 0.0]);
    }

    // ---- Bit-identity oracle: the kernel against the pull it replaced. ----

    /// The per-node pull the measures used before they moved onto the walk
    /// kernel: `next[u] = Σ_{v ∈ O_u} p_uv · current[v]` over out-edges in
    /// CSR order.  Kept here as the reference the kernel must reproduce.
    fn push_step(graph: &Graph, current: &[f64], next: &mut [f64]) {
        for (u, slot) in next.iter_mut().enumerate() {
            let u_id = NodeId(u as u32);
            let targets = graph.out_targets(u_id);
            let probs = graph.out_probs(u_id);
            let mut acc = 0.0;
            for (&v, &p) in targets.iter().zip(probs.iter()) {
                acc += p * current[v as usize];
            }
            *slot = acc;
        }
    }

    /// [`push_step`] with raw edge weights instead of probabilities.
    fn push_step_weighted(graph: &Graph, current: &[f64], next: &mut [f64]) {
        for (u, slot) in next.iter_mut().enumerate() {
            let u_id = NodeId(u as u32);
            let targets = graph.out_targets(u_id);
            let weights = graph.out_weights(u_id);
            let mut acc = 0.0;
            for (&v, &w) in targets.iter().zip(weights.iter()) {
                acc += w * current[v as usize];
            }
            *slot = acc;
        }
    }

    /// The vectors after each of `steps` reference pulls from the indicator
    /// of `target`.
    fn reference_walk(g: &Graph, target: NodeId, steps: usize, weighted: bool) -> Vec<Vec<f64>> {
        let pull = if weighted {
            push_step_weighted
        } else {
            push_step
        };
        let mut current = vec![0.0; g.node_count()];
        current[target.index()] = 1.0;
        let mut walk = Vec::new();
        for _ in 0..steps {
            let mut next = vec![0.0; current.len()];
            pull(g, &current, &mut next);
            current = next;
            walk.push(current.clone());
        }
        walk
    }

    fn reference_pathsim(g: &Graph, m: &PathSim, v: NodeId) -> Vec<f64> {
        let counts = |t: usize| {
            reference_walk(g, NodeId(t as u32), m.length(), true)
                .pop()
                .unwrap()
        };
        let to_v = counts(v.index());
        let normalise = |u: usize| match counts(u)[u] + to_v[v.index()] {
            denom if denom <= 0.0 => 0.0,
            denom => 2.0 * to_v[u] / denom,
        };
        (0..g.node_count())
            .map(|u| if u == v.index() { 1.0 } else { normalise(u) })
            .collect()
    }

    /// HT's column from the per-step first-hit probabilities.
    fn reference_ht(g: &Graph, m: &TruncatedHittingTime, v: NodeId) -> Vec<f64> {
        let (d, n) = (m.depth(), g.node_count());
        let per_step = backward_hitting_probabilities(g, v, d, WalkEngine::Dense);
        let hits = |u: usize| per_step.iter().map(|step| step[u]).collect::<Vec<_>>();
        let sim = |u| (d as f64 - m.distance_from_hits(&hits(u))) / d as f64;
        (0..n)
            .map(|u| if u == v.index() { 1.0 } else { sim(u) })
            .collect()
    }

    /// Seeded random directed graph with uneven weights, so every node sums
    /// several differently-sized terms and a changed order changes bits.
    fn random_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(12..40usize);
        let mut b = GraphBuilder::with_nodes(n);
        for _ in 0..n * 5 {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u != v {
                let w = rng.gen_range(0.1..5.0);
                b.add_edge(NodeId(u), NodeId(v), w).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn dense_kernel_columns_equal_the_reference_pull_bit_for_bit() {
        let ppr = PersonalizedPageRank::new(0.85, 9).unwrap();
        let katz = KatzIndex::new(0.3, 7, KatzMode::Transition).unwrap();
        let katz_w = KatzIndex::new(0.05, 6, KatzMode::Weighted).unwrap();
        let pathsim = PathSim::new(2).unwrap();
        let ht = TruncatedHittingTime::new(8).unwrap();
        let bits = |column: Vec<f64>| column.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for seed in 0..12u64 {
            let g = random_graph(seed);
            for v in g.nodes().step_by(3) {
                let dense = |m: &dyn ProximityMeasure| {
                    bits(m.column(&g, v, m.depth(), WalkEngine::Dense, &mut WalkScratch::new()))
                };
                // `Σ_i c_i · W_i` with `c_i = c_{i-1} · factor`, plus
                // `at_target` on the target: the series of PPR and Katz.
                let series = |d, first: f64, factor: f64, weighted, at_target| {
                    let mut scores = vec![0.0; g.node_count()];
                    scores[v.index()] = at_target;
                    let mut discount = first;
                    for step in reference_walk(&g, v, d, weighted) {
                        discount *= factor;
                        for (s, w) in scores.iter_mut().zip(step) {
                            *s += discount * w;
                        }
                    }
                    scores
                };
                let restart = 1.0 - 0.85;
                let cases = [
                    ("PPR", dense(&ppr), series(9, restart, 0.85, false, restart)),
                    ("Katz", dense(&katz), series(7, 1.0, 0.3, false, 0.0)),
                    ("Katz-w", dense(&katz_w), series(6, 1.0, 0.05, true, 0.0)),
                    (
                        "PathSim",
                        dense(&pathsim),
                        reference_pathsim(&g, &pathsim, v),
                    ),
                    ("HT", dense(&ht), reference_ht(&g, &ht, v)),
                ];
                for (name, got, want) in cases {
                    assert_eq!(got, bits(want), "{name}, seed {seed}, target {v:?}");
                }
            }
        }
    }

    // ---- The joins over a MeasureSource: core's B-BJ, B-IDJ-X and AP. ----

    /// A two-community graph: 0-4 densely connected, 5-9 densely connected,
    /// with a single bridge 4-5.  Edge weights vary so that scores have no
    /// exact ties and result orders are unambiguous.
    fn two_communities() -> Graph {
        let mut b = GraphBuilder::with_nodes(10);
        for base in [0u32, 5u32] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    let w = 1.0 + 0.31 * f64::from(base + i) + 0.17 * f64::from(j);
                    b.add_undirected_edge(NodeId(base + i), NodeId(base + j), w)
                        .unwrap();
                }
            }
        }
        b.add_undirected_edge(NodeId(4), NodeId(5), 1.0).unwrap();
        b.build().unwrap()
    }

    fn sets() -> (NodeSet, NodeSet, NodeSet) {
        (
            NodeSet::new("A", (0..3).map(NodeId)),
            NodeSet::new("B", (3..7).map(NodeId)),
            NodeSet::new("C", (7..10).map(NodeId)),
        )
    }

    /// The source of `measure` on the default engine, serial.
    fn serial<M: ?Sized>(measure: &M) -> MeasureSource<'_, M> {
        MeasureSource::new(measure, WalkEngine::default(), 1)
    }

    /// Brute-force reference: score every pair with the single-pair method.
    fn brute_force(
        graph: &Graph,
        measure: &impl ProximityMeasure,
        p: &NodeSet,
        q: &NodeSet,
        k: usize,
    ) -> Vec<(u32, u32, f64)> {
        let mut all: Vec<(u32, u32, f64)> = p
            .iter()
            .flat_map(|a| q.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.0, b.0, measure.score(graph, a, b)))
            .collect();
        all.sort_by(|x, y| {
            y.2.total_cmp(&x.2)
                .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn basic_join_matches_brute_force_for_ppr() {
        let g = two_communities();
        let (a, b, _) = sets();
        let m = PersonalizedPageRank::new(0.8, 8).unwrap();
        let fast = bbj::top_k(&g, &serial(&m), &a, &b, 5, &mut QueryCtx::one_shot()).pairs;
        let slow = brute_force(&g, &m, &a, &b, 5);
        assert_eq!(fast.len(), 5);
        for (pair, (l, r, s)) in fast.iter().zip(slow.iter()) {
            assert_eq!((pair.left.0, pair.right.0), (*l, *r));
            assert!((pair.score - s).abs() < 1e-12);
        }
    }

    #[test]
    fn pruned_join_agrees_with_basic_join() {
        let g = two_communities();
        let (a, b, c) = sets();
        let mut ctx = QueryCtx::one_shot();
        for k in [1, 3, 8, 50] {
            let dht = DhtMeasure::paper_default();
            let basic = bbj::top_k(&g, &serial(&dht), &a, &c, k, &mut ctx).pairs;
            let pruned = bidj::top_k_x(&g, &serial(&dht), &a, &c, k, &mut ctx).pairs;
            assert_eq!(basic.len(), pruned.len(), "k={k}");
            for (x, y) in basic.iter().zip(pruned.iter()) {
                assert_eq!((x.left, x.right), (y.left, y.right), "k={k}");
                assert!((x.score - y.score).abs() < 1e-12);
            }

            let ppr = PersonalizedPageRank::new(0.85, 10).unwrap();
            let basic = bbj::top_k(&g, &serial(&ppr), &b, &c, k, &mut ctx).pairs;
            let pruned = bidj::top_k_x(&g, &serial(&ppr), &b, &c, k, &mut ctx).pairs;
            assert_eq!(basic, pruned, "PPR disagreement at k={k}");
        }
    }

    #[test]
    fn self_pairs_are_never_reported() {
        let g = two_communities();
        let overlap_a = NodeSet::new("P", [NodeId(0), NodeId(1), NodeId(2)]);
        let overlap_b = NodeSet::new("Q", [NodeId(1), NodeId(2), NodeId(3)]);
        let m = PersonalizedPageRank::new(0.8, 6).unwrap();
        let ctx = &mut QueryCtx::one_shot();
        let pairs = bbj::top_k(&g, &serial(&m), &overlap_a, &overlap_b, 100, ctx).pairs;
        assert!(pairs.iter().all(|p| p.left != p.right));
        // 3·3 ordered pairs minus the 2 self pairs
        assert_eq!(pairs.len(), 7);
    }

    #[test]
    fn oversized_k_returns_every_pair() {
        let g = two_communities();
        let (a, _, c) = sets();
        let m = DhtMeasure::paper_default();
        let pairs = bbj::top_k(&g, &serial(&m), &a, &c, 10_000, &mut QueryCtx::one_shot()).pairs;
        assert_eq!(pairs.len(), a.len() * c.len());
        // sorted descending
        for w in pairs.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-15);
        }
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let g = two_communities();
        let (a, b, _) = sets();
        let m = DhtMeasure::paper_default();
        let (source, ctx) = (serial(&m), &mut QueryCtx::one_shot());
        assert!(bbj::top_k(&g, &source, &a, &b, 0, ctx).pairs.is_empty());
        assert!(bidj::top_k_x(&g, &source, &a, &b, 0, ctx).pairs.is_empty());
        let empty = NodeSet::empty("none");
        assert!(bbj::top_k(&g, &source, &empty, &b, 5, ctx).pairs.is_empty());
        assert!(bidj::top_k_x(&g, &source, &a, &empty, 5, ctx)
            .pairs
            .is_empty());
    }

    #[test]
    fn nway_join_matches_brute_force_enumeration() {
        let g = two_communities();
        let (a, b, c) = sets();
        let m = PersonalizedPageRank::new(0.8, 8).unwrap();
        let query = QueryGraph::chain(3);
        let k = 5;
        let sets3 = [a.clone(), b.clone(), c.clone()];
        let ctx = &mut QueryCtx::one_shot();
        let result = ap::run_over(&g, &serial(&m), &query, &sets3, Aggregate::Sum, k, ctx);
        let result = result.unwrap();

        // Brute force over all 3-tuples.
        let mut tuples: Vec<(Vec<NodeId>, f64)> = Vec::new();
        for x in a.iter() {
            for y in b.iter() {
                for z in c.iter() {
                    if x == y || y == z || x == z {
                        continue;
                    }
                    let score = m.score(&g, x, y) + m.score(&g, y, z);
                    tuples.push((vec![x, y, z], score));
                }
            }
        }
        tuples.sort_by(|p, q| q.1.total_cmp(&p.1).then_with(|| p.0.cmp(&q.0)));
        tuples.truncate(k);

        assert_eq!(result.answers.len(), k);
        for (answer, (nodes, score)) in result.answers.iter().zip(tuples.iter()) {
            assert!(
                (answer.score - score).abs() < 1e-9,
                "score mismatch: {} vs {score}",
                answer.score
            );
            assert_eq!(&answer.nodes, nodes);
        }
        assert_eq!(result.stats.two_way_joins, 2);
        assert!(result.stats.pairs_pulled > 0);
    }

    #[test]
    fn threaded_joins_are_identical_to_serial_ones() {
        let g = two_communities();
        let (a, b, c) = sets();
        let ppr = PersonalizedPageRank::new(0.8, 8).unwrap();
        let dht = DhtMeasure::paper_default();
        let engine = WalkEngine::default();
        let ctx = &mut QueryCtx::one_shot();
        for threads in [2usize, 4, 0] {
            let (ppr_threaded, dht_threaded) = (
                MeasureSource::new(&ppr, engine, threads),
                MeasureSource::new(&dht, engine, threads),
            );
            let serial_out = bbj::top_k(&g, &serial(&ppr), &a, &b, 6, ctx).pairs;
            let parallel = bbj::top_k(&g, &ppr_threaded, &a, &b, 6, ctx).pairs;
            assert_eq!(serial_out, parallel, "2-way, threads={threads}");

            let serial_out = bidj::top_k_x(&g, &serial(&dht), &a, &c, 4, ctx).pairs;
            let parallel = bidj::top_k_x(&g, &dht_threaded, &a, &c, 4, ctx).pairs;
            assert_eq!(serial_out, parallel, "pruned, threads={threads}");

            let query = QueryGraph::chain(3);
            let sets3 = [a.clone(), b.clone(), c.clone()];
            let sum = Aggregate::Sum;
            let serial_out = ap::run_over(&g, &serial(&ppr), &query, &sets3, sum, 5, ctx).unwrap();
            let parallel = ap::run_over(&g, &ppr_threaded, &query, &sets3, sum, 5, ctx).unwrap();
            let (serial_out, parallel) = (serial_out.answers, parallel.answers);
            assert_eq!(serial_out, parallel, "n-way, threads={threads}");
        }
    }

    #[test]
    fn session_context_joins_are_identical_and_hit_the_cache() {
        let g = two_communities();
        let (a, b, c) = sets();
        let ppr = PersonalizedPageRank::new(0.8, 8).unwrap();
        let dht = DhtMeasure::paper_default();
        let (ppr_source, dht_source) = (serial(&ppr), serial(&dht));
        let mut ctx = QueryCtx::with_byte_budget(1 << 20);
        let one_shot = &mut QueryCtx::one_shot();
        for pass in 0..2 {
            let warm = bbj::top_k(&g, &ppr_source, &a, &b, 6, &mut ctx);
            let cold = bbj::top_k(&g, &ppr_source, &a, &b, 6, one_shot);
            assert_eq!(warm.pairs, cold.pairs, "pass {pass}");
            let warm = bidj::top_k_x(&g, &dht_source, &a, &c, 4, &mut ctx);
            let cold = bidj::top_k_x(&g, &dht_source, &a, &c, 4, one_shot);
            assert_eq!(warm.pairs, cold.pairs, "pass {pass}");
            let query = QueryGraph::chain(3);
            let sets3 = [a.clone(), b.clone(), c.clone()];
            let sum = Aggregate::Sum;
            let warm = ap::run_over(&g, &ppr_source, &query, &sets3, sum, 5, &mut ctx).unwrap();
            let cold = ap::run_over(&g, &ppr_source, &query, &sets3, sum, 5, one_shot).unwrap();
            assert_eq!(warm.answers, cold.answers, "pass {pass}");
        }
        let stats = ctx.column_stats();
        assert!(stats.hits > 0, "second pass must hit the cache: {stats:?}");
        // DHT and PPR columns for the same target must not alias.
        assert_ne!(ppr.column_signature(), dht.column_signature());
    }

    #[test]
    fn nway_join_rejects_malformed_inputs() {
        let g = two_communities();
        let (a, b, _) = sets();
        let m = DhtMeasure::paper_default();
        let (source, ctx) = (serial(&m), &mut QueryCtx::one_shot());
        let query = QueryGraph::chain(3);
        // missing third node set
        let err = ap::run_over(
            &g,
            &source,
            &query,
            &[a.clone(), b.clone()],
            Aggregate::Min,
            3,
            ctx,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NodeSetCountMismatch { .. }));
        // disconnected query graph
        let mut disconnected = QueryGraph::new(4);
        disconnected.add_edge(0, 1).unwrap();
        disconnected.add_edge(2, 3).unwrap();
        let sets4 = vec![a.clone(), b.clone(), a.clone(), b.clone()];
        let err =
            ap::run_over(&g, &source, &disconnected, &sets4, Aggregate::Min, 3, ctx).unwrap_err();
        assert!(matches!(err, CoreError::DisconnectedQueryGraph));
    }

    #[test]
    fn nway_join_returns_no_answers_at_k_zero() {
        let g = two_communities();
        let (a, b, c) = sets();
        let m = PersonalizedPageRank::new(0.8, 8).unwrap();
        let sets3 = [a, b, c];
        for query in [QueryGraph::chain(3), QueryGraph::triangle()] {
            let ctx = &mut QueryCtx::one_shot();
            let out = ap::run_over(&g, &serial(&m), &query, &sets3, Aggregate::Min, 0, ctx);
            assert!(out.unwrap().answers.is_empty());
        }
    }
}
