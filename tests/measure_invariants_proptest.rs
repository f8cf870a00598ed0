//! Property-based tests for the alternative-measure extension (`dht-measures`):
//! the invariants that make the generic bulk evaluation and iterative-deepening
//! pruning correct must hold on arbitrary graphs, node sets and parameters.

use proptest::prelude::*;

use dht_nway::core::twoway::{bbj, bidj};
use dht_nway::measures::{
    DhtMeasure, IterativeMeasure, MeasureSource, PathSim, PersonalizedPageRank, ProximityMeasure,
    TruncatedHittingTime,
};
use dht_nway::prelude::*;
use dht_nway::walks::WalkEngine;

/// Strategy: a small directed weighted graph as an edge list over `n` nodes.
fn small_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (3usize..9).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.5f64..4.0), 1..(n * 3));
        (Just(n), edges)
    })
}

fn build_graph(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
    let mut builder = GraphBuilder::with_nodes(n);
    for &(u, v, w) in edges {
        if u != v {
            builder
                .add_edge(NodeId(u), NodeId(v), w)
                .expect("valid endpoints");
        }
    }
    builder.build().expect("generated graph is valid")
}

fn split_sets(graph: &Graph) -> (NodeSet, NodeSet) {
    let n = graph.node_count() as u32;
    let half = (n / 2).max(1);
    (
        NodeSet::new("P", (0..half).map(NodeId)),
        NodeSet::new("Q", (half..n).map(NodeId)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The single-pair (forward) and bulk (backward) evaluations of PPR agree
    /// on every pair — the generic analogue of forward/backward DHT equality.
    #[test]
    fn ppr_forward_and_backward_agree(
        (n, edges) in small_graph_strategy(),
        damping in 0.3f64..0.95,
    ) {
        let graph = build_graph(n, &edges);
        let measure = PersonalizedPageRank::new(damping, 6).unwrap();
        for target in graph.nodes() {
            let column = measure.scores_to_target(&graph, target);
            for source in graph.nodes() {
                let single = measure.score(&graph, source, target);
                prop_assert!((column[source.index()] - single).abs() < 1e-9,
                    "PPR mismatch at ({source:?},{target:?})");
            }
        }
    }

    /// The truncated hitting-time similarity agrees between its bulk and
    /// single-pair evaluations and stays inside [0, 1].
    #[test]
    fn hitting_time_bulk_matches_single_and_is_bounded((n, edges) in small_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let measure = TruncatedHittingTime::new(7).unwrap();
        for target in graph.nodes() {
            let column = measure.scores_to_target(&graph, target);
            for source in graph.nodes() {
                if source == target { continue; }
                let single = measure.score(&graph, source, target);
                prop_assert!((column[source.index()] - single).abs() < 1e-9);
                prop_assert!((0.0..=1.0).contains(&single));
            }
        }
    }

    /// For every iterative measure, the partial score plus the tail bound
    /// dominates the full score (the contract the generic pruning relies on).
    #[test]
    fn tail_bounds_dominate_for_all_iterative_measures((n, edges) in small_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let dht = DhtMeasure::paper_default();
        let ppr = PersonalizedPageRank::new(0.8, 8).unwrap();
        let ht = TruncatedHittingTime::new(8).unwrap();

        fn check<M: IterativeMeasure>(graph: &Graph, m: &M) -> Result<(), TestCaseError> {
            for target in graph.nodes() {
                let full = m.scores_to_target(graph, target);
                for l in 1..m.depth() {
                    let partial = m.partial_scores_to_target(graph, target, l);
                    let tail = m.tail_bound(l);
                    prop_assert!(tail >= -1e-12, "{}: negative tail bound", m.name());
                    for source in graph.nodes() {
                        if source == target { continue; }
                        let i = source.index();
                        prop_assert!(partial[i] <= full[i] + 1e-9,
                            "{}: partial exceeds full", m.name());
                        prop_assert!(full[i] <= partial[i] + tail + 1e-9,
                            "{}: tail bound violated at l={l}", m.name());
                    }
                }
            }
            Ok(())
        }
        check(&graph, &dht)?;
        check(&graph, &ppr)?;
        check(&graph, &ht)?;
    }

    /// The pruned generic 2-way join returns exactly the same score sequence
    /// as the exhaustive bulk join, for every iterative measure and several k.
    #[test]
    fn pruned_generic_join_matches_basic_join(
        (n, edges) in small_graph_strategy(),
        k in 1usize..8,
    ) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(&graph);
        prop_assume!(!p.is_empty() && !q.is_empty());

        let dht = DhtMeasure::paper_default();
        let ppr = PersonalizedPageRank::new(0.85, 7).unwrap();
        let ht = TruncatedHittingTime::new(6).unwrap();

        fn check<M: IterativeMeasure + Sync>(
            graph: &Graph, m: &M, p: &NodeSet, q: &NodeSet, k: usize,
        ) -> Result<(), TestCaseError> {
            let (source, ctx) = (MeasureSource::new(m, WalkEngine::default(), 1), &mut QueryCtx::one_shot());
            let basic = bbj::top_k(graph, &source, p, q, k, ctx).pairs;
            let pruned = bidj::top_k_x(graph, &source, p, q, k, ctx).pairs;
            prop_assert_eq!(basic.len(), pruned.len(), "{}: result sizes differ", m.name());
            for (a, b) in basic.iter().zip(pruned.iter()) {
                prop_assert!((a.score - b.score).abs() < 1e-9,
                    "{}: scores diverge ({} vs {})", m.name(), a.score, b.score);
            }
            Ok(())
        }
        check(&graph, &dht, &p, &q, k)?;
        check(&graph, &ppr, &p, &q, k)?;
        check(&graph, &ht, &p, &q, k)?;
    }

    /// The generic DHT measure ranks pairs exactly like the paper's dedicated
    /// B-IDJ-Y 2-way join (same scores in the same order).
    #[test]
    fn generic_dht_join_matches_dedicated_bidj_y((n, edges) in small_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(&graph);
        prop_assume!(!p.is_empty() && !q.is_empty());
        let k = 6;
        let ctx = &mut QueryCtx::one_shot();
        let dedicated = TwoWayAlgorithm::BackwardIdjY
            .top_k_with_ctx(&graph, &TwoWayConfig::paper_default(), &p, &q, k, ctx);
        let dht = DhtMeasure::paper_default();
        let generic = bbj::top_k(&graph, &MeasureSource::new(&dht, WalkEngine::default(), 1), &p, &q, k, ctx).pairs;
        prop_assert_eq!(dedicated.pairs.len(), generic.len());
        for (a, b) in dedicated.pairs.iter().zip(generic.iter()) {
            prop_assert!((a.score - b.score).abs() < 1e-9,
                "dedicated {} vs generic {}", a.score, b.score);
        }
    }

    /// PathSim on an undirected view of the graph is symmetric and bounded.
    #[test]
    fn pathsim_is_symmetric_on_undirected_graphs((n, edges) in small_graph_strategy()) {
        let mut builder = GraphBuilder::with_nodes(n);
        for &(u, v, w) in &edges {
            if u != v {
                builder.add_undirected_edge(NodeId(u), NodeId(v), w).expect("valid endpoints");
            }
        }
        let graph = builder.build().unwrap();
        let measure = PathSim::co_occurrence();
        for u in graph.nodes() {
            for v in graph.nodes() {
                let s = measure.score(&graph, u, v);
                let r = measure.score(&graph, v, u);
                prop_assert!((s - r).abs() < 1e-9, "asymmetric PathSim at ({u:?},{v:?})");
                prop_assert!(s >= 0.0);
                prop_assert!(s <= 1.0 + 1e-9);
            }
        }
    }
}
