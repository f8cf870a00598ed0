//! Property-based parity tests for the walk engines: the sparse-frontier
//! kernel (with its push/pull switch) and the thread-parallel join paths
//! must be indistinguishable from the dense serial reference on arbitrary
//! graphs — sparse vs dense within 1e-12, threaded vs serial **identical**.

use proptest::prelude::*;

use dht_nway::core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_nway::prelude::*;
use dht_nway::walks::backward::BackwardWalk;
use dht_nway::walks::bounds::YBoundTable;
use dht_nway::walks::forward::hitting_probabilities_with;
use dht_nway::walks::{WalkEngine, WalkScratch};

/// Strategy: a random Erdős–Rényi-style directed weighted graph given as an
/// edge list over `n` nodes.
fn er_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (4usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.25f64..4.0), 1..(n * 4));
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

fn split_sets(n: usize) -> (NodeSet, NodeSet) {
    let half = (n as u32 / 2).max(1);
    (
        NodeSet::new("P", (0..half).map(NodeId)),
        NodeSet::new("Q", (half..n as u32).map(NodeId)),
    )
}

/// Thread counts for the parallel-vs-serial parity tests, honouring the CI
/// matrix (`DHT_TEST_THREADS`) but never degenerating: comparing a serial
/// run against itself asserts nothing, so `1` is dropped and the all-cores
/// path (`0`) is always exercised.
fn parallel_thread_counts(default: &[usize]) -> Vec<usize> {
    let mut counts: Vec<usize> = dht_nway::par::test_thread_counts(default)
        .into_iter()
        .filter(|&threads| threads != 1)
        .collect();
    if !counts.contains(&0) {
        counts.push(0);
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The sparse-frontier engine matches the dense sweep on forward
    /// absorbing walks, for every (source, target) pair and step.
    #[test]
    fn sparse_forward_walks_match_dense((n, edges) in er_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let d = 7;
        let mut scratch = WalkScratch::new();
        for source in graph.nodes() {
            for target in graph.nodes() {
                if source == target { continue; }
                let dense = hitting_probabilities_with(
                    &graph, source, target, d, WalkEngine::Dense, &mut scratch);
                let sparse = hitting_probabilities_with(
                    &graph, source, target, d, WalkEngine::Sparse, &mut scratch);
                for i in 0..d {
                    prop_assert!((dense[i] - sparse[i]).abs() < 1e-12,
                        "({source:?} -> {target:?}) step {i}: dense {} vs sparse {}",
                        dense[i], sparse[i]);
                }
            }
        }
    }

    /// The sparse backward walk matches the dense one step by step, for
    /// every target — including the first-return probabilities on the
    /// target's own entry.
    #[test]
    fn sparse_backward_walks_match_dense((n, edges) in er_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let d = 7;
        for target in graph.nodes() {
            let mut dense = BackwardWalk::with_engine(&graph, target, WalkEngine::Dense);
            let mut sparse = BackwardWalk::with_engine(&graph, target, WalkEngine::Sparse);
            for step in 0..d {
                dense.step();
                sparse.step();
                for u in 0..n {
                    prop_assert!(
                        (dense.current()[u] - sparse.current()[u]).abs() < 1e-12,
                        "target {target:?} step {step} node {u}: {} vs {}",
                        dense.current()[u], sparse.current()[u]);
                }
            }
        }
    }

    /// The Y-bound table is engine- and thread-count-independent.
    #[test]
    fn y_bound_table_is_engine_and_thread_independent((n, edges) in er_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let params = DhtParams::paper_default();
        let d = 7;
        let p = NodeSet::new("P", graph.nodes().take(3));
        let mut scratch = WalkScratch::new();
        let dense = YBoundTable::new_with(
            &graph, &params, &p, d, WalkEngine::Dense, 1, &mut scratch);
        for (engine, threads) in [
            (WalkEngine::Sparse, 1),
            (WalkEngine::Sparse, 4),
            (WalkEngine::Auto, 2),
        ] {
            let other = YBoundTable::new_with(
                &graph, &params, &p, d, engine, threads, &mut scratch);
            for q in graph.nodes() {
                for l in 0..=d {
                    prop_assert!((dense.bound(l, q) - other.bound(l, q)).abs() < 1e-12,
                        "{engine:?}/{threads} threads at q={q:?} l={l}");
                }
            }
        }
    }

    /// Multi-threaded F-BJ emits exactly the serial output: same pairs, same
    /// order, bit-identical scores.  (The merge is ordered, so this holds
    /// exactly, not just within a tolerance.)
    #[test]
    fn threaded_fbj_is_identical_to_serial((n, edges) in er_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(n);
        prop_assume!(!p.is_empty() && !q.is_empty());
        let serial = TwoWayConfig::paper_default();
        let k = 6;
        let reference = TwoWayAlgorithm::ForwardBasic.top_k_with_ctx(&graph, &serial, &p, &q, k, &mut QueryCtx::one_shot());
        for threads in parallel_thread_counts(&[2, 4, 0]) {
            let parallel = serial.with_threads(threads);
            let out = TwoWayAlgorithm::ForwardBasic.top_k_with_ctx(&graph, &parallel, &p, &q, k, &mut QueryCtx::one_shot());
            prop_assert_eq!(reference.pairs.len(), out.pairs.len());
            for (a, b) in reference.pairs.iter().zip(out.pairs.iter()) {
                prop_assert_eq!((a.left, a.right), (b.left, b.right), "threads={}", threads);
                prop_assert!(a.score == b.score,
                    "threads={}: score {} != {}", threads, a.score, b.score);
            }
            prop_assert_eq!(&reference.stats, &out.stats, "stats diverged at threads={}", threads);
        }
    }

    /// The same exactness holds for the backward joins (B-BJ and both
    /// B-IDJ variants) at every thread count.
    #[test]
    fn threaded_backward_joins_are_identical_to_serial((n, edges) in er_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(n);
        prop_assume!(!p.is_empty() && !q.is_empty());
        let k = 5;
        for algorithm in [
            TwoWayAlgorithm::BackwardBasic,
            TwoWayAlgorithm::BackwardIdjX,
            TwoWayAlgorithm::BackwardIdjY,
        ] {
            let serial = TwoWayConfig::paper_default();
            let reference = algorithm.top_k_with_ctx(&graph, &serial, &p, &q, k, &mut QueryCtx::one_shot());
            for threads in parallel_thread_counts(&[3, 0]) {
                let out = algorithm.top_k_with_ctx(&graph, &serial.with_threads(threads), &p, &q, k, &mut QueryCtx::one_shot());
                prop_assert_eq!(reference.pairs.len(), out.pairs.len(),
                    "{} threads={}", algorithm.name(), threads);
                for (a, b) in reference.pairs.iter().zip(out.pairs.iter()) {
                    prop_assert_eq!((a.left, a.right), (b.left, b.right));
                    prop_assert!(a.score == b.score,
                        "{} threads={}: {} != {}", algorithm.name(), threads, a.score, b.score);
                }
            }
        }
    }

    /// All five 2-way algorithms agree across engines (the engine knob may
    /// only perturb scores at rounding level, never the ranking semantics).
    #[test]
    fn engines_agree_across_all_two_way_algorithms((n, edges) in er_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(n);
        prop_assume!(!p.is_empty() && !q.is_empty());
        let k = 5;
        for algorithm in TwoWayAlgorithm::ALL {
            let dense = TwoWayConfig::paper_default().with_engine(WalkEngine::Dense);
            let sparse = TwoWayConfig::paper_default().with_engine(WalkEngine::Sparse);
            let a = algorithm.top_k_with_ctx(&graph, &dense, &p, &q, k, &mut QueryCtx::one_shot());
            let b = algorithm.top_k_with_ctx(&graph, &sparse, &p, &q, k, &mut QueryCtx::one_shot());
            prop_assert_eq!(a.pairs.len(), b.pairs.len(), "{}", algorithm.name());
            for (x, y) in a.pairs.iter().zip(b.pairs.iter()) {
                prop_assert!((x.score - y.score).abs() < 1e-12,
                    "{}: dense {} vs sparse {}", algorithm.name(), x.score, y.score);
            }
        }
    }
}
