//! Property-based parity tests for the query-session engine: a randomized
//! query stream answered through a warm [`Session`] (column cache on, with
//! eviction pressure from a tiny byte budget) must be **bit-identical** to
//! answering every query one-shot (cache off), at every tested thread
//! count (`DHT_TEST_THREADS`, default 1 and 4), both with the engine's
//! cross-session shared cache and with session-private caches.
//!
//! This is the contract that makes the cache safe to ship: caching may only
//! change how often walks run, never what any query answers.

use proptest::prelude::*;

use dht_nway::core::multiway::{NWayAlgorithm, NWayConfig};
use dht_nway::core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_nway::engine::{Engine, EngineConfig};
use dht_nway::prelude::*;

/// Strategy: a random Erdős–Rényi-style directed weighted graph given as an
/// edge list over `n` nodes.
fn er_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (6usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.25f64..4.0), 1..(n * 4));
        (Just(n), edges)
    })
}

/// Strategy: a stream of up to 8 two-way queries, each `(algorithm index,
/// swap P/Q flag, k)` — swapping makes targets repeat across both
/// orientations, which is what the cache exists for.
fn stream_strategy() -> impl Strategy<Value = Vec<(u32, u32, usize)>> {
    proptest::collection::vec((0u32..5, 0u32..2, 1usize..7), 2..8)
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

/// A session whose tiny column cache (a byte budget worth ~3 columns of the
/// largest generated graph) is constantly evicting — parity must survive
/// any eviction schedule, with the cross-session cache and with private
/// ones.
fn pressured_engine(graph: &Graph, threads: usize, shared: bool) -> Engine {
    Engine::with_config(
        graph.clone(),
        EngineConfig::paper_default()
            .with_threads(threads)
            .with_cache_bytes(3 * dht_nway::walks::column_bytes(24))
            .with_shared_cache(shared),
    )
}

/// Thread counts under test (CI matrix sets `DHT_TEST_THREADS`).
fn thread_counts() -> Vec<usize> {
    dht_nway::par::test_thread_counts(&[1, 4])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Two-way query streams: warm session ≡ one-shot calls, bitwise, at
    /// 1 and 4 threads.
    #[test]
    fn session_two_way_streams_match_one_shot_calls(
        (n, edges) in er_graph_strategy(),
        stream in stream_strategy(),
    ) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(n);
        prop_assume!(!p.is_empty() && !q.is_empty());
        for threads in thread_counts() {
            for shared in [true, false] {
                let engine = pressured_engine(&graph, threads, shared);
                let mut session = engine.session();
                let one_shot_config = TwoWayConfig::paper_default().with_threads(threads);
                for &(algo, swap, k) in &stream {
                    let algorithm = TwoWayAlgorithm::ALL[algo as usize];
                    let (left, right) = if swap == 1 { (&q, &p) } else { (&p, &q) };
                    let warm = session.two_way(algorithm, left, right, k);
                    let cold = algorithm.top_k_with_ctx(&graph, &one_shot_config, left, right, k, &mut QueryCtx::one_shot());
                    prop_assert_eq!(warm.pairs.len(), cold.pairs.len(),
                        "{} threads={} shared={} k={}", algorithm.name(), threads, shared, k);
                    for (a, b) in warm.pairs.iter().zip(cold.pairs.iter()) {
                        prop_assert_eq!((a.left, a.right), (b.left, b.right),
                            "{} threads={} shared={}", algorithm.name(), threads, shared);
                        prop_assert!(
                            a.score == b.score,
                            "{} threads={} shared={}: cached score {} != one-shot {}",
                            algorithm.name(), threads, shared, a.score, b.score
                        );
                    }
                    // The stats describe the algorithm's logical work, so
                    // they must not depend on cache temperature either.
                    prop_assert_eq!(&warm.stats, &cold.stats);
                }
            }
        }
    }

    /// N-way joins through a warm session match their one-shot equivalents
    /// (AP, PJ and PJ-i all route their inner joins through the cache).
    #[test]
    fn session_n_way_joins_match_one_shot_calls(
        (n, edges) in er_graph_strategy(),
        m in 1usize..6,
        k in 1usize..6,
    ) {
        let graph = build_graph(n, &edges);
        let third = (n as u32 / 3).max(1);
        let sets = vec![
            NodeSet::new("A", (0..third).map(NodeId)),
            NodeSet::new("B", (third..2 * third).map(NodeId)),
            NodeSet::new("C", (2 * third..n as u32).map(NodeId)),
        ];
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let query = QueryGraph::chain(3);
        for threads in thread_counts() {
            for shared in [true, false] {
                let engine = pressured_engine(&graph, threads, shared);
                let mut session = engine.session();
                let config = NWayConfig::paper_default().with_k(k).with_threads(threads);
                for algorithm in [
                    NWayAlgorithm::AllPairs,
                    NWayAlgorithm::PartialJoin { m },
                    NWayAlgorithm::IncrementalPartialJoin { m },
                ] {
                    // Run each n-way query twice on the same session: the
                    // second run rides entirely on whatever the first one
                    // cached.
                    for pass in 0..2 {
                        let warm = session
                            .n_way(algorithm, &query, &sets, Aggregate::Min, k)
                            .expect("valid query");
                        let cold = algorithm
                            .run_with_ctx(&graph, &config, &query, &sets, &mut QueryCtx::one_shot())
                            .expect("valid query");
                        prop_assert_eq!(warm.answers.len(), cold.answers.len(),
                            "{} threads={} shared={} pass={}",
                            algorithm.name(), threads, shared, pass);
                        for (a, b) in warm.answers.iter().zip(cold.answers.iter()) {
                            prop_assert_eq!(&a.nodes, &b.nodes,
                                "{} threads={} shared={} pass={}",
                                algorithm.name(), threads, shared, pass);
                            prop_assert!(a.score == b.score,
                                "{} threads={} shared={} pass={}: {} != {}",
                                algorithm.name(), threads, shared, pass, a.score, b.score);
                        }
                    }
                }
            }
        }
    }
}
