//! Concurrent-session stress test: N threads hammer one [`Engine`] with
//! overlapping two-way and n-way queries through the cross-session
//! `SharedColumnCache` **and** the read-mostly `SharedYTableStore`, both
//! under budgets tiny enough to keep them evicting (a ~2-column byte
//! budget; a **one-table** Y store, so concurrent B-IDJ-Y sessions race
//! get/build/insert/evict on every query), and every answer must be
//! **bitwise identical** to the one-shot free-function answer.
//!
//! This is the contract that makes the shared caches safe: no interleaving
//! of sessions — racing to compute the same column or Y-bound table,
//! evicting each other's entries, hitting state another thread inserted a
//! microsecond ago — may ever change what any query answers.

use proptest::prelude::*;

use dht_nway::core::multiway::{NWayAlgorithm, NWayConfig};
use dht_nway::core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_nway::engine::{Engine, EngineConfig};
use dht_nway::prelude::*;

/// Strategy: a random directed weighted graph as an edge list over `n`
/// nodes.
fn er_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (9usize..21).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.25f64..4.0), 1..(n * 4));
        (Just(n), edges)
    })
}

/// Strategy: a stream of query descriptors `(two_way_algo, set pair, k,
/// every 4th one n-way)` over three overlapping node sets — overlap is the
/// point: different sessions keep needing each other's targets.
fn stream_strategy() -> impl Strategy<Value = Vec<(u32, u32, usize)>> {
    proptest::collection::vec((0u32..5, 0u32..3, 1usize..6), 4..10)
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

/// Three deliberately overlapping node sets (every pair shares nodes, so
/// concurrent sessions request the same backward columns).
fn overlapping_sets(n: usize) -> Vec<NodeSet> {
    let n = n as u32;
    let third = (n / 3).max(1);
    vec![
        NodeSet::new("A", (0..2 * third).map(NodeId)),
        NodeSet::new("B", (third..n).map(NodeId)),
        NodeSet::new("C", (0..n).step_by(2).map(NodeId)),
    ]
}

/// Builds the mixed query stream from the random descriptors.
fn build_stream(descriptors: &[(u32, u32, usize)], sets: &[NodeSet]) -> Vec<QuerySpec> {
    descriptors
        .iter()
        .enumerate()
        .map(|(i, &(algo, pair, k))| {
            let (left, right) = match pair {
                0 => (0usize, 1usize),
                1 => (1, 2),
                _ => (2, 0),
            };
            if i % 4 == 3 {
                NWaySpec::new(QueryGraph::chain(3), sets.to_vec(), k)
                    .with_aggregate(Aggregate::Min)
                    .with_fixed(NWayAlgorithm::AllPairs)
                    .into()
            } else {
                TwoWaySpec::new(sets[left].clone(), sets[right].clone(), k)
                    .with_fixed(TwoWayAlgorithm::ALL[algo as usize])
                    .into()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N sessions on N threads, one shared cache under heavy eviction
    /// pressure: every answer equals its one-shot reference, bitwise.
    #[test]
    fn hammered_shared_engine_matches_one_shot_answers(
        (n, edges) in er_graph_strategy(),
        descriptors in stream_strategy(),
    ) {
        let graph = build_graph(n, &edges);
        let sets = overlapping_sets(n);
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let specs = build_stream(&descriptors, &sets);

        // One-shot references, computed without any engine.
        let two_way_config = TwoWayConfig::paper_default();
        let n_way_config = NWayConfig::paper_default();

        // A budget worth ~2 columns of the largest generated graph, and a
        // Y-table store holding exactly one table: every session keeps
        // evicting what the others just inserted, in both caches.
        let engine = Engine::with_config(
            graph.clone(),
            EngineConfig::paper_default()
                .with_cache_bytes(2 * dht_nway::walks::column_bytes(21))
                .with_y_table_capacity(1),
        );
        prop_assert!(engine.shared_cache().is_some());
        prop_assert!(engine.shared_y_tables().is_some());

        for sessions in dht_nway::par::test_thread_counts(&[2, 4]) {
            let sessions = sessions.max(2); // the point is concurrency
            let outputs = engine
                .batch_sessions(&specs, sessions)
                .expect("stream is valid");
            prop_assert_eq!(outputs.len(), specs.len());
            for (index, (query, output)) in specs.iter().zip(outputs.iter()).enumerate() {
                match (query, output) {
                    (
                        QuerySpec::TwoWay(q),
                        dht_nway::engine::EngineOutput::TwoWay(out),
                    ) => {
                        let algorithm = q.algorithm.fixed().expect("stream pins every algorithm");
                        let cold = algorithm.top_k_with_ctx(&graph, &two_way_config, &q.p, &q.q, q.k, &mut QueryCtx::one_shot());
                        prop_assert_eq!(out.pairs.len(), cold.pairs.len(),
                            "query {} sessions={}", index, sessions);
                        for (a, b) in out.pairs.iter().zip(cold.pairs.iter()) {
                            prop_assert_eq!((a.left, a.right), (b.left, b.right),
                                "query {} sessions={}", index, sessions);
                            prop_assert!(a.score == b.score,
                                "query {} sessions={}: {} != {}",
                                index, sessions, a.score, b.score);
                        }
                        prop_assert_eq!(&out.stats, &cold.stats,
                            "stats diverged for query {} sessions={}", index, sessions);
                    }
                    (
                        QuerySpec::NWay(q),
                        dht_nway::engine::EngineOutput::NWay(out),
                    ) => {
                        let config = n_way_config
                            .with_aggregate(q.aggregate)
                            .with_k(q.k);
                        let algorithm = q.algorithm.fixed().expect("stream pins every algorithm");
                        let cold = algorithm
                            .run_with_ctx(&graph, &config, &q.query, &q.sets, &mut QueryCtx::one_shot())
                            .expect("valid query");
                        prop_assert_eq!(out.answers.len(), cold.answers.len(),
                            "query {} sessions={}", index, sessions);
                        for (a, b) in out.answers.iter().zip(cold.answers.iter()) {
                            prop_assert_eq!(&a.nodes, &b.nodes,
                                "query {} sessions={}", index, sessions);
                            prop_assert!(a.score == b.score,
                                "query {} sessions={}: {} != {}",
                                index, sessions, a.score, b.score);
                        }
                    }
                    _ => prop_assert!(false, "output kind changed for query {}", index),
                }
            }
        }
    }
}
