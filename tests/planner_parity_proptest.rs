//! Property-based parity tests for the cost-based planner: on random
//! graphs and specs, an `Auto` query must answer **bit-identically** to
//! the fixed algorithm its plan names *and* to every other algorithm of
//! the backward family `Auto` selects from — at every tested thread count
//! (`DHT_TEST_THREADS`, default 1 and 4), on cold and warm sessions —
//! and its scores must agree with the forward algorithms to 1e-9 (forward
//! and backward walks sum the same series in different floating-point
//! orders, so cross-family equality is float-tolerance, matching the
//! algorithms-agree integration tests).
//!
//! The backward-family bitwise agreement (B-BJ ≡ B-IDJ-X ≡ B-IDJ-Y) is
//! load-bearing: `Auto` restricts its selection to that family precisely
//! so that warmth-dependent plan flips — cache state varies with session
//! count and scheduling — can never change any answer's bits.  This is
//! the contract that makes `Auto` safe to ship: planning may only move
//! latency, never what any query answers.  The tests also pin that
//! planning is deterministic (same session state → same plan) and that
//! explain-then-run agrees with `run_with_plan`.

use proptest::prelude::*;

use dht_nway::core::spec::{AlgorithmChoice, NWaySpec, QuerySpec, TwoWaySpec};
use dht_nway::core::twoway::TwoWayConfig;
use dht_nway::engine::{Engine, EngineConfig, EngineOutput};
use dht_nway::prelude::*;

/// Strategy: a random Erdős–Rényi-style directed weighted graph given as an
/// edge list over `n` nodes.
fn er_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (8usize..24).prop_flat_map(|n| {
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

/// Thread counts under test (CI matrix sets `DHT_TEST_THREADS`).
fn thread_counts() -> Vec<usize> {
    dht_nway::par::test_thread_counts(&[1, 4])
}

/// The documented Yeast scenario (README "Choosing an algorithm"): on the
/// Yeast analogue's two largest partitions, a cold session plans the
/// top-10 join as B-IDJ-Y (pruning skips most per-target walks), and the
/// **same spec** plans as B-BJ once the target columns are resident —
/// with bit-identical answers either way.
#[test]
fn documented_yeast_scenario_flips_from_bidjy_to_bbj_with_warmth() {
    use dht_nway::datasets::yeast::{self, YeastConfig};
    use dht_nway::datasets::Scale;

    let dataset = yeast::generate(&YeastConfig::for_scale(Scale::Tiny));
    let largest = dataset.largest_sets(2);
    let cap = |set: &NodeSet| NodeSet::new(set.name(), set.iter().take(20));
    let (p, q) = (cap(largest[0]), cap(largest[1]));
    let engine = Engine::new(dataset.graph.clone());
    let mut session = engine.session();
    let spec = QuerySpec::two_way(p.clone(), q.clone(), 10);

    let cold = session.explain(&spec).expect("valid spec");
    assert_eq!(
        cold.chosen.two_way(),
        Some(TwoWayAlgorithm::BackwardIdjY),
        "cold Yeast plan: {cold}"
    );
    assert_eq!(cold.resident_columns, 0);

    let EngineOutput::TwoWay(auto_cold) = session.run(&spec).expect("valid spec") else {
        unreachable!("two-way spec");
    };

    // Warm every target column at full depth, then re-explain.
    session.two_way(TwoWayAlgorithm::BackwardBasic, &p, &q, 10);
    let warm = session.explain(&spec).expect("valid spec");
    assert_eq!(warm.resident_columns, q.len(), "warm Yeast plan: {warm}");
    assert_eq!(
        warm.chosen.two_way(),
        Some(TwoWayAlgorithm::BackwardBasic),
        "warm Yeast plan: {warm}"
    );

    let EngineOutput::TwoWay(auto_warm) = session.run(&spec).expect("valid spec") else {
        unreachable!("two-way spec");
    };
    assert_eq!(
        auto_cold.pairs, auto_warm.pairs,
        "the flip must not change answers"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two-way `Auto` specs: bit-identical to the plan's chosen algorithm,
    /// score-identical (1e-9) to every fixed algorithm, on cold and warm
    /// sessions.
    #[test]
    fn auto_two_way_specs_match_every_fixed_algorithm(
        (n, edges) in er_graph_strategy(),
        k in 1usize..8,
    ) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(n);
        prop_assume!(!p.is_empty() && !q.is_empty());
        let spec = QuerySpec::two_way(p.clone(), q.clone(), k);
        for threads in thread_counts() {
            let engine = Engine::with_config(
                graph.clone(),
                EngineConfig::paper_default().with_threads(threads),
            );
            let one_shot_config = TwoWayConfig::paper_default().with_threads(threads);
            let mut session = engine.session();
            // Two passes: the first plans cold, the second plans against
            // whatever the first warmed (possibly a different algorithm).
            for pass in 0..2 {
                // Planning is deterministic: explain twice, same choice.
                let plan_a = session.explain(&spec).expect("valid spec");
                let plan_b = session.explain(&spec).expect("valid spec");
                prop_assert_eq!(&plan_a.chosen, &plan_b.chosen,
                    "pass={} threads={}", pass, threads);
                prop_assert!(plan_a.auto);

                let (plan, output) = session.run_with_plan(&spec).expect("valid spec");
                prop_assert_eq!(&plan.chosen, &plan_a.chosen,
                    "run_with_plan must follow explain: pass={} threads={}", pass, threads);
                let EngineOutput::TwoWay(auto_out) = output else {
                    prop_assert!(false, "two-way spec produced an n-way output");
                    unreachable!();
                };
                let chosen = plan.chosen.two_way().expect("two-way plan");

                // Bitwise vs the chosen algorithm's one-shot run.
                let reference = chosen.top_k_with_ctx(&graph, &one_shot_config, &p, &q, k, &mut QueryCtx::one_shot());
                prop_assert_eq!(auto_out.pairs.len(), reference.pairs.len(),
                    "{} pass={} threads={}", chosen.name(), pass, threads);
                for (a, b) in auto_out.pairs.iter().zip(reference.pairs.iter()) {
                    prop_assert_eq!((a.left, a.right), (b.left, b.right),
                        "{} pass={} threads={}", chosen.name(), pass, threads);
                    prop_assert!(a.score == b.score,
                        "{} pass={} threads={}: auto {} != fixed {}",
                        chosen.name(), pass, threads, a.score, b.score);
                }

                // Bitwise vs the whole backward family (what Auto selects
                // from — this is what makes warmth-dependent plan flips
                // answer-invariant), 1e-9 vs the forward algorithms.
                for algorithm in TwoWayAlgorithm::ALL {
                    let backward = !matches!(
                        algorithm,
                        TwoWayAlgorithm::ForwardBasic | TwoWayAlgorithm::ForwardIdj
                    );
                    let fixed = algorithm.top_k_with_ctx(&graph, &one_shot_config, &p, &q, k, &mut QueryCtx::one_shot());
                    prop_assert_eq!(auto_out.pairs.len(), fixed.pairs.len(),
                        "{} pass={} threads={}", algorithm.name(), pass, threads);
                    for (rank, (a, b)) in
                        auto_out.pairs.iter().zip(fixed.pairs.iter()).enumerate()
                    {
                        if backward {
                            prop_assert_eq!((a.left, a.right), (b.left, b.right),
                                "{} pass={} threads={} rank={}",
                                algorithm.name(), pass, threads, rank);
                            prop_assert!(a.score == b.score,
                                "{} pass={} threads={} rank={}: auto {} != fixed {}",
                                algorithm.name(), pass, threads, rank, a.score, b.score);
                        } else {
                            prop_assert!((a.score - b.score).abs() < 1e-9,
                                "{} pass={} threads={} rank={}: {} vs {}",
                                algorithm.name(), pass, threads, rank, a.score, b.score);
                        }
                    }
                }
            }
        }
    }

    /// N-way `Auto` specs: bit-identical to the plan's chosen algorithm,
    /// score-identical (1e-9) to every fixed n-way algorithm.
    #[test]
    fn auto_n_way_specs_match_every_fixed_algorithm(
        (n, edges) in er_graph_strategy(),
        k in 1usize..5,
        m in 1usize..6,
        star in 0u32..2,
    ) {
        let star = star == 1;
        let graph = build_graph(n, &edges);
        let third = (n as u32 / 3).max(1);
        let sets = vec![
            NodeSet::new("A", (0..third).map(NodeId)),
            NodeSet::new("B", (third..2 * third).map(NodeId)),
            NodeSet::new("C", (2 * third..n as u32).map(NodeId)),
        ];
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let query = if star { QueryGraph::star(3) } else { QueryGraph::chain(3) };
        let spec = QuerySpec::NWay(NWaySpec::new(query.clone(), sets.clone(), k));
        for threads in thread_counts() {
            let engine = Engine::with_config(
                graph.clone(),
                EngineConfig::paper_default().with_threads(threads),
            );
            let config = NWayConfig::paper_default().with_k(k).with_threads(threads);
            let mut session = engine.session();
            for pass in 0..2 {
                let (plan, output) = session.run_with_plan(&spec).expect("valid spec");
                prop_assert!(plan.auto);
                let chosen = plan.chosen.n_way().expect("n-way plan");
                let EngineOutput::NWay(auto_out) = output else {
                    prop_assert!(false, "n-way spec produced a two-way output");
                    unreachable!();
                };

                // Bitwise vs the chosen algorithm's one-shot run.
                let reference = chosen
                    .run_with_ctx(&graph, &config, &query, &sets, &mut QueryCtx::one_shot())
                    .expect("valid query");
                prop_assert_eq!(auto_out.answers.len(), reference.answers.len(),
                    "{} pass={} threads={}", chosen.name(), pass, threads);
                for (a, b) in auto_out.answers.iter().zip(reference.answers.iter()) {
                    prop_assert_eq!(&a.nodes, &b.nodes,
                        "{} pass={} threads={}", chosen.name(), pass, threads);
                    prop_assert!(a.score == b.score,
                        "{} pass={} threads={}: auto {} != fixed {}",
                        chosen.name(), pass, threads, a.score, b.score);
                }

                // Exact score parity vs the partial-join (backward) family
                // Auto selects from; 1e-9 vs the forward-joining NL / AP.
                for algorithm in [
                    NWayAlgorithm::NestedLoop,
                    NWayAlgorithm::AllPairs,
                    NWayAlgorithm::PartialJoin { m },
                    NWayAlgorithm::IncrementalPartialJoin { m },
                ] {
                    let backward = matches!(
                        algorithm,
                        NWayAlgorithm::PartialJoin { .. }
                            | NWayAlgorithm::IncrementalPartialJoin { .. }
                    );
                    let fixed = algorithm
                        .run_with_ctx(&graph, &config, &query, &sets, &mut QueryCtx::one_shot())
                        .expect("valid query");
                    prop_assert_eq!(auto_out.answers.len(), fixed.answers.len(),
                        "{} pass={} threads={}", algorithm.name(), pass, threads);
                    for (rank, (a, b)) in
                        auto_out.answers.iter().zip(fixed.answers.iter()).enumerate()
                    {
                        if backward {
                            prop_assert!(a.score == b.score,
                                "{} pass={} threads={} rank={}: auto {} != fixed {}",
                                algorithm.name(), pass, threads, rank, a.score, b.score);
                        } else {
                            prop_assert!((a.score - b.score).abs() < 1e-9,
                                "{} pass={} threads={} rank={}: {} vs {}",
                                algorithm.name(), pass, threads, rank, a.score, b.score);
                        }
                    }
                }
            }
        }
    }

    /// Fixed specs dispatch to exactly the pinned algorithm: bitwise equal
    /// to the one-shot call, with a non-auto plan.
    #[test]
    fn fixed_specs_run_the_pinned_algorithm_bitwise(
        (n, edges) in er_graph_strategy(),
        algo in 0u32..5,
        k in 1usize..6,
    ) {
        let graph = build_graph(n, &edges);
        let (p, q) = split_sets(n);
        prop_assume!(!p.is_empty() && !q.is_empty());
        let algorithm = TwoWayAlgorithm::ALL[algo as usize];
        let spec = QuerySpec::TwoWay(
            TwoWaySpec::new(p.clone(), q.clone(), k)
                .with_algorithm(AlgorithmChoice::Fixed(algorithm)),
        );
        for threads in thread_counts() {
            let engine = Engine::with_config(
                graph.clone(),
                EngineConfig::paper_default().with_threads(threads),
            );
            let mut session = engine.session();
            let (plan, output) = session.run_with_plan(&spec).expect("valid spec");
            prop_assert!(!plan.auto);
            prop_assert_eq!(plan.chosen.two_way(), Some(algorithm));
            let EngineOutput::TwoWay(out) = output else {
                prop_assert!(false, "two-way spec produced an n-way output");
                unreachable!();
            };
            let config = TwoWayConfig::paper_default().with_threads(threads);
            let reference = algorithm.top_k_with_ctx(&graph, &config, &p, &q, k, &mut QueryCtx::one_shot());
            prop_assert_eq!(out.pairs.len(), reference.pairs.len());
            for (a, b) in out.pairs.iter().zip(reference.pairs.iter()) {
                prop_assert_eq!((a.left, a.right), (b.left, b.right));
                prop_assert!(a.score == b.score, "{} != {}", a.score, b.score);
            }
        }
    }
}
