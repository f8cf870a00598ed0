//! Property-based integration tests over randomly generated graphs: the
//! invariants that make the paper's pruning bounds and backward evaluation
//! correct must hold for *every* graph, not just the fixtures.

use proptest::prelude::*;

use dht_nway::prelude::*;
use dht_nway::walks::backward::backward_dht_all_sources;
use dht_nway::walks::bounds::{x_upper_bound, YBoundTable};
use dht_nway::walks::forward;

/// Strategy: a small directed weighted graph described as an edge list over
/// `n` nodes, plus the number of nodes.
fn small_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (3usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.5f64..5.0), 1..(n * 3));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward (per-pair absorbing walk) and backward (per-target walk)
    /// evaluation produce identical truncated DHT scores.
    #[test]
    fn forward_and_backward_dht_agree((n, edges) in small_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let params = DhtParams::paper_default();
        let d = 6;
        for target in graph.nodes() {
            let back = backward_dht_all_sources(&graph, &params, target, d);
            for source in graph.nodes() {
                if source == target { continue; }
                let fwd = forward::forward_dht(&graph, &params, source, target, d);
                prop_assert!((fwd - back[source.index()]).abs() < 1e-9,
                    "mismatch at ({source:?},{target:?}): {fwd} vs {}", back[source.index()]);
            }
        }
    }

    /// Truncated scores are monotone in the walk depth and bounded by the
    /// parameter range [β, αλ + β].
    #[test]
    fn truncated_scores_are_monotone_and_bounded((n, edges) in small_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let params = DhtParams::dht_lambda(0.3);
        for source in graph.nodes().take(4) {
            for target in graph.nodes().take(4) {
                if source == target { continue; }
                let mut previous = params.min_score();
                for d in 1..=6 {
                    let h = forward::forward_dht(&graph, &params, source, target, d);
                    prop_assert!(h >= previous - 1e-12);
                    prop_assert!(h >= params.min_score() - 1e-12);
                    prop_assert!(h <= params.max_score() + 1e-12);
                    previous = h;
                }
            }
        }
    }

    /// Lemma 2 / Theorem 1: both upper bounds are valid and Y is never
    /// looser than X.
    #[test]
    fn pruning_bounds_are_valid((n, edges) in small_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let params = DhtParams::dht_lambda(0.4);
        let d = 6;
        let p = NodeSet::new("P", graph.nodes().take(3));
        let table = YBoundTable::new(&graph, &params, &p, d);
        for target in graph.nodes() {
            let hits_full = backward_dht_all_sources(&graph, &params, target, d);
            for l in 1..d {
                let hits_partial = backward_dht_all_sources(&graph, &params, target, l);
                let x = x_upper_bound(&params, l);
                let y = table.bound(l, target);
                prop_assert!(y <= x + 1e-12, "Lemma 5 violated");
                for source in p.iter() {
                    if source == target { continue; }
                    let hd = hits_full[source.index()];
                    let hl = hits_partial[source.index()];
                    prop_assert!(hd <= hl + x + 1e-9, "X bound violated");
                    prop_assert!(hd <= hl + y + 1e-9, "Theorem 1 violated");
                }
            }
        }
    }

    /// The best backward algorithm (B-IDJ-Y) returns exactly the same top-k
    /// score sequence as the brute-force forward join.
    #[test]
    fn bidj_y_matches_brute_force((n, edges) in small_graph_strategy()) {
        let graph = build_graph(n, &edges);
        let config = TwoWayConfig::new(DhtParams::paper_default(), 6);
        let half = (n / 2).max(1) as u32;
        let p = NodeSet::new("P", (0..half).map(NodeId));
        let q = NodeSet::new("Q", (half..n as u32).map(NodeId));
        if p.is_empty() || q.is_empty() { return Ok(()); }
        let k = 5;
        let reference = TwoWayAlgorithm::ForwardBasic.top_k_with_ctx(&graph, &config, &p, &q, k, &mut QueryCtx::one_shot());
        let fast = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(&graph, &config, &p, &q, k, &mut QueryCtx::one_shot());
        prop_assert_eq!(reference.pairs.len(), fast.pairs.len());
        for (a, b) in reference.pairs.iter().zip(fast.pairs.iter()) {
            prop_assert!((a.score - b.score).abs() < 1e-9);
        }
    }
}
