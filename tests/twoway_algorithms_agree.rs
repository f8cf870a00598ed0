//! Cross-crate integration test: the five 2-way join algorithms return the
//! same top-k score sequences on generated datasets, for both published DHT
//! variants and several walk depths.

use dht_datasets::dblp::{self, DblpConfig};
use dht_datasets::yeast::{self, YeastConfig};
use dht_datasets::Scale;
use dht_nway::prelude::*;

fn assert_same_scores(label: &str, reference: &TwoWayOutput, candidate: &TwoWayOutput) {
    assert_eq!(
        reference.pairs.len(),
        candidate.pairs.len(),
        "{label}: result sizes differ"
    );
    for (i, (a, b)) in reference
        .pairs
        .iter()
        .zip(candidate.pairs.iter())
        .enumerate()
    {
        assert!(
            (a.score - b.score).abs() < 1e-9,
            "{label}: rank {i}: {} vs {}",
            a.score,
            b.score
        );
    }
}

fn check_all_algorithms(graph: &Graph, config: &TwoWayConfig, p: &NodeSet, q: &NodeSet, k: usize) {
    let reference = TwoWayAlgorithm::ForwardBasic.top_k_with_ctx(
        graph,
        config,
        p,
        q,
        k,
        &mut QueryCtx::one_shot(),
    );
    for algorithm in [
        TwoWayAlgorithm::ForwardIdj,
        TwoWayAlgorithm::BackwardBasic,
        TwoWayAlgorithm::BackwardIdjX,
        TwoWayAlgorithm::BackwardIdjY,
    ] {
        let out = algorithm.top_k_with_ctx(graph, config, p, q, k, &mut QueryCtx::one_shot());
        assert_same_scores(algorithm.name(), &reference, &out);
    }
}

fn capped(set: &NodeSet, cap: usize) -> NodeSet {
    NodeSet::new(set.name(), set.iter().take(cap))
}

#[test]
fn all_algorithms_agree_on_the_yeast_analogue() {
    let dataset = yeast::generate(&YeastConfig::for_scale(Scale::Tiny));
    let sets = dataset.largest_sets(2);
    let p = capped(sets[0], 15);
    let q = capped(sets[1], 15);
    let config = TwoWayConfig::paper_default();
    check_all_algorithms(&dataset.graph, &config, &p, &q, 10);
}

#[test]
fn all_algorithms_agree_on_the_dblp_analogue_with_dht_e() {
    let dataset = dblp::generate(&DblpConfig::for_scale(Scale::Tiny));
    let p = capped(dataset.node_set("DB").unwrap(), 12);
    let q = capped(dataset.node_set("AI").unwrap(), 12);
    let params = DhtParams::dht_e();
    let d = params.depth_for_epsilon(1e-6).unwrap();
    let config = TwoWayConfig::new(params, d);
    check_all_algorithms(&dataset.graph, &config, &p, &q, 8);
}

#[test]
fn all_algorithms_agree_at_a_large_decay_factor() {
    let dataset = yeast::generate(&YeastConfig::for_scale(Scale::Tiny));
    let sets = dataset.largest_sets(2);
    let p = capped(sets[0], 10);
    let q = capped(sets[1], 10);
    let params = DhtParams::dht_lambda(0.7);
    let d = params.depth_for_epsilon(1e-4).unwrap();
    let config = TwoWayConfig::new(params, d);
    check_all_algorithms(&dataset.graph, &config, &p, &q, 12);
}

#[test]
fn swapping_the_operands_changes_the_direction_of_the_scores() {
    // DHT is asymmetric: joining (P, Q) scores h(p, q), joining (Q, P)
    // scores h(q, p).  On an undirected graph with uniform weights the two
    // usually differ because of degree normalisation.
    let dataset = dblp::generate(&DblpConfig::for_scale(Scale::Tiny));
    let p = capped(dataset.node_set("DB").unwrap(), 10);
    let q = capped(dataset.node_set("AI").unwrap(), 10);
    let config = TwoWayConfig::paper_default();
    let forward = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(
        &dataset.graph,
        &config,
        &p,
        &q,
        5,
        &mut QueryCtx::one_shot(),
    );
    let backward = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(
        &dataset.graph,
        &config,
        &q,
        &p,
        5,
        &mut QueryCtx::one_shot(),
    );
    // Both are valid rankings; the point is simply that the API treats the
    // ordered pair of node sets as directional.
    assert_eq!(forward.pairs.len(), backward.pairs.len());
    assert!(forward
        .pairs
        .iter()
        .all(|pr| p.contains(pr.left) && q.contains(pr.right)));
    assert!(backward
        .pairs
        .iter()
        .all(|pr| q.contains(pr.left) && p.contains(pr.right)));
}
