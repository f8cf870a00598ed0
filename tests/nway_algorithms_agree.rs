//! Cross-crate integration test: all four n-way join algorithms return the
//! same top-k scores on every query-graph shape the paper uses, on graphs
//! produced by the dataset generators (not just hand-built fixtures).

use dht_datasets::dblp::{self, DblpConfig};
use dht_datasets::yeast::{self, YeastConfig};
use dht_datasets::Scale;
use dht_nway::prelude::*;

fn assert_same_scores(label: &str, reference: &NWayOutput, candidate: &NWayOutput) {
    assert_eq!(
        reference.answers.len(),
        candidate.answers.len(),
        "{label}: answer counts differ"
    );
    for (i, (a, b)) in reference
        .answers
        .iter()
        .zip(candidate.answers.iter())
        .enumerate()
    {
        assert!(
            (a.score - b.score).abs() < 1e-9,
            "{label}: rank {i} scores differ: {} vs {}",
            a.score,
            b.score
        );
    }
}

fn run_all(graph: &Graph, config: &NWayConfig, query: &QueryGraph, sets: &[NodeSet], label: &str) {
    let nl = NWayAlgorithm::NestedLoop
        .run_with_ctx(graph, config, query, sets, &mut QueryCtx::one_shot())
        .unwrap();
    let ap = NWayAlgorithm::AllPairs
        .run_with_ctx(graph, config, query, sets, &mut QueryCtx::one_shot())
        .unwrap();
    let pj = NWayAlgorithm::PartialJoin { m: 5 }
        .run_with_ctx(graph, config, query, sets, &mut QueryCtx::one_shot())
        .unwrap();
    let pji = NWayAlgorithm::IncrementalPartialJoin { m: 5 }
        .run_with_ctx(graph, config, query, sets, &mut QueryCtx::one_shot())
        .unwrap();
    assert_same_scores(&format!("{label}/AP"), &nl, &ap);
    assert_same_scores(&format!("{label}/PJ"), &nl, &pj);
    assert_same_scores(&format!("{label}/PJ-i"), &nl, &pji);
    // answers are sorted by non-increasing score
    for w in nl.answers.windows(2) {
        assert!(w[0].score >= w[1].score - 1e-12);
    }
}

fn small_sets(sets: &[NodeSet], count: usize, cap: usize) -> Vec<NodeSet> {
    sets.iter()
        .take(count)
        .map(|s| NodeSet::new(s.name(), s.iter().take(cap)))
        .collect()
}

#[test]
fn chain_queries_agree_on_the_dblp_analogue() {
    let dataset = dblp::generate(&DblpConfig::for_scale(Scale::Tiny));
    let sets = small_sets(&dataset.node_sets, 3, 8);
    let config = NWayConfig::paper_default().with_k(6);
    run_all(
        &dataset.graph,
        &config,
        &QueryGraph::chain(3),
        &sets,
        "dblp chain",
    );
}

#[test]
fn triangle_queries_agree_on_the_dblp_analogue() {
    let dataset = dblp::generate(&DblpConfig::for_scale(Scale::Tiny));
    let sets = small_sets(&dataset.node_sets, 3, 6);
    let config = NWayConfig::paper_default().with_k(4);
    run_all(
        &dataset.graph,
        &config,
        &QueryGraph::triangle(),
        &sets,
        "dblp triangle",
    );
}

#[test]
fn star_queries_agree_on_the_yeast_analogue() {
    let dataset = yeast::generate(&YeastConfig::for_scale(Scale::Tiny));
    let sets = small_sets(
        &dataset
            .largest_sets(4)
            .into_iter()
            .cloned()
            .collect::<Vec<_>>(),
        4,
        6,
    );
    let config = NWayConfig::paper_default().with_k(5);
    run_all(
        &dataset.graph,
        &config,
        &QueryGraph::star(4),
        &sets,
        "yeast star",
    );
}

#[test]
fn sum_aggregate_agrees_as_well() {
    let dataset = yeast::generate(&YeastConfig::for_scale(Scale::Tiny));
    let sets = small_sets(
        &dataset
            .largest_sets(3)
            .into_iter()
            .cloned()
            .collect::<Vec<_>>(),
        3,
        7,
    );
    let config = NWayConfig::paper_default()
        .with_k(5)
        .with_aggregate(Aggregate::Sum);
    run_all(
        &dataset.graph,
        &config,
        &QueryGraph::chain(3),
        &sets,
        "yeast sum chain",
    );
}

#[test]
fn four_way_cycle_agrees_on_a_planted_partition_graph() {
    let cg = dht_nway::graph::generators::planted_partition(&PlantedPartitionConfig {
        communities: 4,
        community_size: 8,
        avg_internal_degree: 4.0,
        avg_external_degree: 2.0,
        weighted: true,
        seed: 11,
    });
    let config = NWayConfig::paper_default().with_k(5);
    run_all(
        &cg.graph,
        &config,
        &QueryGraph::cycle(4),
        &cg.communities,
        "cycle 4",
    );
}
