//! End-to-end smoke tests over the full stack: generate each synthetic
//! dataset, run the paper's headline queries on it, and check the
//! effectiveness pipeline produces sensible quality numbers.

use dht_datasets::split::link_prediction_split;
use dht_datasets::{dblp, yeast, youtube, Scale};
use dht_eval::linkpred;
use dht_nway::prelude::*;

fn capped(set: &NodeSet, cap: usize) -> NodeSet {
    NodeSet::new(set.name(), set.iter().take(cap))
}

#[test]
fn dblp_expert_finding_returns_ranked_cross_area_triples() {
    let dataset = dblp::generate(&dblp::DblpConfig::for_scale(Scale::Tiny));
    let sets: Vec<NodeSet> = ["DB", "AI", "SYS"]
        .iter()
        .map(|n| dataset.node_set(n).unwrap().clone())
        .collect();
    let config = NWayConfig::paper_default().with_k(5);
    let result = NWayAlgorithm::IncrementalPartialJoin { m: 50 }
        .run_with_ctx(
            &dataset.graph,
            &config,
            &QueryGraph::triangle(),
            &sets,
            &mut QueryCtx::one_shot(),
        )
        .unwrap();
    assert!(
        !result.answers.is_empty(),
        "the triangle join should find connected triples"
    );
    for answer in &result.answers {
        assert_eq!(answer.arity(), 3);
        // each component comes from its own area
        for (node, set) in answer.nodes.iter().zip(sets.iter()) {
            assert!(set.contains(*node));
        }
        // labels carry the area prefix
        assert!(dataset
            .graph
            .label(answer.nodes[0])
            .unwrap()
            .starts_with("DB-"));
    }
    for w in result.answers.windows(2) {
        assert!(w[0].score >= w[1].score - 1e-12);
    }
}

#[test]
fn yeast_link_prediction_beats_random_guessing() {
    let dataset = yeast::generate(&yeast::YeastConfig::for_scale(Scale::Tiny));
    let sets = dataset.largest_sets(2);
    let (p, q) = (sets[0].clone(), sets[1].clone());
    let split = link_prediction_split(&dataset.graph, &p, &q, 0.5, 99).unwrap();
    let outcome = linkpred::evaluate(
        &dataset.graph,
        &split.test_graph,
        &p,
        &q,
        &DhtParams::paper_default(),
        8,
    );
    assert!(outcome.positives > 0);
    assert!(outcome.auc() > 0.6, "AUC was only {}", outcome.auc());
}

#[test]
fn youtube_star_query_runs_across_interest_groups() {
    let dataset = youtube::generate(&youtube::YoutubeConfig::for_scale(Scale::Tiny));
    let sets: Vec<NodeSet> = ["G1", "G2", "G3", "G4"]
        .iter()
        .map(|n| capped(dataset.node_set(n).unwrap(), 25))
        .collect();
    let config = NWayConfig::paper_default().with_k(4);
    let result = NWayAlgorithm::IncrementalPartialJoin { m: 25 }
        .run_with_ctx(
            &dataset.graph,
            &config,
            &QueryGraph::star(4),
            &sets,
            &mut QueryCtx::one_shot(),
        )
        .unwrap();
    // answers may be fewer than k on a tiny graph, but each one must be a
    // valid assignment drawn from the supplied groups
    for answer in &result.answers {
        assert_eq!(answer.arity(), 4);
        for (node, set) in answer.nodes.iter().zip(sets.iter()) {
            assert!(set.contains(*node));
        }
    }
}

#[test]
fn both_dht_variants_run_the_full_pipeline() {
    let dataset = yeast::generate(&yeast::YeastConfig::for_scale(Scale::Tiny));
    let sets = dataset.largest_sets(3);
    let query_sets: Vec<NodeSet> = sets.iter().map(|s| capped(s, 10)).collect();
    for params in [DhtParams::paper_default(), DhtParams::dht_e()] {
        let d = params.depth_for_epsilon(1e-6).unwrap();
        let config = NWayConfig::new(params, d, Aggregate::Min, 5);
        let result = NWayAlgorithm::IncrementalPartialJoin { m: 10 }
            .run_with_ctx(
                &dataset.graph,
                &config,
                &QueryGraph::chain(3),
                &query_sets,
                &mut QueryCtx::one_shot(),
            )
            .unwrap();
        for w in result.answers.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
    }
}

#[test]
fn graph_round_trips_through_the_edge_list_format() {
    // io substrate works end-to-end with the generators
    let dataset = yeast::generate(&yeast::YeastConfig::for_scale(Scale::Tiny));
    let text = dht_nway::graph::io::to_edge_list(&dataset.graph);
    let parsed = dht_nway::graph::io::parse_edge_list(&text).unwrap();
    assert_eq!(parsed.node_count(), dataset.graph.node_count());
    assert_eq!(parsed.edge_count(), dataset.graph.edge_count());
}
