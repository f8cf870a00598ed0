//! Integration tests for the alternative-measure extension on the synthetic
//! dataset analogues: the generic joins must behave sensibly end-to-end
//! (community structure recovered, rankings consistent with the dedicated
//! DHT algorithms, link prediction clearly better than chance).

use dht_nway::core::multiway::ap;
use dht_nway::core::twoway::bbj;
use dht_nway::datasets::yeast::{self, YeastConfig};
use dht_nway::datasets::{dblp, Scale};
use dht_nway::eval::linkpred;
use dht_nway::measures::{
    DhtMeasure, MeasureSource, PersonalizedPageRank, ProximityMeasure, SimRank,
    TruncatedHittingTime,
};
use dht_nway::prelude::*;
use dht_nway::walks::WalkEngine;

fn yeast_tiny() -> dht_nway::datasets::Dataset {
    yeast::generate(&YeastConfig::for_scale(Scale::Tiny))
}

/// The columns of `measure` on the default walk engine, built serially.
fn serial<M: ?Sized>(measure: &M) -> MeasureSource<'_, M> {
    MeasureSource::new(measure, WalkEngine::default(), 1)
}

#[test]
fn generic_dht_join_matches_dedicated_join_on_yeast() {
    let data = yeast_tiny();
    let sets = data.largest_sets(2);
    let (p, q) = (sets[0].clone(), sets[1].clone());
    let k = 25;
    let dedicated = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(
        &data.graph,
        &TwoWayConfig::paper_default(),
        &p,
        &q,
        k,
        &mut QueryCtx::one_shot(),
    );
    let dht = DhtMeasure::paper_default();
    let generic = bbj::top_k(
        &data.graph,
        &serial(&dht),
        &p,
        &q,
        k,
        &mut QueryCtx::one_shot(),
    );
    let generic = generic.pairs;
    assert_eq!(dedicated.pairs.len(), generic.len());
    for (a, b) in dedicated.pairs.iter().zip(generic.iter()) {
        assert!(
            (a.score - b.score).abs() < 1e-9,
            "{} vs {}",
            a.score,
            b.score
        );
    }
}

#[test]
fn ppr_and_ht_rank_intra_community_pairs_first_on_dblp() {
    // On the DBLP analogue, the top pair of a join between two research areas
    // should involve nodes that actually interact (positive similarity), and
    // the ranking should be strictly sorted.
    let data = dblp::generate(&dblp::DblpConfig {
        areas: 3,
        authors_per_area: 120,
        avg_internal_degree: 6.0,
        avg_external_degree: 1.5,
        top_authors_per_set: 25,
        cross_area_triangles: 10,
        seed: 99,
    });
    let sets = data.largest_sets(2);
    let (p, q) = (sets[0].clone(), sets[1].clone());

    let (ppr, ht) = (
        PersonalizedPageRank::default_web(),
        TruncatedHittingTime::new(8).unwrap(),
    );
    let ctx = &mut QueryCtx::one_shot();
    for (name, pairs) in [
        (
            "PPR",
            bbj::top_k(&data.graph, &serial(&ppr), &p, &q, 10, ctx).pairs,
        ),
        (
            "HT",
            bbj::top_k(&data.graph, &serial(&ht), &p, &q, 10, ctx).pairs,
        ),
    ] {
        assert_eq!(pairs.len(), 10, "{name}: wrong result size");
        assert!(
            pairs[0].score > 0.0,
            "{name}: top pair has no similarity at all"
        );
        for w in pairs.windows(2) {
            assert!(
                w[0].score >= w[1].score - 1e-15,
                "{name}: ranking not sorted"
            );
        }
    }
}

#[test]
fn simrank_dense_solver_handles_the_yeast_analogue() {
    let data = yeast_tiny();
    assert!(
        data.graph.node_count() <= 1_000,
        "tiny yeast should fit the dense solver"
    );
    let matrix = SimRank::kdd2002_default().compute(&data.graph).unwrap();
    let sets = data.largest_sets(2);
    let (p, q) = (sets[0].clone(), sets[1].clone());
    let pairs = bbj::top_k(
        &data.graph,
        &serial(&matrix),
        &p,
        &q,
        15,
        &mut QueryCtx::one_shot(),
    );
    let pairs = pairs.pairs;
    assert_eq!(pairs.len(), 15);
    for pair in &pairs {
        assert!(pair.score >= 0.0 && pair.score <= 1.0);
        assert!(p.contains(pair.left) && q.contains(pair.right));
        assert_ne!(pair.left, pair.right);
    }
}

#[test]
fn measure_nway_join_respects_query_and_aggregate_semantics() {
    let data = yeast_tiny();
    let sets: Vec<NodeSet> = data.largest_sets(3).into_iter().cloned().collect();
    let query = QueryGraph::chain(3);
    let ppr = PersonalizedPageRank::new(0.85, 6).unwrap();

    let (source, ctx) = (serial(&ppr), &mut QueryCtx::one_shot());
    let min_out = ap::run_over(&data.graph, &source, &query, &sets, Aggregate::Min, 5, ctx);
    let sum_out = ap::run_over(&data.graph, &source, &query, &sets, Aggregate::Sum, 5, ctx);
    let (min_out, sum_out) = (min_out.unwrap(), sum_out.unwrap());
    assert_eq!(min_out.answers.len(), 5);
    assert_eq!(sum_out.answers.len(), 5);

    for out in [&min_out, &sum_out] {
        for answer in &out.answers {
            assert_eq!(answer.arity(), 3);
            for (i, &node) in answer.nodes.iter().enumerate() {
                assert!(sets[i].contains(node), "answer node not drawn from its set");
            }
        }
        for w in out.answers.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-15);
        }
    }

    // Recompute each answer's aggregate from single-pair scores and check it.
    for (aggregate, out) in [(Aggregate::Min, &min_out), (Aggregate::Sum, &sum_out)] {
        for answer in &out.answers {
            let edge_scores: Vec<f64> = query
                .edges()
                .iter()
                .map(|&(i, j)| ppr.score(&data.graph, answer.nodes[i], answer.nodes[j]))
                .collect();
            let expected = aggregate.combine(&edge_scores);
            assert!(
                (answer.score - expected).abs() < 1e-9,
                "aggregate mismatch: reported {} vs recomputed {expected}",
                answer.score
            );
        }
    }
}

#[test]
fn every_measure_beats_random_guessing_at_link_prediction_on_yeast() {
    let data = yeast_tiny();
    let sets = data.largest_sets(2);
    let (p, q) = (sets[0].clone(), sets[1].clone());
    let split =
        dht_nway::datasets::split::link_prediction_split(&data.graph, &p, &q, 0.5, 2014).unwrap();
    assert!(!split.removed.is_empty());

    let dht = DhtMeasure::paper_default();
    let ppr = PersonalizedPageRank::default_web();
    let ht = TruncatedHittingTime::new(8).unwrap();

    let mut aucs = Vec::new();
    for (name, measure) in [
        ("DHT", &dht as &dyn ProximityMeasure),
        ("PPR", &ppr as &dyn ProximityMeasure),
        ("HT", &ht as &dyn ProximityMeasure),
    ] {
        let result = linkpred::evaluate_with(&data.graph, &split.test_graph, &p, &q, |g, t| {
            measure.scores_to_target(g, t)
        });
        assert!(
            result.auc() > 0.6,
            "{name} should clearly beat random guessing, got AUC {}",
            result.auc()
        );
        aucs.push((name, result.auc()));
    }
    // All three are random-walk measures on the same graph; their AUCs should
    // be in the same ballpark (no degenerate scoring).
    let max = aucs.iter().map(|&(_, a)| a).fold(f64::MIN, f64::max);
    let min = aucs.iter().map(|&(_, a)| a).fold(f64::MAX, f64::min);
    assert!(max - min < 0.35, "AUC spread suspiciously large: {aucs:?}");
}
