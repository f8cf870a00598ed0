//! The extension sketched in the paper's conclusion: compare DHT against
//! other random-walk proximity measures (Personalized PageRank, SimRank,
//! PathSim, plain truncated hitting time) on the *same* link-prediction task,
//! using the same train/test split and the same evaluation pipeline.
//!
//! Run with: `cargo run --release --example measure_comparison`

use dht_core::twoway::bbj;
use dht_core::QueryCtx;
use dht_datasets::split::link_prediction_split;
use dht_datasets::yeast::{self, YeastConfig};
use dht_datasets::Scale;
use dht_eval::linkpred;
use dht_measures::{
    DhtMeasure, KatzIndex, MeasureSource, PathSim, PersonalizedPageRank, ProximityMeasure, SimRank,
    TruncatedHittingTime,
};
use dht_walks::WalkEngine;

fn main() {
    let dataset = yeast::generate(&YeastConfig::for_scale(Scale::Tiny));
    println!("{}", dataset.summary());

    let sets = dataset.largest_sets(2);
    let (p, q) = (sets[0].clone(), sets[1].clone());
    let split = link_prediction_split(&dataset.graph, &p, &q, 0.5, 7)
        .expect("splitting a generated dataset cannot fail");
    println!(
        "link prediction {} ⋈ {}: {} hidden interactions, test graph keeps {}\n",
        p.name(),
        q.name(),
        split.removed.len(),
        split.kept.len()
    );

    // Every measure is evaluated through the same hook: a per-target score
    // column on the test graph.
    let dht = DhtMeasure::paper_default();
    let ppr = PersonalizedPageRank::default_web();
    let ht = TruncatedHittingTime::new(8).expect("depth 8 is valid");
    let pathsim = PathSim::co_occurrence();
    let katz = KatzIndex::link_prediction_default();
    let simrank = SimRank::kdd2002_default()
        .with_max_nodes(5_000)
        .compute(&split.test_graph)
        .expect("tiny yeast fits the dense SimRank solver");

    let measures: Vec<(&str, &(dyn ProximityMeasure + Sync))> = vec![
        ("DHT (λ=0.2)", &dht),
        ("PPR (c=0.85)", &ppr),
        ("hitting time", &ht),
        ("PathSim (L=2)", &pathsim),
        ("Katz (β=0.05)", &katz),
        ("SimRank (C=0.8)", &simrank),
    ];

    println!(
        "{:<16} {:>8} {:>12} {:>12}",
        "measure", "AUC", "TPR@FPR=0.1", "TPR@FPR=0.2"
    );
    for (name, measure) in &measures {
        let outcome = linkpred::evaluate_with(&dataset.graph, &split.test_graph, &p, &q, |g, t| {
            measure.scores_to_target(g, t)
        });
        println!(
            "{:<16} {:>8.4} {:>12.3} {:>12.3}",
            name,
            outcome.auc(),
            outcome.roc.tpr_at_fpr(0.1),
            outcome.roc.tpr_at_fpr(0.2)
        );
    }

    // The B-BJ join DHT runs, over each measure's columns, shows how the
    // rankings differ qualitatively: DHT/PPR favour strongly connected hubs,
    // PathSim favours balanced pairs.
    println!("\ntop-3 pairs per measure (on the full graph):");
    for (name, measure) in &measures {
        let source = MeasureSource::new(*measure, WalkEngine::default(), 1);
        let ctx = &mut QueryCtx::one_shot();
        let pairs = bbj::top_k(&dataset.graph, &source, &p, &q, 3, ctx).pairs;
        let rendered: Vec<String> = pairs
            .iter()
            .map(|pair| {
                format!(
                    "({}, {}) {:.4}",
                    dataset.graph.display_name(pair.left),
                    dataset.graph.display_name(pair.right),
                    pair.score
                )
            })
            .collect();
        println!("  {:<16} {}", name, rendered.join("   "));
    }
}
