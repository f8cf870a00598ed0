//! Link prediction (Section VII-B.2 of the paper): hide half of the
//! interactions between two protein groups of a PPI network, rank the
//! missing links with a 2-way DHT join on the remaining graph, and measure
//! how well the ranking recovers the hidden interactions (ROC / AUC).
//!
//! Run with: `cargo run --release --example link_prediction`

use dht_datasets::split::link_prediction_split;
use dht_datasets::yeast::{self, YeastConfig};
use dht_datasets::Scale;
use dht_eval::linkpred;
use dht_nway::prelude::*;

fn main() {
    let dataset = yeast::generate(&YeastConfig::for_scale(Scale::Tiny));
    println!("{}", dataset.summary());

    // The two largest partitions play the role of the paper's 3-U and 8-D.
    let sets = dataset.largest_sets(2);
    let (p, q) = (sets[0].clone(), sets[1].clone());
    println!(
        "predicting links between {} ({} nodes) and {} ({} nodes)",
        p.name(),
        p.len(),
        q.name(),
        q.len()
    );

    // Hold out half of the P–Q interactions to form the test graph T.
    let split = link_prediction_split(&dataset.graph, &p, &q, 0.5, 42)
        .expect("splitting a generated dataset cannot fail");
    println!(
        "held out {} interactions; {} remain in the test graph",
        split.removed.len(),
        split.kept.len()
    );

    // Score every unlinked (p, q) pair on T and evaluate against the truth.
    let params = DhtParams::paper_default();
    let outcome = linkpred::evaluate(&dataset.graph, &split.test_graph, &p, &q, &params, 8);
    println!(
        "\ncandidates: {} positives (hidden links), {} negatives",
        outcome.positives, outcome.negatives
    );
    println!("AUC = {:.4}", outcome.auc());
    println!("\nROC operating points:");
    for fpr in [0.01f64, 0.05, 0.1, 0.2, 0.5] {
        println!(
            "  FPR {:>5.2} → TPR {:.3}",
            fpr,
            outcome.roc.tpr_at_fpr(fpr)
        );
    }

    // The same ranking drives friend suggestion: the top-k join returns the
    // most likely missing links first.
    let config = TwoWayConfig::paper_default();
    let top = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(
        &split.test_graph,
        &config,
        &p,
        &q,
        5,
        &mut QueryCtx::one_shot(),
    );
    println!("\ntop-5 predicted interactions:");
    for pair in &top.pairs {
        let held_out = split.removed.iter().any(|&(a, b)| {
            (a == pair.left && b == pair.right) || (a == pair.right && b == pair.left)
        });
        println!(
            "  {} – {}  score {:.4}  {}",
            split.test_graph.display_name(pair.left),
            split.test_graph.display_name(pair.right),
            pair.score,
            if held_out { "(true hidden link)" } else { "" }
        );
    }
}
