//! Expert finding (Example 2 of the paper): a researcher setting up a
//! cross-disciplinary lab runs a *triangle* 3-way join over the Database,
//! Artificial Intelligence and Systems communities of a bibliographic
//! network to find triples of experts that work closely together.
//!
//! Run with: `cargo run --release --example expert_finding`

use dht_datasets::dblp::{self, DblpConfig};
use dht_datasets::Scale;
use dht_nway::prelude::*;

fn main() {
    // A synthetic DBLP-like co-authorship network (see dht-datasets::dblp for
    // how the analogue mirrors the real dataset's structure).
    let dataset = dblp::generate(&DblpConfig::for_scale(Scale::Tiny));
    println!("{}", dataset.summary());

    let db = dataset.node_set("DB").expect("DB area exists").clone();
    let ai = dataset.node_set("AI").expect("AI area exists").clone();
    let sys = dataset.node_set("SYS").expect("SYS area exists").clone();
    println!(
        "node sets: DB ({} authors), AI ({}), SYS ({}) — top authors by publication count",
        db.len(),
        ai.len(),
        sys.len()
    );

    let query = QueryGraph::triangle();
    let config = NWayConfig::paper_default().with_k(5);
    let result = NWayAlgorithm::IncrementalPartialJoin { m: 50 }
        .run_with_ctx(
            &dataset.graph,
            &config,
            &query,
            &[db.clone(), ai.clone(), sys.clone()],
            &mut QueryCtx::one_shot(),
        )
        .expect("triangle query over DBLP areas is valid");

    println!("\ntop-5 (DB, AI, SYS) expert triples — triangle query graph, MIN aggregate:");
    for (rank, answer) in result.answers.iter().enumerate() {
        println!(
            "  #{:<2} {:>8}  {:>8}  {:>8}   score {:.4}",
            rank + 1,
            dataset.graph.display_name(answer.nodes[0]),
            dataset.graph.display_name(answer.nodes[1]),
            dataset.graph.display_name(answer.nodes[2]),
            answer.score
        );
    }

    // The paper contrasts the triangle with a chain query graph (AI — DB — SYS):
    // the chain only requires AI and SYS experts to be close to the same DB
    // expert, not to each other, so the ranking changes.
    let chain = QueryGraph::chain(3);
    let chain_result = NWayAlgorithm::IncrementalPartialJoin { m: 50 }
        .run_with_ctx(
            &dataset.graph,
            &config,
            &chain,
            &[ai, db, sys],
            &mut QueryCtx::one_shot(),
        )
        .expect("chain query over DBLP areas is valid");
    println!("\ntop-5 (AI, DB, SYS) triples — chain query graph:");
    for (rank, answer) in chain_result.answers.iter().enumerate() {
        println!(
            "  #{:<2} {:>8}  {:>8}  {:>8}   score {:.4}",
            rank + 1,
            dataset.graph.display_name(answer.nodes[0]),
            dataset.graph.display_name(answer.nodes[1]),
            dataset.graph.display_name(answer.nodes[2]),
            answer.score
        );
    }
}
