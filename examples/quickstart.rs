//! Quick start: build a small social graph by hand, score friend
//! suggestions with a 2-way join and find a cross-group trio with a 3-way
//! join — the two motivating scenarios of the paper's introduction.
//!
//! Run with: `cargo run --release --example quickstart`

use dht_nway::prelude::*;

fn main() {
    // ----- the graph of Figure 1(a), by hand -------------------------------
    // People 0..=7; an edge means friendship, the weight is how often the
    // two interact.
    let mut builder = GraphBuilder::new();
    let people: Vec<NodeId> = ["ann", "bob", "cat", "dan", "eve", "fay", "gus", "hal"]
        .iter()
        .map(|name| builder.add_labeled_node(*name))
        .collect();
    let friendships = [
        (0usize, 1usize, 3.0),
        (0, 2, 1.0),
        (1, 2, 2.0),
        (1, 3, 1.0),
        (2, 4, 2.0),
        (3, 4, 4.0),
        (3, 5, 1.0),
        (4, 6, 2.0),
        (5, 6, 3.0),
        (6, 7, 1.0),
        (5, 7, 2.0),
    ];
    for &(a, b, w) in &friendships {
        builder
            .add_undirected_edge(people[a], people[b], w)
            .expect("hand-written edges are valid");
    }
    let graph = builder.build().expect("hand-written graph is valid");
    println!(
        "graph: {} people, {} directed edges",
        graph.node_count(),
        graph.edge_count()
    );

    // ----- a 2-way join: who should befriend whom? -------------------------
    let soccer = NodeSet::new("soccer", [people[0], people[1], people[2]]);
    let hiking = NodeSet::new("hiking", [people[5], people[6], people[7]]);
    let config = TwoWayConfig::paper_default();
    let top = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(
        &graph,
        &config,
        &soccer,
        &hiking,
        3,
        &mut QueryCtx::one_shot(),
    );
    println!("\ntop-3 soccer → hiking friend suggestions (DHT_λ, λ = 0.2):");
    for pair in &top.pairs {
        println!(
            "  {:>4} → {:<4}  score {:.4}",
            graph.display_name(pair.left),
            graph.display_name(pair.right),
            pair.score
        );
    }

    // ----- a 3-way join: a well-connected trio across three groups ---------
    let swimmers = NodeSet::new("swimming", [people[3], people[4]]);
    let query = QueryGraph::triangle();
    let nway = NWayConfig::paper_default().with_k(3);
    let result = NWayAlgorithm::IncrementalPartialJoin { m: 10 }
        .run_with_ctx(
            &graph,
            &nway,
            &query,
            &[soccer, swimmers, hiking],
            &mut QueryCtx::one_shot(),
        )
        .expect("query graph and node sets are valid");
    println!("\ntop-3 (soccer, swimming, hiking) trios by MIN aggregate:");
    for answer in &result.answers {
        let names: Vec<String> = answer
            .nodes
            .iter()
            .map(|&n| graph.display_name(n))
            .collect();
        println!("  {:?}  score {:.4}", names, answer.score);
    }
    println!(
        "\nstats: {} two-way joins, {} pairs pulled, {} candidates generated",
        result.stats.two_way_joins, result.stats.pairs_pulled, result.stats.candidates_generated
    );
}
