//! Query suggestion with hitting-time style measures (one of the motivating
//! applications cited by the paper: Mei, Zhou & Church, CIKM 2008).
//!
//! A search log is modelled as a bipartite-ish click graph: query nodes link
//! to the URL nodes their sessions clicked, and queries issued in the same
//! session are linked directly.  Given the query a user just typed, the
//! engine suggests other queries that are "close" under a random-walk
//! measure — exactly a top-k 2-way join between the singleton set {current
//! query} and the set of all other queries.
//!
//! Run with: `cargo run --release --example query_suggestion`

use dht_nway::prelude::*;

/// Builds a small synthetic click graph.  Node labels make the output
/// readable; weights count how often a click / co-occurrence was observed.
fn build_click_graph() -> (Graph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();

    let queries = [
        "rust lifetimes",      // 0
        "rust borrow checker", // 1
        "rust async await",    // 2
        "tokio tutorial",      // 3
        "python asyncio",      // 4
        "pandas dataframe",    // 5
        "numpy broadcasting",  // 6
        "graph random walk",   // 7
    ];
    let urls = [
        "doc.rust-lang.org/book/ch10-lifetimes",
        "doc.rust-lang.org/book/ch04-ownership",
        "rust-lang.github.io/async-book",
        "tokio.rs/tokio/tutorial",
        "docs.python.org/3/library/asyncio",
        "pandas.pydata.org/docs",
        "numpy.org/doc/broadcasting",
        "en.wikipedia.org/wiki/Random_walk",
    ];

    let query_ids: Vec<NodeId> = queries.iter().map(|q| b.add_labeled_node(*q)).collect();
    let url_ids: Vec<NodeId> = urls.iter().map(|u| b.add_labeled_node(*u)).collect();

    // clicks: (query index, url index, count)
    let clicks = [
        (0, 0, 9.0),
        (0, 1, 4.0),
        (1, 1, 8.0),
        (1, 0, 5.0),
        (2, 2, 7.0),
        (2, 3, 3.0),
        (3, 3, 9.0),
        (3, 2, 2.0),
        (4, 4, 8.0),
        (4, 2, 1.0),
        (5, 5, 9.0),
        (6, 6, 7.0),
        (6, 5, 2.0),
        (7, 7, 6.0),
    ];
    for &(qi, ui, w) in &clicks {
        b.add_undirected_edge(query_ids[qi], url_ids[ui], w)
            .unwrap();
    }
    // same-session co-occurrences between queries
    let sessions = [
        (0, 1, 6.0),
        (1, 2, 2.0),
        (2, 3, 5.0),
        (4, 5, 1.0),
        (5, 6, 4.0),
    ];
    for &(a, z, w) in &sessions {
        b.add_undirected_edge(query_ids[a], query_ids[z], w)
            .unwrap();
    }

    (b.build().unwrap(), query_ids, url_ids)
}

fn main() {
    let (graph, query_ids, _urls) = build_click_graph();
    println!(
        "click graph: {} nodes, {} directed edges\n",
        graph.node_count(),
        graph.edge_count()
    );

    let config = TwoWayConfig::paper_default();

    // Suggest for two different "current" queries.
    for current in ["rust lifetimes", "pandas dataframe"] {
        let current_id = graph.node_by_label(current).expect("label exists");
        let current_set = NodeSet::new("current", [current_id]);
        let candidates = NodeSet::new(
            "candidates",
            query_ids.iter().copied().filter(|&q| q != current_id),
        );

        // DHT from the candidate towards the current query: "how quickly does
        // a random surfer starting at the suggestion reach what the user just
        // searched for".
        let output = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(
            &graph,
            &config,
            &candidates,
            &current_set,
            4,
            &mut QueryCtx::one_shot(),
        );

        println!("suggestions for '{current}':");
        for (rank, pair) in output.pairs.iter().enumerate() {
            println!(
                "  {}. {:<22} (DHT score {:.4})",
                rank + 1,
                graph.display_name(pair.left),
                pair.score
            );
        }
        println!();
    }

    // A 3-way chain join strings suggestions together: current query →
    // related query → related URL, useful for "people also searched, then
    // visited" panels.
    let current_id = graph.node_by_label("rust async await").unwrap();
    let current_set = NodeSet::new("current", [current_id]);
    let other_queries = NodeSet::new(
        "queries",
        query_ids.iter().copied().filter(|&q| q != current_id),
    );
    let urls = NodeSet::new("urls", _urls.iter().copied());
    let query_graph = QueryGraph::chain(3);
    let config3 = NWayConfig::paper_default()
        .with_k(5)
        .with_aggregate(Aggregate::Min);
    let result = NWayAlgorithm::IncrementalPartialJoin { m: 20 }
        .run_with_ctx(
            &graph,
            &config3,
            &query_graph,
            &[current_set, other_queries, urls],
            &mut QueryCtx::one_shot(),
        )
        .expect("valid 3-way join");

    println!("'people also searched, then visited' for 'rust async await':");
    for answer in &result.answers {
        println!(
            "  {} → {} → {}   (MIN score {:.4})",
            graph.display_name(answer.nodes[0]),
            graph.display_name(answer.nodes[1]),
            graph.display_name(answer.nodes[2]),
            answer.score
        );
    }
}
