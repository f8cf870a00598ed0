//! E-commerce recommendation (Example 3 of the paper): a retailer looks for
//! new manufacturers and customers with a *chain* 3-way join
//! Manufacturer → Retailer → Customer over a social network — each returned
//! triple links a manufacturer to a retailer who is in turn close to a
//! customer.
//!
//! Run with: `cargo run --release --example ecommerce_chain`

use dht_nway::graph::generators::{planted_partition, PlantedPartitionConfig};
use dht_nway::prelude::*;

fn main() {
    // Three communities play the roles of manufacturers, retailers and
    // customers; retailers sit between the other two groups in the network.
    let cg = planted_partition(&PlantedPartitionConfig {
        communities: 3,
        community_size: 40,
        avg_internal_degree: 6.0,
        avg_external_degree: 3.0,
        weighted: true,
        seed: 7,
    });
    let manufacturers = NodeSet::new("Manufacturer", cg.community(0).iter());
    let retailers = NodeSet::new("Retailer", cg.community(1).iter());
    let customers = NodeSet::new("Customer", cg.community(2).iter());
    println!(
        "social network: {} people, {} directed edges",
        cg.graph.node_count(),
        cg.graph.edge_count()
    );

    // Chain query graph M -> R -> C (Figure 2(b)).
    let query = QueryGraph::chain(3);
    let config = NWayConfig::paper_default()
        .with_k(5)
        .with_aggregate(Aggregate::Sum);

    // Compare PJ and PJ-i: identical answers, PJ-i does less work when the
    // rank join needs pairs beyond the initial top-m lists.
    let pj = NWayAlgorithm::PartialJoin { m: 10 }
        .run_with_ctx(
            &cg.graph,
            &config,
            &query,
            &[manufacturers.clone(), retailers.clone(), customers.clone()],
            &mut QueryCtx::one_shot(),
        )
        .expect("chain query is valid");
    let pji = NWayAlgorithm::IncrementalPartialJoin { m: 10 }
        .run_with_ctx(
            &cg.graph,
            &config,
            &query,
            &[manufacturers, retailers, customers],
            &mut QueryCtx::one_shot(),
        )
        .expect("chain query is valid");

    println!("\ntop-5 (manufacturer, retailer, customer) triples — SUM aggregate:");
    for (rank, answer) in pji.answers.iter().enumerate() {
        println!(
            "  #{:<2} M=n{:<3} R=n{:<3} C=n{:<3}  score {:.4}",
            rank + 1,
            answer.nodes[0].0,
            answer.nodes[1].0,
            answer.nodes[2].0,
            answer.score
        );
    }

    assert_eq!(pj.answers.len(), pji.answers.len());
    for (a, b) in pj.answers.iter().zip(pji.answers.iter()) {
        assert!((a.score - b.score).abs() < 1e-9, "PJ and PJ-i must agree");
    }
    println!(
        "\nPJ ran {} two-way joins ({} list-exhaustion re-joins); PJ-i ran {} and answered {} \
         exhaustions from its incremental structure",
        pj.stats.two_way_joins,
        pj.stats.next_pair_calls,
        pji.stats.two_way_joins,
        pji.stats.next_pair_calls
    );
}
