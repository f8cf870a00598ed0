//! Multi-interest group formation (Example 4 of the paper): Mary, a sports
//! photographer, wants one hobbyist from each of five sports communities who
//! is close to *her* community — a 6-way join with a *star* query graph
//! centred on the photography group.
//!
//! Run with: `cargo run --release --example multi_interest_star`

use dht_datasets::youtube::{self, YoutubeConfig};
use dht_datasets::Scale;
use dht_nway::prelude::*;

fn main() {
    // A synthetic social-sharing network with interest groups.
    let dataset = youtube::generate(&YoutubeConfig::for_scale(Scale::Tiny));
    println!("{}", dataset.summary());

    // Group G1 plays the photography community (the star centre); five other
    // groups play soccer, basketball, hockey, golf and tennis.  Groups are
    // capped so the example finishes instantly.
    let cap = 30usize;
    let names = ["G1", "G2", "G3", "G4", "G5", "G6"];
    let roles = [
        "Photography",
        "Soccer",
        "Basketball",
        "Hockey",
        "Golf",
        "Tennis",
    ];
    let sets: Vec<NodeSet> = names
        .iter()
        .zip(roles.iter())
        .map(|(name, role)| {
            let group = dataset.node_set(name).expect("generated groups exist");
            NodeSet::new(*role, group.iter().take(cap))
        })
        .collect();
    for set in &sets {
        println!("  {:<12} {} members (capped)", set.name(), set.len());
    }

    // Star query graph: every sports group points at the photography centre
    // (Figure 2(c)); the MIN aggregate makes the weakest connection count.
    let query = QueryGraph::star(6);
    let config = NWayConfig::paper_default().with_k(3);
    let result = NWayAlgorithm::IncrementalPartialJoin { m: 30 }
        .run_with_ctx(
            &dataset.graph,
            &config,
            &query,
            &sets,
            &mut QueryCtx::one_shot(),
        )
        .expect("star query over interest groups is valid");

    println!("\ntop-3 multi-interest groups (one member per community):");
    for (rank, answer) in result.answers.iter().enumerate() {
        let members: Vec<String> = answer
            .nodes
            .iter()
            .zip(roles.iter())
            .map(|(&node, role)| format!("{role}=n{}", node.0))
            .collect();
        println!(
            "  #{} {}  score {:.4}",
            rank + 1,
            members.join(" "),
            answer.score
        );
    }
    if result.answers.is_empty() {
        println!("  (no tuple connects all six communities in this tiny synthetic graph)");
    }
}
