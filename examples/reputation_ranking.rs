//! Reputation ranking with hitting-time measures (the third application the
//! paper's abstract lists, following Hopcroft & Sheldon's
//! "manipulation-resistant reputations using hitting time").
//!
//! Nodes are accounts in a small web-of-trust; a directed weighted edge
//! `u → v` means "u vouches for v".  The reputation of an account is how
//! quickly random walks *from the trusted seed accounts* reach it — which is
//! exactly a 2-way join between the seed set and the set of candidate
//! accounts, ranked by DHT.  The key property (and the reason hitting-time
//! measures resist manipulation) is that an attacker's sybil accounts can
//! vouch for each other as much as they like: without in-links from the
//! honest region, walks from the seeds still rarely reach them.
//!
//! Run with: `cargo run --release --example reputation_ranking`

use dht_nway::prelude::*;

fn main() {
    let mut b = GraphBuilder::new();

    // Honest accounts.
    let seeds = ["auditor-alice", "auditor-bob"];
    let honest = ["carol", "dave", "erin", "frank", "grace"];
    // A sybil ring that only vouches for itself, plus one honest-looking
    // account ("mallory") that a single honest user was tricked into vouching
    // for.
    let sybils = ["mallory", "sybil-1", "sybil-2", "sybil-3"];

    let seed_ids: Vec<NodeId> = seeds.iter().map(|s| b.add_labeled_node(*s)).collect();
    let honest_ids: Vec<NodeId> = honest.iter().map(|s| b.add_labeled_node(*s)).collect();
    let sybil_ids: Vec<NodeId> = sybils.iter().map(|s| b.add_labeled_node(*s)).collect();

    // Seeds vouch for a few honest accounts; honest accounts vouch for each
    // other with varying strength.
    let vouches: &[(NodeId, NodeId, f64)] = &[
        (seed_ids[0], honest_ids[0], 3.0),   // alice → carol
        (seed_ids[0], honest_ids[1], 2.0),   // alice → dave
        (seed_ids[1], honest_ids[1], 3.0),   // bob → dave
        (seed_ids[1], honest_ids[2], 1.0),   // bob → erin
        (honest_ids[0], honest_ids[3], 2.0), // carol → frank
        (honest_ids[1], honest_ids[3], 1.0), // dave → frank
        (honest_ids[1], honest_ids[4], 2.0), // dave → grace
        (honest_ids[2], honest_ids[4], 1.0), // erin → grace
        (honest_ids[3], honest_ids[0], 1.0), // frank → carol (a cycle back)
        // one honest account was tricked into vouching for mallory, weakly
        (honest_ids[4], sybil_ids[0], 0.5), // grace → mallory
    ];
    for &(u, v, w) in vouches {
        b.add_edge(u, v, w).unwrap();
    }
    // The sybil ring vouches for itself heavily.
    for i in 0..sybil_ids.len() {
        for j in 0..sybil_ids.len() {
            if i != j {
                b.add_edge(sybil_ids[i], sybil_ids[j], 10.0).unwrap();
            }
        }
    }
    let graph = b.build().unwrap();

    // Reputation of every non-seed account = DHT from the seeds towards it.
    // (One join per direction of interest; here walks start at the seeds.)
    let seed_set = NodeSet::new("seeds", seed_ids.iter().copied());
    let candidates = NodeSet::new(
        "candidates",
        honest_ids.iter().chain(sybil_ids.iter()).copied(),
    );
    let config = TwoWayConfig::paper_default();
    let ranking = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(
        &graph,
        &config,
        &seed_set,
        &candidates,
        candidates.len() * seed_set.len(),
        &mut QueryCtx::one_shot(),
    );

    // Aggregate per candidate: best score over the two seeds.
    let mut best: Vec<(NodeId, f64)> = candidates
        .iter()
        .map(|c| {
            let score = ranking
                .pairs
                .iter()
                .filter(|p| p.right == c)
                .map(|p| p.score)
                .fold(f64::NEG_INFINITY, f64::max);
            (c, score)
        })
        .collect();
    best.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("reputation ranking (random walks from the audit seeds):\n");
    println!("{:<12} {:>10}", "account", "reputation");
    for (node, score) in &best {
        println!("{:<12} {:>10.4}", graph.display_name(*node), score);
    }

    let best_sybil = best
        .iter()
        .position(|(n, _)| sybil_ids.contains(n))
        .expect("sybils are candidates");
    println!(
        "\nevery honest account outranks the best sybil (first sybil at rank {}):",
        best_sybil + 1
    );
    println!(
        "the ring's mutual vouching is worthless because reputation is measured by how\n\
         quickly walks from the seeds hit an account, not by how many in-links it has."
    );
}
