//! Workload builders shared by the experiments: dataset construction plus
//! the node-set selections the paper's experiments use.

use dht_datasets::dblp::{self, DblpConfig};
use dht_datasets::yeast::{self, YeastConfig};
use dht_datasets::youtube::{self, YoutubeConfig};
use dht_datasets::{Dataset, Scale};
use dht_graph::NodeSet;

/// Builds the Yeast analogue at the given scale.
pub fn yeast(scale: Scale) -> Dataset {
    yeast::generate(&YeastConfig::for_scale(scale))
}

/// Builds the DBLP analogue at the given scale.
pub fn dblp(scale: Scale) -> Dataset {
    dblp::generate(&DblpConfig::for_scale(scale))
}

/// Builds the YouTube analogue at the given scale.
pub fn youtube(scale: Scale) -> Dataset {
    youtube::generate(&YoutubeConfig::for_scale(scale))
}

/// Caps a node set at its first `max` members, keeping the name.
///
/// The paper's query node sets are small (top-100 authors per area); the
/// synthetic Yeast partitions and YouTube groups can be much larger, so the
/// harness caps them to keep the NL/AP baselines runnable.
pub fn cap_set(set: &NodeSet, max: usize) -> NodeSet {
    NodeSet::new(set.name(), set.iter().take(max))
}

/// The `n` query node sets used by the Yeast n-way join experiments: the `n`
/// largest partitions, capped at `cap` members each.
pub fn yeast_query_sets(dataset: &Dataset, n: usize, cap: usize) -> Vec<NodeSet> {
    dataset
        .largest_sets(n)
        .into_iter()
        .map(|s| cap_set(s, cap))
        .collect()
}

/// The `n` query node sets used by the DBLP n-way join experiments: the
/// first `n` research areas (DB, AI, SYS, …), whose node sets are already
/// the top-100 authors per area.
pub fn dblp_query_sets(dataset: &Dataset, n: usize) -> Vec<NodeSet> {
    dataset.node_sets.iter().take(n).cloned().collect()
}

/// The link-prediction node-set pair for a dataset, as described in
/// Section VII-B: DBLP uses (DB, AI), Yeast the two largest partitions,
/// YouTube groups G1 and G5.  Sets are capped to keep the full ranking
/// (needed for ROC curves) tractable.
pub fn link_prediction_sets(dataset: &Dataset, cap: usize) -> (NodeSet, NodeSet) {
    match dataset.name.as_str() {
        "dblp" => (
            cap_set(dataset.node_set("DB").expect("DB area exists"), cap),
            cap_set(dataset.node_set("AI").expect("AI area exists"), cap),
        ),
        "youtube" => (
            cap_set(dataset.node_set("G1").expect("group G1 exists"), cap),
            cap_set(dataset.node_set("G5").expect("group G5 exists"), cap),
        ),
        _ => {
            let largest = dataset.largest_sets(2);
            (cap_set(largest[0], cap), cap_set(largest[1], cap))
        }
    }
}

/// The 3-clique-prediction node-set triple (Section VII-B.3): DBLP uses
/// (DB, AI, SYS), Yeast (3-U, 5-F, 8-D), YouTube (G1, G5, G8 standing in for
/// the paper's anonymous group 88).
///
/// The full sets can be large (YouTube groups have thousands of members), so
/// they are capped — but the members that participate in spanning 3-cliques
/// are always retained, because they are precisely what the experiment
/// predicts (the paper's sets are whole partitions/groups and contain them
/// by construction).
pub fn clique_prediction_sets(dataset: &Dataset, cap: usize) -> (NodeSet, NodeSet, NodeSet) {
    let pick = |name: &str| -> NodeSet {
        dataset
            .node_set(name)
            .unwrap_or_else(|| dataset.largest_sets(1)[0])
            .clone()
    };
    let (p, q, r) = match dataset.name.as_str() {
        "dblp" => (pick("DB"), pick("AI"), pick("SYS")),
        "youtube" => (pick("G1"), pick("G5"), pick("G8")),
        _ => (pick("3-U"), pick("5-F"), pick("8-D")),
    };
    let cliques = dht_graph::analysis::cliques_across_sets(&dataset.graph, &p, &q, &r);
    let keep = |set: &NodeSet, members_in_cliques: Vec<dht_graph::NodeId>| -> NodeSet {
        let mut kept = members_in_cliques;
        for node in set.iter() {
            if kept.len() >= cap {
                break;
            }
            if !kept.contains(&node) {
                kept.push(node);
            }
        }
        NodeSet::new(set.name(), kept)
    };
    let p_clique: Vec<_> = cliques.iter().map(|&(a, _, _)| a).collect();
    let q_clique: Vec<_> = cliques.iter().map(|&(_, b, _)| b).collect();
    let r_clique: Vec<_> = cliques.iter().map(|&(_, _, c)| c).collect();
    (keep(&p, p_clique), keep(&q, q_clique), keep(&r, r_clique))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_datasets_build_quickly_and_have_node_sets() {
        let y = yeast(Scale::Tiny);
        let d = dblp(Scale::Tiny);
        let u = youtube(Scale::Tiny);
        assert!(!y.node_sets.is_empty());
        assert!(!d.node_sets.is_empty());
        assert!(!u.node_sets.is_empty());
    }

    #[test]
    fn cap_set_truncates_but_keeps_the_name() {
        let y = yeast(Scale::Tiny);
        let set = y.largest_sets(1)[0];
        let capped = cap_set(set, 5);
        assert_eq!(capped.len(), 5.min(set.len()));
        assert_eq!(capped.name(), set.name());
    }

    #[test]
    fn query_set_builders_return_the_requested_arity() {
        let y = yeast(Scale::Tiny);
        let sets = yeast_query_sets(&y, 4, 20);
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().all(|s| s.len() <= 20 && !s.is_empty()));
        let d = dblp(Scale::Tiny);
        let sets = dblp_query_sets(&d, 3);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].name(), "DB");
    }

    #[test]
    fn prediction_set_selectors_pick_the_documented_sets() {
        let d = dblp(Scale::Tiny);
        let (p, q) = link_prediction_sets(&d, 50);
        assert_eq!(p.name(), "DB");
        assert_eq!(q.name(), "AI");
        let y = yeast(Scale::Tiny);
        let (p, q) = link_prediction_sets(&y, 50);
        assert!(p.len() >= q.len());
        let (a, b, c) = clique_prediction_sets(&d, 50);
        assert_eq!((a.name(), b.name(), c.name()), ("DB", "AI", "SYS"));
        let u = youtube(Scale::Tiny);
        let (a, b, c) = clique_prediction_sets(&u, 50);
        assert_eq!((a.name(), b.name(), c.name()), ("G1", "G5", "G8"));
    }
}
