//! F-IDJ: the Forward Iterative Deepening Join (Section V-B).
//!
//! The adaptation of the IDJ framework of Sun et al. (VLDB 2011) to DHT.
//! `⌈log d⌉` rounds are performed; in round `j` every still-alive source
//! `p ∈ P` runs truncated absorbing walks of `l = 2^{j-1}` steps towards
//! every `q ∈ Q`.  The truncated score `h_l(p,q)` is a lower bound of
//! `h_d(p,q)` (the series has non-negative terms), and
//! `max_q h_l(p,q) + X_l⁺` is an upper bound of every score of `p`.  Sources
//! whose upper bound falls below the current `k`-th best lower bound can
//! never contribute a top-k pair and are pruned.  The final round evaluates
//! the exact `h_d` for the surviving sources only.
//!
//! Because each round restarts its walks from scratch, the total work is at
//! most twice that of a single `d`-step pass per pair, so the worst case
//! stays `O(|P|·|Q|·d·|E_G|)` as stated in the paper; the win comes from
//! pruning most of `P` at small `l`, where walks are cheap.

use dht_graph::{Graph, NodeId, NodeSet};
use dht_rankjoin::TopKBuffer;
use dht_walks::{bounds, forward, QueryCtx};

use crate::stats::TwoWayStats;

use super::{finalize_pairs, TwoWayConfig, TwoWayOutput};

/// Runs F-IDJ and returns the top-`k` pairs (the context contributes its
/// scratch pool; forward walks produce per-pair scalars, so there is no
/// column to cache).
pub fn top_k(
    graph: &Graph,
    config: &TwoWayConfig,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
    ctx: &mut QueryCtx,
) -> TwoWayOutput {
    let mut stats = TwoWayStats::default();
    let d = config.d;
    let params = &config.params;
    // One pooled scratch serves every truncated walk of every round.
    let mut scratch = ctx.pool.acquire();

    let mut alive: Vec<NodeId> = p.iter().collect();
    stats.q_remaining_per_iteration.push(alive.len());

    let mut l = 1usize;
    while l < d && alive.len() > 1 {
        let mut buffer: TopKBuffer<(u32, u32)> = TopKBuffer::new(k);
        let mut uppers: Vec<(NodeId, f64)> = Vec::with_capacity(alive.len());
        for &pn in &alive {
            let mut best = params.min_score();
            for qn in q.iter() {
                if pn == qn {
                    continue;
                }
                stats.walk_invocations += 1;
                stats.walk_steps += l as u64;
                stats.pairs_scored += 1;
                // h_l(p, q): the truncated score is itself the lower bound.
                let lower = forward::forward_dht_with(
                    graph,
                    params,
                    pn,
                    qn,
                    l,
                    config.engine,
                    &mut scratch,
                );
                if lower > params.min_score() {
                    buffer.insert(lower, (pn.0, qn.0));
                }
                if lower > best {
                    best = lower;
                }
            }
            uppers.push((pn, best + bounds::x_upper_bound(params, l)));
        }
        if let Some(tk) = buffer.kth_score() {
            alive = uppers
                .iter()
                .filter(|&&(_, upper)| upper >= tk)
                .map(|&(pn, _)| pn)
                .collect();
        }
        stats.q_remaining_per_iteration.push(alive.len());
        l *= 2;
    }

    // Final round: exact scores for the surviving sources.
    let mut buffer = TopKBuffer::new(k);
    for &pn in &alive {
        for qn in q.iter() {
            if pn == qn {
                continue;
            }
            let score =
                forward::forward_dht_with(graph, params, pn, qn, d, config.engine, &mut scratch);
            stats.walk_invocations += 1;
            stats.walk_steps += d as u64;
            stats.pairs_scored += 1;
            buffer.insert(score, (pn.0, qn.0));
        }
    }
    TwoWayOutput {
        pairs: finalize_pairs(buffer, ctx.trace()),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twoway::fbj;
    use dht_graph::generators::{erdos_renyi, planted_partition, PlantedPartitionConfig};
    use dht_graph::NodeId;

    fn sets(p: &[u32], q: &[u32]) -> (NodeSet, NodeSet) {
        (
            NodeSet::new("P", p.iter().copied().map(NodeId)),
            NodeSet::new("Q", q.iter().copied().map(NodeId)),
        )
    }

    #[test]
    fn top_k_scores_match_fbj() {
        let g = erdos_renyi(40, 120, 31);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2, 3, 4, 5, 6, 7], &[30, 31, 32, 33, 34]);
        let reference = fbj::top_k(&g, &cfg, &p, &q, 6, &mut QueryCtx::one_shot());
        let idj = top_k(&g, &cfg, &p, &q, 6, &mut QueryCtx::one_shot());
        assert_eq!(reference.pairs.len(), idj.pairs.len());
        for (a, b) in reference.pairs.iter().zip(idj.pairs.iter()) {
            assert!((a.score - b.score).abs() < 1e-10, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn pruning_reduces_the_alive_set_on_community_graphs() {
        // Sources in the same community as the targets dominate; far-away
        // sources should be pruned before the final round.
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 3,
            community_size: 30,
            avg_internal_degree: 8.0,
            avg_external_degree: 0.5,
            weighted: false,
            seed: 3,
        });
        let cfg = TwoWayConfig::paper_default();
        let p = NodeSet::new("P", cg.graph.nodes().take(60)); // communities 0 and 1
        let q = cg.community(0).clone();
        let out = top_k(&cg.graph, &cfg, &p, &q, 5, &mut QueryCtx::one_shot());
        let trace = &out.stats.q_remaining_per_iteration;
        assert!(trace.len() >= 2);
        assert!(
            trace.last().unwrap() < trace.first().unwrap(),
            "no sources were pruned: {trace:?}"
        );
        // correctness against the oracle
        let reference = fbj::top_k(&cg.graph, &cfg, &p, &q, 5, &mut QueryCtx::one_shot());
        for (a, b) in reference.pairs.iter().zip(out.pairs.iter()) {
            assert!((a.score - b.score).abs() < 1e-10);
        }
    }

    #[test]
    fn works_when_k_exceeds_the_number_of_pairs() {
        let g = erdos_renyi(12, 36, 8);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1], &[6, 7]);
        let out = top_k(&g, &cfg, &p, &q, 50, &mut QueryCtx::one_shot());
        assert_eq!(out.pairs.len(), 4);
    }

    #[test]
    fn single_source_short_circuits() {
        let g = erdos_renyi(10, 20, 5);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0], &[5, 6, 7]);
        let out = top_k(&g, &cfg, &p, &q, 2, &mut QueryCtx::one_shot());
        let reference = fbj::top_k(&g, &cfg, &p, &q, 2, &mut QueryCtx::one_shot());
        for (a, b) in reference.pairs.iter().zip(out.pairs.iter()) {
            assert!((a.score - b.score).abs() < 1e-10);
        }
    }
}
