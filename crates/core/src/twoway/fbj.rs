//! F-BJ: the Forward Basic Join (Section V-B).
//!
//! Computes `h_d(p, q)` for **every** pair `(p, q) ∈ P × Q` with a forward
//! absorbing walk per pair, then returns the `k` best.  Complexity
//! `O(|P|·|Q|·d·|E_G|)` — the slowest algorithm, but also the one with no
//! moving parts, which makes it the reference oracle for the others.
//!
//! The per-pair walks are independent, so this is the most embarrassingly
//! parallel join in the workspace: with `config.threads > 1` the pair
//! domain is fanned out over worker threads (each reusing one
//! [`WalkScratch`](dht_walks::WalkScratch)), and scores are merged back into the top-k buffer in
//! pair order — bit-identical to the serial run.

use dht_graph::{Graph, NodeId, NodeSet};
use dht_rankjoin::TopKBuffer;
use dht_walks::{forward, QueryCtx};

use crate::stats::TwoWayStats;

use super::{finalize_pairs, TwoWayConfig, TwoWayOutput};

/// Runs F-BJ and returns the top-`k` pairs.  Forward absorbing walks produce
/// a single scalar per pair, so there is no column to cache — the context
/// contributes its scratch pool, keeping a query stream allocation-free.
pub fn top_k(
    graph: &Graph,
    config: &TwoWayConfig,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
    ctx: &mut QueryCtx,
) -> TwoWayOutput {
    let domain: Vec<(NodeId, NodeId)> = p
        .iter()
        .flat_map(|pn| q.iter().map(move |qn| (pn, qn)))
        .filter(|(pn, qn)| pn != qn)
        .collect();

    let mut buffer = TopKBuffer::new(k);
    if config.effective_threads() <= 1 {
        // Serial path: one pooled scratch reused across every pair.
        let mut scratch = ctx.pool.acquire();
        for &(pn, qn) in &domain {
            let score = forward::forward_dht_with(
                graph,
                &config.params,
                pn,
                qn,
                config.d,
                config.engine,
                &mut scratch,
            );
            buffer.insert(score, (pn.0, qn.0));
        }
    } else {
        // Parallel path: workers score pair slices with per-worker pooled
        // scratches; the merge below runs in pair order, so insertion
        // sequence (and therefore tie-breaking) matches the serial path.
        let pool = &ctx.pool;
        let scores = dht_par::parallel_map_init(
            config.threads,
            &domain,
            || pool.acquire(),
            |scratch, _, &(pn, qn)| {
                forward::forward_dht_with(
                    graph,
                    &config.params,
                    pn,
                    qn,
                    config.d,
                    config.engine,
                    scratch,
                )
            },
        );
        for (&(pn, qn), score) in domain.iter().zip(scores) {
            buffer.insert(score, (pn.0, qn.0));
        }
    }

    let stats = TwoWayStats {
        walk_invocations: domain.len() as u64,
        walk_steps: domain.len() as u64 * config.d as u64,
        pairs_scored: domain.len() as u64,
        ..Default::default()
    };
    TwoWayOutput {
        pairs: finalize_pairs(buffer, ctx.trace()),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::generators::erdos_renyi;
    use dht_graph::{GraphBuilder, NodeId};
    use dht_walks::exact::all_pairs_dht;

    fn sets(p: &[u32], q: &[u32]) -> (NodeSet, NodeSet) {
        (
            NodeSet::new("P", p.iter().copied().map(NodeId)),
            NodeSet::new("Q", q.iter().copied().map(NodeId)),
        )
    }

    #[test]
    fn matches_brute_force_oracle() {
        let g = erdos_renyi(20, 60, 11);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2, 3, 4], &[10, 11, 12, 13]);
        let oracle = all_pairs_dht(&g, &cfg.params, cfg.d);
        let out = top_k(&g, &cfg, &p, &q, 5, &mut QueryCtx::one_shot());
        assert_eq!(out.pairs.len(), 5);
        // collect oracle's top 5 scores over the same pair domain
        let mut expected: Vec<f64> = p
            .iter()
            .flat_map(|pn| q.iter().map(move |qn| (pn, qn)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| oracle[a.index()][b.index()])
            .collect();
        expected.sort_by(|a, b| b.total_cmp(a));
        for (got, want) in out.pairs.iter().zip(expected.iter()) {
            assert!((got.score - want).abs() < 1e-10);
        }
        // pairs are sorted descending
        for w in out.pairs.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
    }

    #[test]
    fn excludes_identical_nodes() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_undirected_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_undirected_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();
        let cfg = TwoWayConfig::paper_default();
        let p = NodeSet::new("P", [NodeId(0), NodeId(1)]);
        let q = NodeSet::new("Q", [NodeId(1), NodeId(2)]);
        let out = top_k(&g, &cfg, &p, &q, 10, &mut QueryCtx::one_shot());
        assert!(out.pairs.iter().all(|pr| pr.left != pr.right));
        assert_eq!(out.pairs.len(), 3);
    }

    #[test]
    fn k_larger_than_domain_returns_everything() {
        let g = erdos_renyi(10, 20, 2);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1], &[5, 6]);
        let out = top_k(&g, &cfg, &p, &q, 100, &mut QueryCtx::one_shot());
        assert_eq!(out.pairs.len(), 4);
    }

    #[test]
    fn stats_count_every_pair() {
        let g = erdos_renyi(15, 40, 4);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2], &[8, 9]);
        let out = top_k(&g, &cfg, &p, &q, 3, &mut QueryCtx::one_shot());
        assert_eq!(out.stats.pairs_scored, 6);
        assert_eq!(out.stats.walk_invocations, 6);
        assert_eq!(out.stats.walk_steps, 6 * cfg.d as u64);
    }

    #[test]
    fn all_pairs_returns_the_full_cross_product() {
        let g = erdos_renyi(12, 30, 6);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2], &[6, 7, 8, 9]);
        let out = top_k(
            &g,
            &cfg,
            &p,
            &q,
            p.len() * q.len(),
            &mut QueryCtx::one_shot(),
        );
        assert_eq!(out.pairs.len(), 12);
    }
}
