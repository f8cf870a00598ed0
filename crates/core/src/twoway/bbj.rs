//! B-BJ: the Backward Basic Join (Section VI-A).
//!
//! For each target `q ∈ Q`, one `backWalk` pass produces `h_d(p, q)` for
//! every source `p ∈ P` simultaneously, so the whole join costs
//! `O(|Q|·d·|E_G|)` — a factor `|P|` better than F-BJ while producing exactly
//! the same scores.
//!
//! The per-target walks are independent; with `config.threads > 1` the
//! targets are processed in parallel chunks (bounding the number of
//! materialised `|V_G|`-sized score vectors to one chunk) and merged in
//! target order, so results are bit-identical to the serial run.
//!
//! The scan hands every score to [`TopKBuffer::insert`], which turns a pair
//! below the buffer's `k`-th score away with one comparison: of the
//! `|P|·|Q|` pairs scored only the few that can still win reach the heap.

use dht_graph::{Graph, NodeId, NodeSet};
use dht_rankjoin::TopKBuffer;
use dht_walks::QueryCtx;

use crate::stats::TwoWayStats;

use super::{finalize_pairs, ColumnSource, TwoWayOutput};

/// Runs B-BJ over any [`ColumnSource`]: one exact column per target.  The
/// columns are served from (and fill) the context's cache, so a
/// repeated-target query stream pays each `O(d·|E_G|)` walk only once.
pub fn top_k<S: ColumnSource>(
    graph: &Graph,
    source: &S,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
    ctx: &mut QueryCtx,
) -> TwoWayOutput {
    let d = source.depth();
    let mut stats = TwoWayStats::default();
    let mut buffer = TopKBuffer::new(k);
    let targets: Vec<NodeId> = q.iter().collect();
    source.for_each_column(graph, d, &targets, ctx, |qn, scores| {
        stats.walk_invocations += 1;
        stats.walk_steps += d as u64;
        for pn in p.iter() {
            if pn == qn {
                continue;
            }
            stats.pairs_scored += 1;
            buffer.insert(scores[pn.index()], (pn.0, qn.0));
        }
    });
    TwoWayOutput {
        pairs: finalize_pairs(buffer, ctx.trace()),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twoway::{fbj, TwoWayConfig};
    use dht_graph::generators::{barabasi_albert, erdos_renyi};
    use dht_graph::{NodeId, NodeSet};

    fn sets(p: &[u32], q: &[u32]) -> (NodeSet, NodeSet) {
        (
            NodeSet::new("P", p.iter().copied().map(NodeId)),
            NodeSet::new("Q", q.iter().copied().map(NodeId)),
        )
    }

    #[test]
    fn agrees_with_forward_basic_join() {
        let g = erdos_renyi(30, 90, 21);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2, 3, 4, 5], &[20, 21, 22, 23]);
        let forward = fbj::top_k(&g, &cfg, &p, &q, 8, &mut QueryCtx::one_shot());
        let backward = top_k(&g, &cfg, &p, &q, 8, &mut QueryCtx::one_shot());
        assert_eq!(forward.pairs.len(), backward.pairs.len());
        for (f, b) in forward.pairs.iter().zip(backward.pairs.iter()) {
            assert!((f.score - b.score).abs() < 1e-10, "{f:?} vs {b:?}");
            assert_eq!((f.left, f.right), (b.left, b.right));
        }
    }

    #[test]
    fn agrees_with_forward_on_weighted_scale_free_graph() {
        let g = barabasi_albert(80, 3, 5);
        let cfg = TwoWayConfig::new(dht_walks::DhtParams::dht_e(), 6);
        let (p, q) = sets(&[0, 5, 10, 15], &[40, 41, 42]);
        let forward = fbj::top_k(&g, &cfg, &p, &q, 12, &mut QueryCtx::one_shot());
        let backward = top_k(&g, &cfg, &p, &q, 12, &mut QueryCtx::one_shot());
        for (f, b) in forward.pairs.iter().zip(backward.pairs.iter()) {
            assert!((f.score - b.score).abs() < 1e-10);
        }
    }

    #[test]
    fn walk_count_is_one_per_target() {
        let g = erdos_renyi(25, 60, 9);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2, 3, 4, 5, 6, 7], &[20, 21, 22]);
        let out = top_k(&g, &cfg, &p, &q, 5, &mut QueryCtx::one_shot());
        assert_eq!(out.stats.walk_invocations, 3, "one backward walk per q");
        assert_eq!(out.stats.pairs_scored, 24);
    }

    #[test]
    fn overlapping_sets_skip_identical_pairs() {
        let g = erdos_renyi(10, 30, 3);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2], &[2, 3]);
        let out = top_k(&g, &cfg, &p, &q, 10, &mut QueryCtx::one_shot());
        assert_eq!(out.pairs.len(), 5);
        assert!(out.pairs.iter().all(|pr| pr.left != pr.right));
    }
}
