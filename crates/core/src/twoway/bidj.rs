//! B-IDJ: the Backward Iterative Deepening Join (Algorithm 2), with the two
//! upper-bound strategies of Section VI-C:
//!
//! * **B-IDJ-X** ([`top_k_x`]) uses the parameter-only geometric tail
//!   `X_l⁺` (Lemma 2), so it runs over any [`ColumnSource`];
//! * **B-IDJ-Y** ([`top_k_y`]) uses the reachability-aware bound
//!   `Y_l⁺(P, q)` (Theorem 1), which is never looser than `X_l⁺` (Lemma 5)
//!   and prunes far more aggressively in practice, especially at large `λ`.
//!   The bound is DHT's, so it runs over [`TwoWayConfig`].
//!
//! `⌊log d⌋` iterations are performed.  In iteration `j` every still-alive
//! target `q` runs an `l = 2^{j-1}`-step backward walk; the truncated scores
//! `h_l(p, q)` are lower bounds, `max_p h_l(p,q) + U_l⁺` is an upper bound
//! for everything involving `q`, and targets whose upper bound falls below
//! the `k`-th best lower bound are pruned.  A final `d`-step walk over the
//! survivors produces the exact answer.
//!
//! When B-IDJ-Y is given an [`IncrementalState`] (the PJ-i path), every
//! `(p, q)` bound computed along the way is recorded in the mutable priority
//! structure `F`, so that later `getNextNodePair` calls can be answered
//! without restarting the join from scratch (Section VI-D).
//!
//! Both scan loops hand every score to [`TopKBuffer::insert`], which turns a
//! pair below the buffer's `k`-th score away with one comparison — with
//! `k ≪ |P|·|Q|` that is almost every pair.

use dht_graph::{Graph, NodeId, NodeSet};
use dht_rankjoin::TopKBuffer;
use dht_walks::QueryCtx;

use crate::stats::TwoWayStats;

use super::incremental::IncrementalState;
use super::{finalize_pairs, ColumnSource, TwoWayConfig, TwoWayOutput};

/// Runs B-IDJ-X over any [`ColumnSource`], pruning with its tail bound
/// `X_l⁺`, and returns the top-`k` pairs.  The columns of every deepening
/// level are served from (and fill) the context's cache.
pub fn top_k_x<S: ColumnSource>(
    graph: &Graph,
    source: &S,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
    ctx: &mut QueryCtx,
) -> TwoWayOutput {
    let bound_at = |l: usize, _: NodeId| source.tail_bound(l);
    let stats = TwoWayStats::default();
    deepen(graph, source, p, q, k, bound_at, None, stats, ctx)
}

/// Runs B-IDJ-Y over DHT, pruning with the reachability-aware `Y_l⁺(P, q)`,
/// and returns the top-`k` pairs.  The columns of every deepening level and
/// the `Y_l⁺` table are served from (and fill) the context's caches.
///
/// If `incremental` is provided, the per-pair bound information computed
/// during the run is recorded there (the `F` structure of PJ-i) and the
/// emitted top-`k` pairs are marked as already returned.
pub fn top_k_y(
    graph: &Graph,
    config: &TwoWayConfig,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
    mut incremental: Option<&mut IncrementalState<'_>>,
    ctx: &mut QueryCtx,
) -> TwoWayOutput {
    let d = config.d;
    // The Y bound needs one d-step forward sweep seeded with all of P; a
    // warm context serves it from the per-(params, d, engine, P) table
    // cache.  The walk counters track the algorithm's logical work, so they
    // are independent of cache temperature.
    let stats = TwoWayStats {
        walk_invocations: 1,
        walk_steps: d as u64,
        ..Default::default()
    };
    let y_table = ctx.y_bound_table(graph, &config.params, p, d, config.engine, config.threads);
    if let Some(state) = incremental.as_deref_mut() {
        assert!(state.is_over(p, q), "F was laid out for other node sets");
        state.set_y_table(y_table.clone());
        state.set_engine(config.engine);
    }
    let bound_at = |l: usize, qn: NodeId| y_table.bound(l, qn);
    deepen(graph, config, p, q, k, bound_at, incremental, stats, ctx)
}

/// The deepening loop and final pass shared by every B-IDJ variant;
/// `bound_at(l, q)` is the `U_l⁺` that prunes target `q` at level `l`.
#[allow(clippy::too_many_arguments)]
fn deepen<S: ColumnSource>(
    graph: &Graph,
    source: &S,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
    bound_at: impl Fn(usize, NodeId) -> f64,
    mut incremental: Option<&mut IncrementalState<'_>>,
    mut stats: TwoWayStats,
    ctx: &mut QueryCtx,
) -> TwoWayOutput {
    let d = source.depth();
    let floor = source.floor();
    let p_members = p.members();
    let mut alive: Vec<NodeId> = q.members().to_vec();
    stats.q_remaining_per_iteration.push(alive.len());

    // One buffer and one bound list serve every level and the final pass.
    let mut buffer: TopKBuffer<(u32, u32)> = TopKBuffer::new(k);
    let mut uppers: Vec<(NodeId, f64)> = Vec::with_capacity(alive.len());
    let mut l = 1usize;
    while l < d && alive.len() > 1 {
        buffer.clear();
        uppers.clear();
        // The l-step backward walks of the surviving targets run (possibly
        // in parallel) on the shared column streamer; bound bookkeeping
        // consumes them in target order, identical to a serial run.
        source.for_each_column(graph, l, &alive, ctx, |qn, scores| {
            stats.walk_invocations += 1;
            stats.walk_steps += l as u64;
            let u_bound = bound_at(l, qn);
            let mut p_max = floor;
            let mut column = incremental.as_deref_mut().map(|s| s.column_mut(qn));
            for (i, &pn) in p_members.iter().enumerate() {
                if pn == qn {
                    continue;
                }
                let lower = scores[pn.index()];
                stats.pairs_scored += 1;
                if lower > floor {
                    buffer.insert(lower, (pn.0, qn.0));
                }
                if lower > p_max {
                    p_max = lower;
                }
                if let Some(column) = column.as_deref_mut() {
                    column[i].record(lower, lower + u_bound, l);
                }
            }
            uppers.push((qn, p_max + u_bound));
        });
        if let Some(tk) = buffer.kth_score() {
            alive.clear();
            alive.extend(
                uppers
                    .iter()
                    .filter(|&&(_, upper)| upper >= tk)
                    .map(|&(qn, _)| qn),
            );
        }
        stats.q_remaining_per_iteration.push(alive.len());
        l *= 2;
    }

    // Final pass: exact d-step scores for the surviving targets.
    buffer.clear();
    source.for_each_column(graph, d, &alive, ctx, |qn, scores| {
        stats.walk_invocations += 1;
        stats.walk_steps += d as u64;
        let mut column = incremental.as_deref_mut().map(|s| s.column_mut(qn));
        for (i, &pn) in p_members.iter().enumerate() {
            if pn == qn {
                continue;
            }
            let score = scores[pn.index()];
            stats.pairs_scored += 1;
            buffer.insert(score, (pn.0, qn.0));
            if let Some(column) = column.as_deref_mut() {
                column[i].record(score, score, d);
            }
        }
    });

    let pairs = finalize_pairs(buffer, ctx.trace());
    if let Some(state) = incremental {
        for pair in &pairs {
            state.mark_emitted(pair.left, pair.right);
        }
    }
    TwoWayOutput { pairs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twoway::{bbj, fbj};
    use dht_graph::generators::{erdos_renyi, planted_partition, PlantedPartitionConfig};
    use dht_graph::NodeId;
    use dht_walks::DhtParams;

    fn sets(p: &[u32], q: &[u32]) -> (NodeSet, NodeSet) {
        (
            NodeSet::new("P", p.iter().copied().map(NodeId)),
            NodeSet::new("Q", q.iter().copied().map(NodeId)),
        )
    }

    fn community_fixture() -> dht_graph::generators::CommunityGraph {
        planted_partition(&PlantedPartitionConfig {
            communities: 4,
            community_size: 30,
            avg_internal_degree: 8.0,
            avg_external_degree: 1.0,
            weighted: false,
            seed: 77,
        })
    }

    #[test]
    fn x_variant_matches_the_basic_backward_join() {
        let g = erdos_renyi(40, 120, 51);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2, 3, 4, 5], &[30, 31, 32, 33, 34, 35]);
        let reference = bbj::top_k(&g, &cfg, &p, &q, 7, &mut QueryCtx::one_shot());
        let idj = top_k_x(&g, &cfg, &p, &q, 7, &mut QueryCtx::one_shot());
        assert_eq!(reference.pairs.len(), idj.pairs.len());
        for (a, b) in reference.pairs.iter().zip(idj.pairs.iter()) {
            assert!((a.score - b.score).abs() < 1e-10, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn y_variant_matches_the_forward_oracle() {
        let cg = community_fixture();
        let cfg = TwoWayConfig::paper_default();
        let p = cg.community(0).clone();
        let q = cg.community(1).clone();
        let reference = fbj::top_k(&cg.graph, &cfg, &p, &q, 10, &mut QueryCtx::one_shot());
        let idj = top_k_y(&cg.graph, &cfg, &p, &q, 10, None, &mut QueryCtx::one_shot());
        assert_eq!(reference.pairs.len(), idj.pairs.len());
        for (a, b) in reference.pairs.iter().zip(idj.pairs.iter()) {
            assert!((a.score - b.score).abs() < 1e-10, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn y_prunes_at_least_as_much_as_x() {
        let cg = community_fixture();
        let cfg = TwoWayConfig::new(DhtParams::dht_lambda(0.5), 10);
        let p = cg.community(0).clone();
        let q = cg.community(2).clone();
        let x = top_k_x(&cg.graph, &cfg, &p, &q, 5, &mut QueryCtx::one_shot());
        let y = top_k_y(&cg.graph, &cfg, &p, &q, 5, None, &mut QueryCtx::one_shot());
        // same answers
        for (a, b) in x.pairs.iter().zip(y.pairs.iter()) {
            assert!((a.score - b.score).abs() < 1e-10);
        }
        // Y never keeps more targets alive than X at any iteration
        let xt = &x.stats.q_remaining_per_iteration;
        let yt = &y.stats.q_remaining_per_iteration;
        for (xa, ya) in xt.iter().zip(yt.iter()) {
            assert!(ya <= xa, "X trace {xt:?}, Y trace {yt:?}");
        }
        // and Y performs no more walk work
        assert!(y.stats.walk_steps <= x.stats.walk_steps + cfg.d as u64);
    }

    #[test]
    fn pruning_trace_starts_with_full_q() {
        let cg = community_fixture();
        let cfg = TwoWayConfig::paper_default();
        let p = cg.community(0).clone();
        let q = cg.community(1).clone();
        let out = top_k_y(&cg.graph, &cfg, &p, &q, 5, None, &mut QueryCtx::one_shot());
        assert_eq!(out.stats.q_remaining_per_iteration[0], q.len());
        // remaining counts never increase
        for w in out.stats.q_remaining_per_iteration.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn incremental_state_is_populated_and_marks_emitted_pairs() {
        let cg = community_fixture();
        let cfg = TwoWayConfig::paper_default();
        let p = cg.community(0).clone();
        let q = cg.community(1).clone();
        let mut state = IncrementalState::new(cfg.params, cfg.d, &p, &q);
        let ctx = &mut QueryCtx::one_shot();
        let out = top_k_y(&cg.graph, &cfg, &p, &q, 8, Some(&mut state), ctx);
        assert_eq!(out.pairs.len(), 8);
        // every (p, q) pair has an entry recorded
        assert_eq!(state.len(), p.len() * q.len());
        assert_eq!(state.emitted_count(), 8);
    }

    #[test]
    fn overlapping_node_sets_never_pair_a_node_with_itself() {
        let g = erdos_renyi(20, 60, 13);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2, 3], &[2, 3, 4, 5]);
        let x = top_k_x(&g, &cfg, &p, &q, 20, &mut QueryCtx::one_shot());
        let y = top_k_y(&g, &cfg, &p, &q, 20, None, &mut QueryCtx::one_shot());
        for out in [x, y] {
            assert!(out.pairs.iter().all(|pr| pr.left != pr.right));
            assert_eq!(out.pairs.len(), 4 * 4 - 2);
        }
    }

    #[test]
    fn single_target_skips_the_deepening_loop() {
        let g = erdos_renyi(15, 45, 19);
        let cfg = TwoWayConfig::paper_default();
        let (p, q) = sets(&[0, 1, 2, 3], &[10]);
        let out = top_k_y(&g, &cfg, &p, &q, 3, None, &mut QueryCtx::one_shot());
        let reference = bbj::top_k(&g, &cfg, &p, &q, 3, &mut QueryCtx::one_shot());
        for (a, b) in reference.pairs.iter().zip(out.pairs.iter()) {
            assert!((a.score - b.score).abs() < 1e-10);
        }
    }
}
