//! PJ-i: the Incremental Partial Join (Section VI-D).
//!
//! PJ-i is PJ with two changes:
//!
//! * the initial top-`m` 2-way joins are evaluated with a *modified*
//!   B-IDJ-Y that records every bound it computes in the mutable priority
//!   structure `F` ([`crate::twoway::IncrementalState`]);
//! * `getNextNodePair` is answered from `F` — the next-best pair is located
//!   by its upper bound and refined with (at most) a doubling backward walk,
//!   instead of re-running a whole top-`(m+1)` join from scratch.
//!
//! The per-call cost drops from `O((M² − m)·M·d·|E|)` to `O(M·d·|E|)` in the
//! worst case, and in practice most calls are answered without any walk at
//! all because the needed entry is already exact.

use dht_graph::{Graph, NodeSet};
use dht_walks::QueryCtx;

use crate::answer::PairScore;
use crate::query::QueryGraph;
use crate::stats::NWayStats;
use crate::twoway::{bidj, IncrementalState};
use crate::Result;

use super::pbrj::{self, EdgeListProvider};
use super::{NWayConfig, NWayOutput};

/// Provider that starts from top-`m` lists and extends them from the
/// incremental bound structures.
struct IncrementalProvider<'a> {
    graph: &'a Graph,
    lists: Vec<Vec<PairScore>>,
    states: Vec<IncrementalState<'a>>,
    floor: f64,
    /// Session context serving the refinement walks of `next_pair` from the
    /// warm column cache.
    ctx: &'a mut QueryCtx,
}

impl EdgeListProvider for IncrementalProvider<'_> {
    fn get(&mut self, edge: usize, index: usize, stats: &mut NWayStats) -> Option<PairScore> {
        if index < self.lists[edge].len() {
            return Some(self.lists[edge][index]);
        }
        // getNextNodePair for PJ-i: consult F instead of re-joining.
        stats.next_pair_calls += 1;
        let state = &mut self.states[edge];
        let walks_before = state.refinement_walks();
        let steps_before = state.refinement_steps();
        let next = state.next_pair(self.graph, self.ctx);
        stats.two_way.walk_invocations += state.refinement_walks() - walks_before;
        stats.two_way.walk_steps += state.refinement_steps() - steps_before;
        match next {
            Some(pair) => {
                self.lists[edge].push(pair);
                Some(pair)
            }
            None => None,
        }
    }

    fn floor(&self) -> f64 {
        self.floor
    }
}

/// Runs PJ-i with the given `m`.  The inner 2-way join is always the
/// modified B-IDJ-Y, as in the paper.  The initial joins and the lazy
/// refinement walks of `getNextNodePair` all share the context's
/// backward-column and Y-table caches.
pub fn run(
    graph: &Graph,
    config: &NWayConfig,
    query: &QueryGraph,
    node_sets: &[NodeSet],
    m: usize,
    ctx: &mut QueryCtx,
) -> Result<NWayOutput> {
    query.validate_node_sets(node_sets)?;
    let mut stats = NWayStats::default();
    let two_way_config = config.two_way();

    let mut lists = Vec::with_capacity(query.edge_count());
    let mut states = Vec::with_capacity(query.edge_count());
    for &(i, j) in query.edges() {
        let p = &node_sets[i];
        let q = &node_sets[j];
        let mut state = IncrementalState::new(config.params, config.d, p, q);
        let out = bidj::top_k_y(graph, &two_way_config, p, q, m, Some(&mut state), ctx);
        stats.two_way_joins += 1;
        stats.two_way.absorb(&out.stats);
        lists.push(out.pairs);
        states.push(state);
    }

    let mut provider = IncrementalProvider {
        graph,
        lists,
        states,
        floor: config.params.min_score(),
        ctx,
    };
    let answers = pbrj::run(
        query,
        node_sets,
        config.aggregate,
        config.k,
        &mut provider,
        &mut stats,
    )?;
    Ok(NWayOutput { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::multiway::{nl, pj};
    use dht_graph::generators::{planted_partition, PlantedPartitionConfig};

    fn fixture() -> (Graph, Vec<NodeSet>) {
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 4,
            community_size: 10,
            avg_internal_degree: 5.0,
            avg_external_degree: 2.0,
            weighted: true,
            seed: 123,
        });
        (cg.graph, cg.communities)
    }

    #[test]
    fn matches_nl_on_chains_for_both_aggregates() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        for aggregate in [Aggregate::Min, Aggregate::Sum] {
            let config = NWayConfig::paper_default()
                .with_k(6)
                .with_aggregate(aggregate);
            let reference = nl::run(&g, &config, &query, &sets[..3], true, &mut ctx).unwrap();
            let pji = run(&g, &config, &query, &sets[..3], 5, &mut ctx).unwrap();
            assert_eq!(reference.answers.len(), pji.answers.len());
            for (a, b) in reference.answers.iter().zip(pji.answers.iter()) {
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "agg={aggregate:?}: {} vs {}",
                    a.score,
                    b.score
                );
            }
        }
    }

    #[test]
    fn matches_pj_with_the_same_m() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(4);
        let config = NWayConfig::paper_default().with_k(5);
        let pj_out = pj::run(&g, &config, &query, &sets, 3, &mut ctx).unwrap();
        let pji_out = run(&g, &config, &query, &sets, 3, &mut ctx).unwrap();
        assert_eq!(pj_out.answers.len(), pji_out.answers.len());
        for (a, b) in pj_out.answers.iter().zip(pji_out.answers.iter()) {
            assert!((a.score - b.score).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn small_m_uses_the_incremental_structure_instead_of_rejoining() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        let config = NWayConfig::paper_default().with_k(8);
        let pji_out = run(&g, &config, &query, &sets[..3], 2, &mut ctx).unwrap();
        assert!(pji_out.stats.next_pair_calls > 0);
        // only the initial |E_Q| joins were run; next pairs came from F
        assert_eq!(pji_out.stats.two_way_joins, query.edge_count() as u64);
        let reference = nl::run(&g, &config, &query, &sets[..3], true, &mut ctx).unwrap();
        for (a, b) in reference.answers.iter().zip(pji_out.answers.iter()) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn triangle_and_star_queries_match_nl() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let config = NWayConfig::paper_default().with_k(4);
        for query in [QueryGraph::triangle(), QueryGraph::star(3)] {
            let reference = nl::run(&g, &config, &query, &sets[..3], true, &mut ctx).unwrap();
            let pji_out = run(&g, &config, &query, &sets[..3], 6, &mut ctx).unwrap();
            assert_eq!(reference.answers.len(), pji_out.answers.len());
            for (a, b) in reference.answers.iter().zip(pji_out.answers.iter()) {
                assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }
}
