//! PJ: the Partial Join (Algorithm 1).
//!
//! PJ evaluates a top-`m` 2-way join per query edge and rank-joins the
//! resulting lists.  If the rank join needs more pairs than the top-`m` list
//! of some edge provides, `getNextNodePair` re-runs that edge's 2-way join
//! with a larger result size and appends the newly revealed pair — this is
//! the expensive part that PJ-i later removes.

use dht_graph::{Graph, NodeSet};
use dht_walks::QueryCtx;

use crate::answer::PairScore;
use crate::query::QueryGraph;
use crate::stats::NWayStats;
use crate::twoway::{bidj, TwoWayConfig};
use crate::Result;

use super::pbrj::{self, EdgeListProvider};
use super::{NWayConfig, NWayOutput};

/// Provider that starts from top-`m` lists and re-runs deeper joins on
/// demand.
struct RestartingProvider<'a> {
    graph: &'a Graph,
    two_way_config: TwoWayConfig,
    node_sets: &'a [NodeSet],
    edges: Vec<(usize, usize)>,
    lists: Vec<Vec<PairScore>>,
    /// Edges whose underlying pair domain has been fully revealed.
    complete: Vec<bool>,
    floor: f64,
    /// Session context the restarted joins run through — the warm column
    /// cache is what keeps the re-runs from repeating every backward walk.
    ctx: &'a mut QueryCtx,
}

impl EdgeListProvider for RestartingProvider<'_> {
    fn get(&mut self, edge: usize, index: usize, stats: &mut NWayStats) -> Option<PairScore> {
        if index < self.lists[edge].len() {
            return Some(self.lists[edge][index]);
        }
        if self.complete[edge] {
            return None;
        }
        // getNextNodePair for PJ: run a fresh top-(index + 1) 2-way join.
        stats.next_pair_calls += 1;
        let (i, j) = self.edges[edge];
        let p = &self.node_sets[i];
        let q = &self.node_sets[j];
        let wanted = index + 1;
        if wanted > p.len() * q.len() {
            self.complete[edge] = true;
            return None;
        }
        let out = bidj::top_k_y(
            self.graph,
            &self.two_way_config,
            p,
            q,
            wanted,
            None,
            self.ctx,
        );
        stats.two_way_joins += 1;
        stats.two_way.absorb(&out.stats);
        if out.pairs.len() <= index {
            // The deeper join did not reveal any additional pair (every
            // remaining pair is unreachable); treat the list as complete.
            self.complete[edge] = true;
            return None;
        }
        self.lists[edge] = out.pairs;
        Some(self.lists[edge][index])
    }

    fn floor(&self) -> f64 {
        self.floor
    }
}

/// Runs PJ with the given `m` and the paper's inner 2-way join, B-IDJ-Y.
/// Both the initial top-`m` joins and the restarted deeper joins of
/// `getNextNodePair` share the context's caches, so a restart only
/// recomputes the columns the deeper join actually adds.
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

    // Step 2–4: a top-m 2-way join per query edge.
    let mut lists = Vec::with_capacity(query.edge_count());
    for &(i, j) in query.edges() {
        let p = &node_sets[i];
        let q = &node_sets[j];
        let out = bidj::top_k_y(graph, &two_way_config, p, q, m, None, ctx);
        stats.two_way_joins += 1;
        stats.two_way.absorb(&out.stats);
        lists.push(out.pairs);
    }

    let mut provider = RestartingProvider {
        graph,
        two_way_config,
        node_sets,
        edges: query.edges().to_vec(),
        lists,
        complete: vec![false; query.edge_count()],
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
    use crate::multiway::{ap, nl};
    use dht_graph::generators::{planted_partition, PlantedPartitionConfig};

    fn fixture() -> (Graph, Vec<NodeSet>) {
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 3,
            community_size: 10,
            avg_internal_degree: 5.0,
            avg_external_degree: 2.0,
            weighted: true,
            seed: 99,
        });
        (cg.graph, cg.communities)
    }

    #[test]
    fn matches_nl_and_ap_on_a_chain() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        for aggregate in [Aggregate::Min, Aggregate::Sum] {
            let config = NWayConfig::paper_default()
                .with_k(5)
                .with_aggregate(aggregate);
            let reference = nl::run(&g, &config, &query, &sets, true, &mut ctx).unwrap();
            let pj = run(&g, &config, &query, &sets, 5, &mut ctx).unwrap();
            assert_eq!(reference.answers.len(), pj.answers.len());
            for (a, b) in reference.answers.iter().zip(pj.answers.iter()) {
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "agg={aggregate:?}: {} vs {}",
                    a.score,
                    b.score
                );
            }
            let (two_way, k) = (config.two_way(), config.k);
            let ap_out = ap::run_over(&g, &two_way, &query, &sets, aggregate, k, &mut ctx);
            let ap_out = ap_out.unwrap();
            for (a, b) in ap_out.answers.iter().zip(pj.answers.iter()) {
                assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn small_m_forces_next_pair_calls_but_keeps_answers_correct() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        let config = NWayConfig::paper_default().with_k(8);
        let reference = nl::run(&g, &config, &query, &sets, true, &mut ctx).unwrap();
        let pj = run(&g, &config, &query, &sets, 2, &mut ctx).unwrap();
        assert!(
            pj.stats.next_pair_calls > 0,
            "m=2 must exhaust the initial lists"
        );
        assert_eq!(reference.answers.len(), pj.answers.len());
        for (a, b) in reference.answers.iter().zip(pj.answers.iter()) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn large_m_avoids_next_pair_calls() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        let config = NWayConfig::paper_default().with_k(3);
        let pj = run(&g, &config, &query, &sets, 100, &mut ctx).unwrap();
        assert_eq!(pj.stats.next_pair_calls, 0);
        assert_eq!(pj.answers.len(), 3);
    }

    #[test]
    fn triangle_query_matches_nl() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::triangle();
        let config = NWayConfig::paper_default().with_k(4);
        let reference = nl::run(&g, &config, &query, &sets, true, &mut ctx).unwrap();
        let pj = run(&g, &config, &query, &sets, 10, &mut ctx).unwrap();
        assert_eq!(reference.answers.len(), pj.answers.len());
        for (a, b) in reference.answers.iter().zip(pj.answers.iter()) {
            assert!((a.score - b.score).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn m_zero_starts_from_empty_lists() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(2);
        let config = NWayConfig::paper_default().with_k(3);
        let reference = nl::run(&g, &config, &query, &sets[..2], true, &mut ctx).unwrap();
        let pj = run(&g, &config, &query, &sets[..2], 0, &mut ctx).unwrap();
        assert_eq!(reference.answers.len(), pj.answers.len());
        for (a, b) in reference.answers.iter().zip(pj.answers.iter()) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        assert!(pj.stats.next_pair_calls > 0);
    }
}
