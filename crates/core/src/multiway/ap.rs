//! AP: the All Pairs n-way join (Section III-B).
//!
//! For every query edge `(R_i, R_j)` the *complete* list of `|R_i|·|R_j|`
//! DHT scores is computed and sorted; a Pull/Bound Rank Join then combines
//! the lists into the top-k answers.  Much cheaper than NL (each pair is
//! scored once instead of once per candidate tuple), but still wasteful: the
//! paper observes that under a wide range of `k` less than 1% of the 2-way
//! results are ever used.

use dht_graph::{Graph, NodeSet};
use dht_walks::QueryCtx;

use crate::answer::PairScore;
use crate::query::QueryGraph;
use crate::stats::NWayStats;
use crate::twoway::{bbj, fbj, ColumnSource, TwoWayOutput};
use crate::{Aggregate, Result};

use super::pbrj::{self, EdgeListProvider};
use super::{NWayConfig, NWayOutput};

/// Provider backed by fully materialised per-edge lists.
struct FullListProvider {
    lists: Vec<Vec<PairScore>>,
    floor: f64,
}

impl EdgeListProvider for FullListProvider {
    fn get(&mut self, edge: usize, index: usize, _stats: &mut NWayStats) -> Option<PairScore> {
        self.lists[edge].get(index).copied()
    }
    fn floor(&self) -> f64 {
        self.floor
    }
}

/// Runs AP with the paper's inner 2-way join, F-BJ, for every query edge.
///
/// The per-edge 2-way joins are independent of one another; with
/// `config.threads > 1` and a multi-edge query graph they run concurrently
/// (each join serial inside, so workers are not oversubscribed), and their
/// outputs are absorbed in edge order — identical to a serial run.  In the
/// concurrent case each worker forks the session context
/// ([`QueryCtx::fork`]) for its scratch pool.  F-BJ reads no column, so
/// these joins neither read nor warm any cache; [`run_over`] builds the
/// same lists with B-BJ through the context's column cache.
pub fn run(
    graph: &Graph,
    config: &NWayConfig,
    query: &QueryGraph,
    node_sets: &[NodeSet],
    ctx: &mut QueryCtx,
) -> Result<NWayOutput> {
    query.validate_node_sets(node_sets)?;
    let threads = dht_par::effective_threads(config.threads);

    let edges = query.edges();
    let outputs = if threads > 1 && edges.len() > 1 {
        // Outer-level parallelism over query edges; inner joins run serial
        // so total concurrency stays at the requested thread count.  Each
        // worker forks the session context once, for its scratch pool.
        let inner = config.two_way().with_threads(1);
        let worker_ctx = &*ctx;
        dht_par::parallel_map_init(
            config.threads,
            edges,
            || worker_ctx.fork(),
            |ctx, _, &(i, j)| {
                let (p, q) = (&node_sets[i], &node_sets[j]);
                fbj::top_k(graph, &inner, p, q, p.len() * q.len(), ctx)
            },
        )
    } else {
        let inner = config.two_way();
        edges
            .iter()
            .map(|&(i, j)| {
                let (p, q) = (&node_sets[i], &node_sets[j]);
                fbj::top_k(graph, &inner, p, q, p.len() * q.len(), ctx)
            })
            .collect()
    };

    let floor = config.params.min_score();
    rank_join(query, node_sets, config.aggregate, config.k, floor, outputs)
}

/// Runs AP over any [`ColumnSource`]: B-BJ builds the query edges'
/// complete lists one after another, on the source's threads.
pub fn run_over<S: ColumnSource>(
    graph: &Graph,
    source: &S,
    query: &QueryGraph,
    node_sets: &[NodeSet],
    aggregate: Aggregate,
    k: usize,
    ctx: &mut QueryCtx,
) -> Result<NWayOutput> {
    query.validate_node_sets(node_sets)?;
    let outputs = (query.edges().iter())
        .map(|&(i, j)| {
            let (p, q) = (&node_sets[i], &node_sets[j]);
            bbj::top_k(graph, source, p, q, p.len() * q.len(), ctx)
        })
        .collect();
    rank_join(query, node_sets, aggregate, k, source.floor(), outputs)
}

/// Combines the complete per-edge lists with the Pull/Bound Rank Join;
/// `floor`, the score of an unconnected pair, tightens its bound.
fn rank_join(
    query: &QueryGraph,
    node_sets: &[NodeSet],
    aggregate: Aggregate,
    k: usize,
    floor: f64,
    outputs: Vec<TwoWayOutput>,
) -> Result<NWayOutput> {
    let mut stats = NWayStats::default();
    let mut lists = Vec::with_capacity(outputs.len());
    for out in outputs {
        stats.two_way_joins += 1;
        stats.two_way.absorb(&out.stats);
        lists.push(out.pairs);
    }
    let mut provider = FullListProvider { lists, floor };
    let answers = pbrj::run(query, node_sets, aggregate, k, &mut provider, &mut stats)?;
    Ok(NWayOutput { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::multiway::nl;
    use dht_graph::generators::{erdos_renyi, planted_partition, PlantedPartitionConfig};
    use dht_graph::NodeId;

    fn fixture() -> (Graph, Vec<NodeSet>) {
        let g = erdos_renyi(18, 60, 23);
        let sets = vec![
            NodeSet::new("A", [NodeId(0), NodeId(1), NodeId(2)]),
            NodeSet::new("B", [NodeId(6), NodeId(7), NodeId(8)]),
            NodeSet::new("C", [NodeId(12), NodeId(13)]),
        ];
        (g, sets)
    }

    #[test]
    fn agrees_with_nested_loop_on_a_chain() {
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        let mut ctx = QueryCtx::one_shot();
        for aggregate in [Aggregate::Min, Aggregate::Sum] {
            let config = NWayConfig::paper_default()
                .with_k(6)
                .with_aggregate(aggregate);
            let reference = nl::run(&g, &config, &query, &sets, true, &mut ctx).unwrap();
            let ap = run(&g, &config, &query, &sets, &mut ctx).unwrap();
            assert_eq!(reference.answers.len(), ap.answers.len());
            for (a, b) in reference.answers.iter().zip(ap.answers.iter()) {
                assert!(
                    (a.score - b.score).abs() < 1e-10,
                    "agg={aggregate:?}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_nested_loop_on_a_triangle() {
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 3,
            community_size: 8,
            avg_internal_degree: 4.0,
            avg_external_degree: 2.0,
            weighted: true,
            seed: 42,
        });
        let sets: Vec<NodeSet> = cg.communities.clone();
        let query = QueryGraph::triangle();
        let config = NWayConfig::paper_default().with_k(5);
        let mut ctx = QueryCtx::one_shot();
        let reference = nl::run(&cg.graph, &config, &query, &sets, true, &mut ctx).unwrap();
        let (aggregate, k) = (config.aggregate, config.k);
        let ap = run_over(
            &cg.graph,
            &config.two_way(),
            &query,
            &sets,
            aggregate,
            k,
            &mut ctx,
        );
        let ap = ap.unwrap();
        assert_eq!(reference.answers.len(), ap.answers.len());
        for (a, b) in reference.answers.iter().zip(ap.answers.iter()) {
            assert!((a.score - b.score).abs() < 1e-10, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn forward_and_backward_inner_joins_give_identical_answers() {
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        let config = NWayConfig::paper_default().with_k(8);
        let mut ctx = QueryCtx::one_shot();
        let fwd = run(&g, &config, &query, &sets, &mut ctx).unwrap();
        let (aggregate, k) = (config.aggregate, config.k);
        let bwd = run_over(&g, &config.two_way(), &query, &sets, aggregate, k, &mut ctx);
        let bwd = bwd.unwrap();
        assert_eq!(fwd.answers.len(), bwd.answers.len());
        for (a, b) in fwd.answers.iter().zip(bwd.answers.iter()) {
            assert_eq!(a.nodes, b.nodes);
            assert!((a.score - b.score).abs() < 1e-10);
        }
    }

    #[test]
    fn two_way_join_count_matches_query_edges() {
        let (g, sets) = fixture();
        let query = QueryGraph::triangle();
        let config = NWayConfig::paper_default().with_k(3);
        let (aggregate, k) = (config.aggregate, config.k);
        let mut ctx = QueryCtx::one_shot();
        let out = run_over(&g, &config.two_way(), &query, &sets, aggregate, k, &mut ctx);
        let out = out.unwrap();
        assert_eq!(out.stats.two_way_joins, 6);
    }
}
