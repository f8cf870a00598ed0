//! Top-k joins over any [`ProximityMeasure`]: one-shot entry points that
//! hand the measure's [`MeasureSource`] to `dht-core`'s B-BJ, B-IDJ-X and
//! AP.  A caller holding a session [`QueryCtx`] calls those
//! (`bbj::top_k_over`, `bidj::top_k_x_over`, `ap::run_over`) directly, so
//! the columns share the context's cache.

use dht_core::answer::PairScore;
use dht_core::multiway::{ap, NWayOutput};
use dht_core::twoway::{bbj, bidj};
use dht_core::{Aggregate, QueryCtx, QueryGraph};
use dht_graph::{Graph, NodeSet};
use dht_walks::WalkEngine;

use crate::measure::{IterativeMeasure, MeasureSource, ProximityMeasure};
use crate::{MeasureError, Result};

/// A scored node pair produced by a measure 2-way join (the DHT joins'
/// [`PairScore`]).
pub type MeasurePair = PairScore;

/// Result of a measure n-way join: the top-k answers (descending aggregate
/// score) and the rank-join counters.
pub type MeasureNWayOutput = NWayOutput;

/// Top-k 2-way join of `p ⋈ q` under an arbitrary measure, B-BJ style:
/// one bulk column per target node, on the default walk engine.
///
/// Pairs with identical left and right node are skipped (the paper's joins
/// never score a node against itself).  Ties are broken by node ids so the
/// result is deterministic.
pub fn measure_two_way_top_k<M: ProximityMeasure + Sync + ?Sized>(
    graph: &Graph,
    measure: &M,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
) -> Vec<MeasurePair> {
    measure_two_way_top_k_threaded(graph, measure, p, q, k, WalkEngine::default(), 1)
}

/// [`measure_two_way_top_k`] with the columns walked on `engine` and built
/// on `threads` workers.  Results are identical at every thread count.
pub fn measure_two_way_top_k_threaded<M: ProximityMeasure + Sync + ?Sized>(
    graph: &Graph,
    measure: &M,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
    engine: WalkEngine,
    threads: usize,
) -> Vec<MeasurePair> {
    let source = MeasureSource::new(measure, engine, threads);
    bbj::top_k_over(graph, &source, p, q, k, &mut QueryCtx::one_shot()).pairs
}

/// Top-k 2-way join with iterative-deepening pruning, B-IDJ-X style.
///
/// At each doubling depth `l`, partial columns provide lower bounds and
/// `partial + tail_bound(l)` provides per-target upper bounds; targets whose
/// upper bound cannot reach the current k-th best lower bound are discarded
/// before the final full-depth pass.  Produces exactly the same pairs as
/// [`measure_two_way_top_k`].
pub fn measure_two_way_top_k_pruned<M: IterativeMeasure + Sync + ?Sized>(
    graph: &Graph,
    measure: &M,
    p: &NodeSet,
    q: &NodeSet,
    k: usize,
) -> Vec<MeasurePair> {
    let source = MeasureSource::new(measure, WalkEngine::default(), 1);
    bidj::top_k_x_over(graph, &source, p, q, k, &mut QueryCtx::one_shot()).pairs
}

/// Top-k n-way join under an arbitrary measure, AP style: a complete 2-way
/// join per query edge followed by the Pull/Bound Rank Join.
///
/// The query graph, node sets and aggregate have exactly the semantics of
/// the DHT n-way joins in `dht-core`; only the per-edge similarity changes.
pub fn measure_nway_top_k<M: ProximityMeasure + Sync + ?Sized>(
    graph: &Graph,
    measure: &M,
    query: &QueryGraph,
    node_sets: &[NodeSet],
    aggregate: Aggregate,
    k: usize,
) -> Result<MeasureNWayOutput> {
    let engine = WalkEngine::default();
    measure_nway_top_k_threaded(graph, measure, query, node_sets, aggregate, k, engine, 1)
}

/// [`measure_nway_top_k`] with the columns walked on `engine` and built on
/// `threads` workers.  Results are identical to the serial join.
#[allow(clippy::too_many_arguments)]
pub fn measure_nway_top_k_threaded<M: ProximityMeasure + Sync + ?Sized>(
    graph: &Graph,
    measure: &M,
    query: &QueryGraph,
    node_sets: &[NodeSet],
    aggregate: Aggregate,
    k: usize,
    engine: WalkEngine,
    threads: usize,
) -> Result<MeasureNWayOutput> {
    let source = MeasureSource::new(measure, engine, threads);
    let mut ctx = QueryCtx::one_shot();
    ap::run_over(graph, &source, query, node_sets, aggregate, k, &mut ctx)
        .map_err(|e| MeasureError::InvalidJoin(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::DhtMeasure;
    use crate::ppr::PersonalizedPageRank;
    use dht_graph::{GraphBuilder, NodeId};

    /// A two-community graph: 0-4 densely connected, 5-9 densely connected,
    /// with a single bridge 4-5.  Edge weights vary so that scores have no
    /// exact ties and result orders are unambiguous.
    fn two_communities() -> Graph {
        let mut b = GraphBuilder::with_nodes(10);
        for base in [0u32, 5u32] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    let w = 1.0 + 0.31 * f64::from(base + i) + 0.17 * f64::from(j);
                    b.add_undirected_edge(NodeId(base + i), NodeId(base + j), w)
                        .unwrap();
                }
            }
        }
        b.add_undirected_edge(NodeId(4), NodeId(5), 1.0).unwrap();
        b.build().unwrap()
    }

    fn sets() -> (NodeSet, NodeSet, NodeSet) {
        (
            NodeSet::new("A", (0..3).map(NodeId)),
            NodeSet::new("B", (3..7).map(NodeId)),
            NodeSet::new("C", (7..10).map(NodeId)),
        )
    }

    /// Brute-force reference: score every pair with the single-pair method.
    fn brute_force(
        graph: &Graph,
        measure: &impl ProximityMeasure,
        p: &NodeSet,
        q: &NodeSet,
        k: usize,
    ) -> Vec<(u32, u32, f64)> {
        let mut all: Vec<(u32, u32, f64)> = p
            .iter()
            .flat_map(|a| q.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.0, b.0, measure.score(graph, a, b)))
            .collect();
        all.sort_by(|x, y| {
            y.2.total_cmp(&x.2)
                .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn basic_join_matches_brute_force_for_ppr() {
        let g = two_communities();
        let (a, b, _) = sets();
        let m = PersonalizedPageRank::new(0.8, 8).unwrap();
        let fast = measure_two_way_top_k(&g, &m, &a, &b, 5);
        let slow = brute_force(&g, &m, &a, &b, 5);
        assert_eq!(fast.len(), 5);
        for (pair, (l, r, s)) in fast.iter().zip(slow.iter()) {
            assert_eq!((pair.left.0, pair.right.0), (*l, *r));
            assert!((pair.score - s).abs() < 1e-12);
        }
    }

    #[test]
    fn pruned_join_agrees_with_basic_join() {
        let g = two_communities();
        let (a, b, c) = sets();
        for k in [1, 3, 8, 50] {
            let dht = DhtMeasure::paper_default();
            let basic = measure_two_way_top_k(&g, &dht, &a, &c, k);
            let pruned = measure_two_way_top_k_pruned(&g, &dht, &a, &c, k);
            assert_eq!(basic.len(), pruned.len(), "k={k}");
            for (x, y) in basic.iter().zip(pruned.iter()) {
                assert_eq!((x.left, x.right), (y.left, y.right), "k={k}");
                assert!((x.score - y.score).abs() < 1e-12);
            }

            let ppr = PersonalizedPageRank::new(0.85, 10).unwrap();
            let basic = measure_two_way_top_k(&g, &ppr, &b, &c, k);
            let pruned = measure_two_way_top_k_pruned(&g, &ppr, &b, &c, k);
            assert_eq!(basic, pruned, "PPR disagreement at k={k}");
        }
    }

    #[test]
    fn self_pairs_are_never_reported() {
        let g = two_communities();
        let overlap_a = NodeSet::new("P", [NodeId(0), NodeId(1), NodeId(2)]);
        let overlap_b = NodeSet::new("Q", [NodeId(1), NodeId(2), NodeId(3)]);
        let m = PersonalizedPageRank::new(0.8, 6).unwrap();
        let pairs = measure_two_way_top_k(&g, &m, &overlap_a, &overlap_b, 100);
        assert!(pairs.iter().all(|p| p.left != p.right));
        // 3·3 ordered pairs minus the 2 self pairs
        assert_eq!(pairs.len(), 7);
    }

    #[test]
    fn oversized_k_returns_every_pair() {
        let g = two_communities();
        let (a, _, c) = sets();
        let m = DhtMeasure::paper_default();
        let pairs = measure_two_way_top_k(&g, &m, &a, &c, 10_000);
        assert_eq!(pairs.len(), a.len() * c.len());
        // sorted descending
        for w in pairs.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-15);
        }
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let g = two_communities();
        let (a, b, _) = sets();
        let m = DhtMeasure::paper_default();
        assert!(measure_two_way_top_k(&g, &m, &a, &b, 0).is_empty());
        assert!(measure_two_way_top_k_pruned(&g, &m, &a, &b, 0).is_empty());
        let empty = NodeSet::empty("none");
        assert!(measure_two_way_top_k(&g, &m, &empty, &b, 5).is_empty());
        assert!(measure_two_way_top_k_pruned(&g, &m, &a, &empty, 5).is_empty());
    }

    #[test]
    fn nway_join_matches_brute_force_enumeration() {
        let g = two_communities();
        let (a, b, c) = sets();
        let m = PersonalizedPageRank::new(0.8, 8).unwrap();
        let query = QueryGraph::chain(3);
        let k = 5;
        let result = measure_nway_top_k(
            &g,
            &m,
            &query,
            &[a.clone(), b.clone(), c.clone()],
            Aggregate::Sum,
            k,
        )
        .unwrap();

        // Brute force over all 3-tuples.
        let mut tuples: Vec<(Vec<NodeId>, f64)> = Vec::new();
        for x in a.iter() {
            for y in b.iter() {
                for z in c.iter() {
                    if x == y || y == z || x == z {
                        continue;
                    }
                    let score = m.score(&g, x, y) + m.score(&g, y, z);
                    tuples.push((vec![x, y, z], score));
                }
            }
        }
        tuples.sort_by(|p, q| q.1.total_cmp(&p.1).then_with(|| p.0.cmp(&q.0)));
        tuples.truncate(k);

        assert_eq!(result.answers.len(), k);
        for (answer, (nodes, score)) in result.answers.iter().zip(tuples.iter()) {
            assert!(
                (answer.score - score).abs() < 1e-9,
                "score mismatch: {} vs {score}",
                answer.score
            );
            assert_eq!(&answer.nodes, nodes);
        }
        assert_eq!(result.stats.two_way_joins, 2);
        assert!(result.stats.pairs_pulled > 0);
    }

    #[test]
    fn threaded_joins_are_identical_to_serial_ones() {
        let g = two_communities();
        let (a, b, c) = sets();
        let ppr = PersonalizedPageRank::new(0.8, 8).unwrap();
        let dht = DhtMeasure::paper_default();
        let engine = WalkEngine::default();
        for threads in [2usize, 4, 0] {
            let serial = measure_two_way_top_k(&g, &ppr, &a, &b, 6);
            let parallel = measure_two_way_top_k_threaded(&g, &ppr, &a, &b, 6, engine, threads);
            assert_eq!(serial, parallel, "2-way, threads={threads}");

            let serial = measure_two_way_top_k_pruned(&g, &dht, &a, &c, 4);
            let source = MeasureSource::new(&dht, engine, threads);
            let parallel = bidj::top_k_x_over(&g, &source, &a, &c, 4, &mut QueryCtx::one_shot());
            assert_eq!(serial, parallel.pairs, "pruned, threads={threads}");

            let query = QueryGraph::chain(3);
            let sets3 = [a.clone(), b.clone(), c.clone()];
            let sum = Aggregate::Sum;
            let serial = measure_nway_top_k(&g, &ppr, &query, &sets3, sum, 5).unwrap();
            let parallel =
                measure_nway_top_k_threaded(&g, &ppr, &query, &sets3, sum, 5, engine, threads)
                    .unwrap();
            assert_eq!(serial.answers, parallel.answers, "n-way, threads={threads}");
        }
    }

    #[test]
    fn session_context_joins_are_identical_and_hit_the_cache() {
        let g = two_communities();
        let (a, b, c) = sets();
        let ppr = PersonalizedPageRank::new(0.8, 8).unwrap();
        let dht = DhtMeasure::paper_default();
        let engine = WalkEngine::default();
        let ppr_source = MeasureSource::new(&ppr, engine, 1);
        let dht_source = MeasureSource::new(&dht, engine, 1);
        let mut ctx = QueryCtx::with_byte_budget(1 << 20);
        for pass in 0..2 {
            let warm = bbj::top_k_over(&g, &ppr_source, &a, &b, 6, &mut ctx);
            let cold = measure_two_way_top_k(&g, &ppr, &a, &b, 6);
            assert_eq!(warm.pairs, cold, "pass {pass}");
            let warm = bidj::top_k_x_over(&g, &dht_source, &a, &c, 4, &mut ctx);
            let cold = measure_two_way_top_k_pruned(&g, &dht, &a, &c, 4);
            assert_eq!(warm.pairs, cold, "pass {pass}");
            let query = QueryGraph::chain(3);
            let sets3 = [a.clone(), b.clone(), c.clone()];
            let sum = Aggregate::Sum;
            let warm = ap::run_over(&g, &ppr_source, &query, &sets3, sum, 5, &mut ctx).unwrap();
            let cold = measure_nway_top_k(&g, &ppr, &query, &sets3, sum, 5).unwrap();
            assert_eq!(warm.answers, cold.answers, "pass {pass}");
        }
        let stats = ctx.column_stats();
        assert!(stats.hits > 0, "second pass must hit the cache: {stats:?}");
        // DHT and PPR columns for the same target must not alias.
        assert_ne!(ppr.column_signature(), dht.column_signature());
    }

    #[test]
    fn nway_join_rejects_malformed_inputs() {
        let g = two_communities();
        let (a, b, _) = sets();
        let m = DhtMeasure::paper_default();
        let query = QueryGraph::chain(3);
        // missing third node set
        let err = measure_nway_top_k(&g, &m, &query, &[a.clone(), b.clone()], Aggregate::Min, 3)
            .unwrap_err();
        assert!(matches!(err, MeasureError::InvalidJoin(_)));
        // disconnected query graph
        let mut disconnected = QueryGraph::new(4);
        disconnected.add_edge(0, 1).unwrap();
        disconnected.add_edge(2, 3).unwrap();
        let sets4 = vec![a.clone(), b.clone(), a.clone(), b.clone()];
        let err = measure_nway_top_k(&g, &m, &disconnected, &sets4, Aggregate::Min, 3).unwrap_err();
        assert!(matches!(err, MeasureError::InvalidJoin(_)));
    }
}
