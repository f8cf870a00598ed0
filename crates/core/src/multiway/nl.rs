//! NL: the Nested Loop n-way join (Section III-B).
//!
//! Enumerates every candidate answer in `R_1 × R_2 × … × R_n` and scores it
//! by computing a fresh forward DHT value for every query edge — exactly the
//! baseline the paper describes, with cost `Π|R_i|` candidate tuples times
//! `|E_Q|` DHT evaluations each.  An optional memoisation mode caches the
//! per-pair DHT scores, which does not change the answers but makes NL
//! usable as a correctness oracle on slightly larger instances.

use std::collections::HashMap;

use dht_graph::{Graph, NodeId, NodeSet};
use dht_rankjoin::TopKBuffer;
use dht_walks::{forward, QueryCtx};

use crate::answer::{sort_answers, Answer};
use crate::query::QueryGraph;
use crate::stats::NWayStats;
use crate::Result;

use super::{NWayConfig, NWayOutput};

/// Runs NL.  With `memoize = true`, per-pair DHT scores are cached across
/// candidate tuples (same answers, fewer walks).  The enumeration's forward
/// walks run on a scratch from the context's pool; the per-pair memo stays
/// local to the call.
pub fn run(
    graph: &Graph,
    config: &NWayConfig,
    query: &QueryGraph,
    node_sets: &[NodeSet],
    memoize: bool,
    ctx: &mut QueryCtx,
) -> Result<NWayOutput> {
    query.validate_node_sets(node_sets)?;
    let mut stats = NWayStats::default();
    let mut output: TopKBuffer<Vec<NodeId>> = TopKBuffer::new(config.k);
    let mut cache: HashMap<(u32, u32), f64> = HashMap::new();
    // One pooled scratch serves every forward walk of the enumeration.
    let mut scratch = ctx.pool.acquire();

    let n = node_sets.len();
    let mut assignment: Vec<NodeId> = vec![NodeId(0); n];
    let mut edge_scores: Vec<f64> = vec![0.0; query.edge_count()];

    // Iterative odometer over the cross product to avoid recursion depth
    // concerns for large n.
    let sizes: Vec<usize> = node_sets.iter().map(NodeSet::len).collect();
    let mut counters = vec![0usize; n];
    'outer: loop {
        for (i, &c) in counters.iter().enumerate() {
            assignment[i] = node_sets[i].members()[c];
        }
        // Skip degenerate tuples that repeat a node (a node cannot be paired
        // with itself on a query edge).
        let degenerate = query
            .edges()
            .iter()
            .any(|&(a, b)| assignment[a] == assignment[b]);
        if !degenerate {
            stats.tuples_enumerated += 1;
            for (e, &(a, b)) in query.edges().iter().enumerate() {
                let (u, v) = (assignment[a], assignment[b]);
                let score = if memoize {
                    match cache.get(&(u.0, v.0)) {
                        Some(&s) => s,
                        None => {
                            let s = forward::forward_dht_with(
                                graph,
                                &config.params,
                                u,
                                v,
                                config.d,
                                config.engine,
                                &mut scratch,
                            );
                            stats.two_way.walk_invocations += 1;
                            stats.two_way.walk_steps += config.d as u64;
                            cache.insert((u.0, v.0), s);
                            s
                        }
                    }
                } else {
                    stats.two_way.walk_invocations += 1;
                    stats.two_way.walk_steps += config.d as u64;
                    forward::forward_dht_with(
                        graph,
                        &config.params,
                        u,
                        v,
                        config.d,
                        config.engine,
                        &mut scratch,
                    )
                };
                stats.two_way.pairs_scored += 1;
                edge_scores[e] = score;
            }
            let score = config.aggregate.combine(&edge_scores);
            output.insert(score, assignment.clone());
        }
        // advance the odometer
        let mut pos = n;
        loop {
            if pos == 0 {
                break 'outer;
            }
            pos -= 1;
            counters[pos] += 1;
            if counters[pos] < sizes[pos] {
                break;
            }
            counters[pos] = 0;
        }
    }

    let mut answers: Vec<Answer> = output
        .into_sorted_desc()
        .into_iter()
        .map(|(score, nodes)| Answer::new(nodes, score))
        .collect();
    sort_answers(&mut answers);
    Ok(NWayOutput { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use dht_graph::generators::erdos_renyi;
    use dht_walks::exact::all_pairs_dht;

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
    fn matches_a_direct_matrix_computation_on_a_chain() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(3);
        let config = NWayConfig::paper_default().with_k(5);
        let out = run(&g, &config, &query, &sets, false, &mut ctx).unwrap();

        // brute force with the all-pairs oracle
        let oracle = all_pairs_dht(&g, &config.params, config.d);
        let mut expected: Vec<(Vec<u32>, f64)> = Vec::new();
        for &a in sets[0].members() {
            for &b in sets[1].members() {
                for &c in sets[2].members() {
                    if a == b || b == c || a == c {
                        // only pairs on query edges matter, but keep it simple:
                        // the fixture sets are disjoint anyway
                    }
                    let s1 = oracle[a.index()][b.index()];
                    let s2 = oracle[b.index()][c.index()];
                    let score = config.aggregate.combine(&[s1, s2]);
                    expected.push((vec![a.0, b.0, c.0], score));
                }
            }
        }
        expected.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
        expected.truncate(5);
        assert_eq!(out.answers.len(), 5);
        for (got, (nodes, score)) in out.answers.iter().zip(expected.iter()) {
            assert!((got.score - score).abs() < 1e-10);
            let got_nodes: Vec<u32> = got.nodes.iter().map(|n| n.0).collect();
            assert_eq!(&got_nodes, nodes);
        }
    }

    #[test]
    fn memoized_and_plain_runs_agree() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::triangle();
        let config = NWayConfig::paper_default()
            .with_k(4)
            .with_aggregate(Aggregate::Sum);
        let plain = run(&g, &config, &query, &sets, false, &mut ctx).unwrap();
        let memo = run(&g, &config, &query, &sets, true, &mut ctx).unwrap();
        assert_eq!(plain.answers.len(), memo.answers.len());
        for (a, b) in plain.answers.iter().zip(memo.answers.iter()) {
            assert_eq!(a.nodes, b.nodes);
            assert!((a.score - b.score).abs() < 1e-12);
        }
        assert!(memo.stats.two_way.walk_invocations < plain.stats.two_way.walk_invocations);
    }

    #[test]
    fn two_way_case_reduces_to_a_pair_ranking() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(2);
        let config = NWayConfig::paper_default().with_k(3);
        let out = run(&g, &config, &query, &sets[..2], false, &mut ctx).unwrap();
        assert_eq!(out.answers.len(), 3);
        assert!(out.answers.iter().all(|a| a.arity() == 2));
        for w in out.answers.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
    }

    #[test]
    fn tuples_with_repeated_nodes_are_skipped() {
        let mut ctx = QueryCtx::one_shot();
        let g = erdos_renyi(10, 30, 7);
        // overlapping node sets force potential repeats
        let sets = vec![
            NodeSet::new("A", [NodeId(0), NodeId(1)]),
            NodeSet::new("B", [NodeId(1), NodeId(2)]),
        ];
        let query = QueryGraph::chain(2);
        let config = NWayConfig::paper_default().with_k(10);
        let out = run(&g, &config, &query, &sets, false, &mut ctx).unwrap();
        assert_eq!(out.stats.tuples_enumerated, 3, "(1,1) is degenerate");
        assert!(out.answers.iter().all(|a| a.nodes[0] != a.nodes[1]));
    }

    #[test]
    fn validates_node_set_count() {
        let mut ctx = QueryCtx::one_shot();
        let (g, sets) = fixture();
        let query = QueryGraph::chain(4);
        let config = NWayConfig::paper_default();
        assert!(run(&g, &config, &query, &sets, false, &mut ctx).is_err());
    }
}
