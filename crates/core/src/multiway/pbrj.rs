//! The Pull/Bound Rank Join driver shared by AP, PJ and PJ-i
//! (Steps 5–15 of Algorithm 1).
//!
//! The three algorithms differ only in *where* the per-edge sorted pair
//! lists come from: AP pre-computes complete lists, PJ starts with top-`m`
//! lists and re-runs deeper joins on demand, PJ-i starts with top-`m` lists
//! and extends them from its incremental bound structure.  That difference
//! is captured by the [`EdgeListProvider`] trait; everything else — the
//! round-robin pulling, the candidate buffers, the candidate expansion
//! (`getCandidate`) and the HRJN corner-bound stopping rule — is identical
//! and implemented once here.
//!
//! A pull allocates nothing but what it keeps: the partial answer, its
//! per-edge scores and the corner bound's corners live in buffers made once
//! per run, `getCandidate` walks the candidate buffers' slices in place, and
//! a candidate's node list is copied out only when it can enter the output.

use std::collections::HashSet;

use dht_graph::{MixBuildHasher, NodeId, NodeSet};
use dht_rankjoin::{CornerBound, RoundRobin, TopKBuffer};

use crate::aggregate::Aggregate;
use crate::answer::{sort_answers, Answer, PairScore};
use crate::query::QueryGraph;
use crate::stats::NWayStats;
use crate::Result;

use super::candidate_buffer::CandidateBuffer;

/// Deduplication key of a candidate answer.
///
/// The rank join can generate the same n-tuple through several expansion
/// paths, so every candidate that could enter the output is checked against
/// a `seen` set.  For the paper's query graphs (`n ≤ 8` node sets) the ids
/// fit in a fixed inline array; wider queries fall back to a boxed slice.
#[derive(Debug, PartialEq, Eq, Hash)]
enum AnswerKey {
    /// `n ≤ 8` node sets: ids inline, unused slots padded with `u32::MAX`.
    /// The length is part of the key, so padding cannot collide with a
    /// shorter genuine answer.
    Packed { len: u8, ids: [u32; 8] },
    /// Arbitrary arity fallback (allocates).
    Wide(Box<[u32]>),
}

impl AnswerKey {
    fn new(nodes: &[NodeId]) -> Self {
        if nodes.len() <= 8 {
            let mut ids = [u32::MAX; 8];
            for (slot, node) in ids.iter_mut().zip(nodes.iter()) {
                *slot = node.0;
            }
            AnswerKey::Packed {
                len: nodes.len() as u8,
                ids,
            }
        } else {
            AnswerKey::Wide(nodes.iter().map(|n| n.0).collect())
        }
    }
}

/// Source of the per-edge descending pair lists consumed by the rank join.
pub trait EdgeListProvider {
    /// Returns the pair at position `index` (0-based) of edge `edge`'s
    /// descending list, or `None` if the list has fewer than `index + 1`
    /// pairs and cannot be extended.
    ///
    /// The driver always asks for positions in order (`0, 1, 2, …` per
    /// edge), so providers may extend lazily.
    fn get(&mut self, edge: usize, index: usize, stats: &mut NWayStats) -> Option<PairScore>;

    /// The score of a pair with no connecting path (`β`); used to tighten
    /// the corner bound once a list is exhausted.
    fn floor(&self) -> f64;
}

/// Runs the rank join and returns the top-k answers (descending score).
pub fn run(
    query: &QueryGraph,
    node_sets: &[NodeSet],
    aggregate: Aggregate,
    k: usize,
    provider: &mut dyn EdgeListProvider,
    stats: &mut NWayStats,
) -> Result<Vec<Answer>> {
    query.validate_node_sets(node_sets)?;
    if !query.is_connected() {
        return Err(crate::CoreError::DisconnectedQueryGraph);
    }
    if k == 0 {
        // Nothing to return, and an empty output buffer is already full.
        return Ok(Vec::new());
    }

    let edge_count = query.edge_count();
    let mut buffers: Vec<CandidateBuffer> = vec![CandidateBuffer::new(); edge_count];
    let mut positions = vec![0usize; edge_count];
    let mut exhausted = vec![false; edge_count];
    let mut corner = CornerBound::new(edge_count);
    let mut rr = RoundRobin::new(edge_count);
    // Pre-compute the edge expansion order from every possible start edge.
    let expansion_orders: Vec<Vec<usize>> = (0..edge_count)
        .map(|e| query.edges_in_expansion_order(e))
        .collect();
    // The partial answer `getCandidate` extends and what it produced so far:
    // allocated once, reused by every pull.
    let mut partial = Partial {
        nodes: vec![NodeId(0); query.node_set_count()],
        assigned: vec![false; query.node_set_count()],
        edge_scores: vec![0.0; edge_count],
        output: TopKBuffer::new(k),
        seen: HashSet::default(),
        generated: 0,
    };

    loop {
        // Stopping rule (Step 6): stop once k answers are held and the worst
        // of them already reaches the corner-bound threshold.
        if partial.output.is_full() {
            let tau = corner.threshold(|scores| aggregate.combine(scores));
            let worst = partial.output.min_score();
            if worst.expect("full buffer has a minimum") >= tau {
                break;
            }
        }
        // Pick the next non-exhausted list round-robin (Step 7).
        let Some(edge) = rr.next_active(|e| !exhausted[e]) else {
            break; // every list exhausted
        };
        let index = positions[edge];
        match provider.get(edge, index, stats) {
            None => {
                exhausted[edge] = true;
                corner.exhaust(edge, provider.floor());
            }
            Some(pair) => {
                positions[edge] += 1;
                stats.pairs_pulled += 1;
                corner.observe(edge, pair.score);
                buffers[edge].insert(pair.left, pair.right, pair.score);
                // getCandidate (Step 12): build every complete answer that
                // uses the newly pulled pair.
                let (a, b) = query.edges()[edge];
                partial.assign(a, pair.left);
                partial.assign(b, pair.right);
                partial.edge_scores[edge] = pair.score;
                let expansion = Expansion {
                    query,
                    order: &expansion_orders[edge],
                    buffers: &buffers,
                    aggregate,
                };
                expansion.extend(1, &mut partial);
                partial.assigned[a] = false;
                partial.assigned[b] = false;
            }
        }
    }
    stats.candidates_generated += partial.generated;

    let mut answers: Vec<Answer> = partial
        .output
        .into_sorted_desc()
        .into_iter()
        .map(|(score, nodes)| Answer::new(nodes, score))
        .collect();
    sort_answers(&mut answers);
    Ok(answers)
}

/// What one `getCandidate` call reads and never changes.
struct Expansion<'a> {
    query: &'a QueryGraph,
    /// Every edge, the newly pulled one first (position 0).
    order: &'a [usize],
    buffers: &'a [CandidateBuffer],
    aggregate: Aggregate,
}

/// The partial answer under construction and the rank join's output.
struct Partial {
    /// The node chosen for each node set; meaningful where `assigned`.
    nodes: Vec<NodeId>,
    assigned: Vec<bool>,
    /// The score of each query edge already placed.
    edge_scores: Vec<f64>,
    output: TopKBuffer<Vec<NodeId>>,
    seen: HashSet<AnswerKey, MixBuildHasher>,
    /// Complete candidates produced (`NWayStats::candidates_generated`).
    generated: u64,
}

impl Partial {
    fn assign(&mut self, set: usize, node: NodeId) {
        self.nodes[set] = node;
        self.assigned[set] = true;
    }

    /// A complete candidate: counted always, offered to the output only if
    /// it was not seen before.
    ///
    /// A candidate scoring below the output's `k`-th score is dropped
    /// before its key is hashed or its node list copied out.  Dropping it
    /// unseen is sound: a tuple's score is a function of the tuple (each
    /// pair is pulled once, with one score) and the `k`-th score never
    /// falls, so a later copy of the same tuple is dropped the same way.
    fn complete(&mut self, score: f64) {
        self.generated += 1;
        if score < self.output.threshold() {
            return;
        }
        if self.seen.insert(AnswerKey::new(&self.nodes)) {
            self.output.insert(score, self.nodes.clone());
        }
    }
}

impl Expansion<'_> {
    /// `getCandidate`: extends `partial` — which holds the newly pulled pair
    /// — through the edges at `order[pos..]` into every complete candidate
    /// answer the candidate buffers support.
    fn extend(&self, pos: usize, partial: &mut Partial) {
        if pos == self.order.len() {
            // All node sets must be assigned (true for connected query graphs).
            if partial.assigned.iter().all(|&set| set) {
                partial.complete(self.aggregate.combine(&partial.edge_scores));
            }
            return;
        }
        let edge = self.order[pos];
        let (a, b) = self.query.edges()[edge];
        let buffer = &self.buffers[edge];
        match (partial.assigned[a], partial.assigned[b]) {
            (true, true) => {
                if let Some(score) = buffer.score_of(partial.nodes[a], partial.nodes[b]) {
                    partial.edge_scores[edge] = score;
                    self.extend(pos + 1, partial);
                }
            }
            (true, false) => {
                for &(nb, score) in buffer.with_left(partial.nodes[a]) {
                    partial.assign(b, NodeId(nb));
                    partial.edge_scores[edge] = score;
                    self.extend(pos + 1, partial);
                }
                partial.assigned[b] = false;
            }
            (false, true) => {
                for &(na, score) in buffer.with_right(partial.nodes[b]) {
                    partial.assign(a, NodeId(na));
                    partial.edge_scores[edge] = score;
                    self.extend(pos + 1, partial);
                }
                partial.assigned[a] = false;
            }
            (false, false) => {
                // Only reachable for disconnected query graphs, which the driver
                // rejects; handled defensively by enumerating the whole buffer.
                for (na, nb, score) in buffer.iter_all() {
                    partial.assign(a, na);
                    partial.assign(b, nb);
                    partial.edge_scores[edge] = score;
                    self.extend(pos + 1, partial);
                }
                partial.assigned[a] = false;
                partial.assigned[b] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::PairScore;

    /// A provider backed by fixed in-memory lists.
    struct StaticProvider {
        lists: Vec<Vec<PairScore>>,
        floor: f64,
    }

    impl EdgeListProvider for StaticProvider {
        fn get(&mut self, edge: usize, index: usize, _stats: &mut NWayStats) -> Option<PairScore> {
            self.lists[edge].get(index).copied()
        }
        fn floor(&self) -> f64 {
            self.floor
        }
    }

    fn pair(l: u32, r: u32, s: f64) -> PairScore {
        PairScore::new(NodeId(l), NodeId(r), s)
    }

    /// Brute-force reference: join the full lists on shared node sets.
    fn brute_force_chain(
        lists: &[Vec<PairScore>; 2],
        aggregate: Aggregate,
        k: usize,
    ) -> Vec<(Vec<u32>, f64)> {
        let mut answers = Vec::new();
        for p1 in &lists[0] {
            for p2 in &lists[1] {
                if p1.right == p2.left {
                    let score = aggregate.combine(&[p1.score, p2.score]);
                    answers.push((vec![p1.left.0, p1.right.0, p2.right.0], score));
                }
            }
        }
        answers.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        answers.truncate(k);
        answers
    }

    #[test]
    fn chain_rank_join_matches_brute_force() {
        // Query graph A -> B -> C over node sets {1,2}, {10,11}, {20,21}.
        let query = QueryGraph::chain(3);
        let sets = vec![
            NodeSet::new("A", [NodeId(1), NodeId(2)]),
            NodeSet::new("B", [NodeId(10), NodeId(11)]),
            NodeSet::new("C", [NodeId(20), NodeId(21)]),
        ];
        let list0 = vec![
            pair(1, 10, 0.9),
            pair(2, 10, 0.7),
            pair(1, 11, 0.5),
            pair(2, 11, 0.2),
        ];
        let list1 = vec![
            pair(10, 20, 0.8),
            pair(11, 21, 0.6),
            pair(10, 21, 0.3),
            pair(11, 20, 0.1),
        ];
        for aggregate in [Aggregate::Sum, Aggregate::Min] {
            for k in [1usize, 2, 3, 10] {
                let mut provider = StaticProvider {
                    lists: vec![list0.clone(), list1.clone()],
                    floor: -10.0,
                };
                let mut stats = NWayStats::default();
                let answers = run(&query, &sets, aggregate, k, &mut provider, &mut stats).unwrap();
                let expected = brute_force_chain(&[list0.clone(), list1.clone()], aggregate, k);
                assert_eq!(answers.len(), expected.len(), "agg={aggregate:?} k={k}");
                for (a, (nodes, score)) in answers.iter().zip(expected.iter()) {
                    assert!((a.score - score).abs() < 1e-12);
                    let got: Vec<u32> = a.nodes.iter().map(|n| n.0).collect();
                    assert_eq!(&got, nodes, "agg={aggregate:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn early_termination_does_not_pull_everything() {
        // With SUM, the top answer combines the heads of both lists, so the
        // join should stop long before exhausting the long tails.
        let query = QueryGraph::chain(3);
        let sets = vec![
            NodeSet::new("A", (0..50).map(NodeId)),
            NodeSet::new("B", (100..150).map(NodeId)),
            NodeSet::new("C", (200..250).map(NodeId)),
        ];
        let mut list0 = vec![pair(0, 100, 10.0)];
        let mut list1 = vec![pair(100, 200, 10.0)];
        for i in 1..50u32 {
            list0.push(pair(i, 100 + i, 1.0 - i as f64 * 0.01));
            list1.push(pair(100 + i, 200 + i, 1.0 - i as f64 * 0.01));
        }
        let total = list0.len() + list1.len();
        let mut provider = StaticProvider {
            lists: vec![list0, list1],
            floor: -10.0,
        };
        let mut stats = NWayStats::default();
        let answers = run(&query, &sets, Aggregate::Sum, 1, &mut provider, &mut stats).unwrap();
        assert_eq!(answers.len(), 1);
        assert!((answers[0].score - 20.0).abs() < 1e-12);
        assert!(
            (stats.pairs_pulled as usize) < total,
            "rank join pulled {} of {total} pairs",
            stats.pairs_pulled
        );
    }

    #[test]
    fn triangle_query_requires_consistent_assignments() {
        // Triangle over sets {1},{2},{3} with directed edges both ways; only
        // consistent pairs should form an answer.
        let query = QueryGraph::triangle();
        let sets = vec![
            NodeSet::new("A", [NodeId(1)]),
            NodeSet::new("B", [NodeId(2)]),
            NodeSet::new("C", [NodeId(3)]),
        ];
        // edges: (0,1), (1,0), (1,2), (2,1), (0,2), (2,0)
        let lists = vec![
            vec![pair(1, 2, 0.5)],
            vec![pair(2, 1, 0.4)],
            vec![pair(2, 3, 0.3)],
            vec![pair(3, 2, 0.2)],
            vec![pair(1, 3, 0.6)],
            vec![pair(3, 1, 0.1)],
        ];
        let mut provider = StaticProvider {
            lists,
            floor: -10.0,
        };
        let mut stats = NWayStats::default();
        let answers = run(&query, &sets, Aggregate::Min, 5, &mut provider, &mut stats).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].nodes, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!((answers[0].score - 0.1).abs() < 1e-12);
    }

    #[test]
    fn missing_counterpart_yields_no_answer() {
        let query = QueryGraph::chain(3);
        let sets = vec![
            NodeSet::new("A", [NodeId(1)]),
            NodeSet::new("B", [NodeId(10), NodeId(11)]),
            NodeSet::new("C", [NodeId(20)]),
        ];
        // list0 pairs 1-10, but list1 only has 11-20: no consistent answer.
        let lists = vec![vec![pair(1, 10, 0.9)], vec![pair(11, 20, 0.8)]];
        let mut provider = StaticProvider {
            lists,
            floor: -10.0,
        };
        let mut stats = NWayStats::default();
        let answers = run(&query, &sets, Aggregate::Sum, 3, &mut provider, &mut stats).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn answer_keys_distinguish_tuples_without_allocating_for_small_n() {
        let a = AnswerKey::new(&[NodeId(1), NodeId(2), NodeId(3)]);
        let b = AnswerKey::new(&[NodeId(1), NodeId(2), NodeId(3)]);
        let c = AnswerKey::new(&[NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(matches!(a, AnswerKey::Packed { len: 3, .. }));
        // Padding is part of the length-tagged key: a genuine u32::MAX id in
        // a longer tuple cannot collide with a shorter tuple's padding.
        let padded_lookalike = AnswerKey::new(&[NodeId(1), NodeId(2), NodeId(3), NodeId(u32::MAX)]);
        assert_ne!(a, padded_lookalike);
        // Wider-than-8 queries fall back to the allocating key.
        let wide_nodes: Vec<NodeId> = (0..9).map(NodeId).collect();
        assert!(matches!(AnswerKey::new(&wide_nodes), AnswerKey::Wide(_)));
        assert_eq!(AnswerKey::new(&wide_nodes), AnswerKey::new(&wide_nodes));
    }

    #[test]
    fn disconnected_query_graph_is_rejected() {
        let mut query = QueryGraph::new(4);
        query.add_edge(0, 1).unwrap();
        query.add_edge(2, 3).unwrap();
        let sets = vec![
            NodeSet::new("A", [NodeId(1)]),
            NodeSet::new("B", [NodeId(2)]),
            NodeSet::new("C", [NodeId(3)]),
            NodeSet::new("D", [NodeId(4)]),
        ];
        let mut provider = StaticProvider {
            lists: vec![vec![], vec![]],
            floor: 0.0,
        };
        let mut stats = NWayStats::default();
        let err = run(&query, &sets, Aggregate::Sum, 1, &mut provider, &mut stats).unwrap_err();
        assert_eq!(err, crate::CoreError::DisconnectedQueryGraph);
    }

    /// One line per (shape, aggregate, algorithm); see the test below.
    const PINNED: &str = "\
chain SUM pj: pulled 65 candidates 124 next_pair 61 | [0, 11, 17]=-2.401771612564585 [4, 11, 17]=-2.4064244797165877 [6, 11, 17]=-2.4065577680601846\n\
chain SUM pj-i: pulled 65 candidates 124 next_pair 61 | [0, 11, 17]=-2.401771612564585 [4, 11, 17]=-2.4064244797165877 [6, 11, 17]=-2.4065577680601846\n\
chain MIN pj: pulled 15 candidates 5 next_pair 11 | [0, 14, 16]=-1.2313872886183723 [0, 14, 20]=-1.2313872886183723 [0, 12, 17]=-1.2327459961468838\n\
chain MIN pj-i: pulled 15 candidates 5 next_pair 11 | [0, 14, 16]=-1.2313872886183723 [0, 14, 20]=-1.2313872886183723 [0, 12, 17]=-1.2327459961468838\n\
star SUM pj: pulled 45 candidates 78 next_pair 41 | [3, 9, 22]=-2.3835706192851553 [7, 9, 22]=-2.3851793873357687 [3, 15, 22]=-2.385220286975253\n\
star SUM pj-i: pulled 45 candidates 78 next_pair 41 | [3, 9, 22]=-2.3835706192851553 [7, 9, 22]=-2.3851793873357687 [3, 15, 22]=-2.385220286975253\n\
star MIN pj: pulled 10 candidates 5 next_pair 6 | [7, 9, 22]=-1.2195801041831216 [0, 14, 17]=-1.2239126080627258 [4, 12, 21]=-1.2261550769115643\n\
star MIN pj-i: pulled 10 candidates 5 next_pair 6 | [7, 9, 22]=-1.2195801041831216 [0, 14, 17]=-1.2239126080627258 [4, 12, 21]=-1.2261550769115643\n\
triangle SUM pj: pulled 384 candidates 512 next_pair 378 | [0, 11, 17]=-7.1525981811358115 [3, 15, 22]=-7.20031055623989 [0, 12, 17]=-7.262263011223534\n\
triangle SUM pj-i: pulled 384 candidates 512 next_pair 378 | [0, 11, 17]=-7.1525981811358115 [3, 15, 22]=-7.20031055623989 [0, 12, 17]=-7.262263011223534\n\
triangle MIN pj: pulled 78 candidates 5 next_pair 66 | [0, 12, 17]=-1.2333752038332666 [0, 11, 17]=-1.2441727362554318 [7, 10, 22]=-1.2460251444685628\n\
triangle MIN pj-i: pulled 78 candidates 5 next_pair 66 | [0, 12, 17]=-1.2333752038332666 [0, 11, 17]=-1.2441727362554318 [7, 10, 22]=-1.2460251444685628\n\
";

    /// Answers and rank-join counters of PJ and PJ-i on a fixed fixture,
    /// recorded before the driver stopped allocating per pull: a change to
    /// the driver's bookkeeping may move time, never one of these values.
    #[test]
    fn answers_and_counters_are_pinned_on_a_fixed_fixture() {
        use crate::multiway::{pj, pji, NWayConfig};
        use dht_graph::generators::{planted_partition, PlantedPartitionConfig};
        use dht_walks::QueryCtx;

        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 3,
            community_size: 8,
            avg_internal_degree: 4.0,
            avg_external_degree: 2.0,
            weighted: true,
            seed: 2014,
        });
        let mut observed = String::new();
        for (shape, query) in [
            ("chain", QueryGraph::chain(3)),
            ("star", QueryGraph::star(3)),
            ("triangle", QueryGraph::triangle()),
        ] {
            for aggregate in [Aggregate::Sum, Aggregate::Min] {
                let config = NWayConfig::paper_default()
                    .with_k(3)
                    .with_aggregate(aggregate);
                let sets = &cg.communities;
                let ctx = &mut QueryCtx::one_shot();
                let runs = [
                    ("pj", pj::run(&cg.graph, &config, &query, sets, 2, ctx)),
                    ("pj-i", pji::run(&cg.graph, &config, &query, sets, 2, ctx)),
                ];
                for (algorithm, out) in runs {
                    let out = out.unwrap();
                    let answers: Vec<String> = out
                        .answers
                        .iter()
                        .map(|a| {
                            let ids: Vec<u32> = a.nodes.iter().map(|n| n.0).collect();
                            format!("{ids:?}={:?}", a.score)
                        })
                        .collect();
                    observed.push_str(&format!(
                        "{shape} {} {algorithm}: pulled {} candidates {} next_pair {} | {}\n",
                        aggregate.name(),
                        out.stats.pairs_pulled,
                        out.stats.candidates_generated,
                        out.stats.next_pair_calls,
                        answers.join(" ")
                    ));
                }
            }
        }
        assert_eq!(observed, PINNED, "observed:\n{observed}");
    }
}
