//! Property-based tests for the two structures the join hot paths lean on
//! after they stopped hashing and allocating per pair:
//!
//! * [`TopKBuffer`] rejects a candidate below its cached `k`-th score before
//!   building an entry.  The retained set must still be a pure function of
//!   the candidate multiset — exactly "sort every candidate under (score
//!   desc, item asc), keep the first `k`" — with ties at the `k`-th place,
//!   `±0.0`, a `β` floor repeated more than `k` times and a NaN among the
//!   scores, in any insertion order.
//! * [`IncrementalState`] keeps PJ-i's bound structure `F` as a dense
//!   `|P|×|Q|` array.  Its top-`m` list followed by repeated `next_pair`
//!   calls must equal B-BJ's full ranking **bitwise** — pairs and score
//!   bits — on overlapping sets (`P ∩ Q ≠ ∅` leaves `p == q` cells absent)
//!   and when the top-`m` run pruned targets whose cells stay at a shallow
//!   level until a refinement reaches them.
//!
//! Every case is deterministic (the vendored proptest seeds each test from
//! its name).

use proptest::prelude::*;

use dht_nway::core::twoway::{bbj, bidj, IncrementalState, TwoWayConfig};
use dht_nway::prelude::*;
use dht_nway::rankjoin::TopKBuffer;

/// Scores a join can meet, chosen so that ties are everywhere: the `β`
/// floor of the paper's default parameters, both zeros, a repeated value,
/// and a NaN (which `total_cmp` ranks above every number).
const SCORES: [f64; 7] = [-1.25, -0.0, 0.0, 0.5, 0.5, 1.0, f64::NAN];

fn reference_top_k(candidates: &[(f64, u32)], k: usize) -> Vec<(u64, u32)> {
    let mut sorted = candidates.to_vec();
    sorted.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    sorted.truncate(k);
    sorted.into_iter().map(|(s, v)| (s.to_bits(), v)).collect()
}

/// Fisher–Yates with a fixed LCG: a deterministic shuffle per `seed`.
fn shuffled(candidates: &[(f64, u32)], seed: u64) -> Vec<(f64, u32)> {
    let mut out = candidates.to_vec();
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.swap(i, (state >> 33) as usize % (i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn top_k_buffer_equals_sort_and_truncate_in_every_insertion_order(
        k in 0usize..7,
        drawn in proptest::collection::vec((0usize..SCORES.len(), 0u32..40), 0..60),
        seed in 0u64..u64::MAX,
    ) {
        let mut candidates: Vec<(f64, u32)> =
            drawn.iter().map(|&(score, item)| (SCORES[score], item)).collect();
        // The floor more often than the buffer is deep, under distinct items.
        candidates.extend((0..k as u32 + 2).map(|item| (SCORES[0], 100 + item)));
        let expected = reference_top_k(&candidates, k);

        let mut reversed = candidates.clone();
        reversed.reverse();
        let orders = [
            candidates.clone(),
            reversed,
            shuffled(&candidates, seed),
            shuffled(&candidates, seed.rotate_left(17) ^ 0x9e37_79b9),
        ];
        for order in &orders {
            let mut buffer = TopKBuffer::new(k);
            let mut last_threshold = buffer.threshold();
            for &(score, item) in order {
                let held_before = buffer.len();
                let retained = buffer.insert(score, item);
                if score < last_threshold {
                    prop_assert!(!retained && buffer.len() == held_before);
                }
                // NaN never compares, so `>=` here is "did not fall".
                prop_assert!(
                    buffer.threshold() >= last_threshold || buffer.threshold().is_nan(),
                    "threshold fell from {} to {}", last_threshold, buffer.threshold()
                );
                last_threshold = buffer.threshold();
            }
            if k > 0 {
                let kth = buffer.kth_score().unwrap_or(f64::NEG_INFINITY);
                prop_assert_eq!(buffer.threshold().to_bits(), kth.to_bits());
            }
            let got: Vec<(u64, u32)> = buffer
                .into_sorted_desc()
                .into_iter()
                .map(|(s, v)| (s.to_bits(), v))
                .collect();
            prop_assert_eq!(&got, &expected);
        }
    }
}

/// A random directed weighted graph as an edge list over `n` nodes, and two
/// cut points `b < a` so that `P = [0, a)` and `Q = [b, n)` overlap.
fn overlapping_case() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>, usize, usize)> {
    (8usize..22).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.25f64..4.0), n..(n * 4));
        (Just(n), edges, (n / 2)..(n - 1), 1..(n / 2))
    })
}

fn build_graph(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
    let mut builder = GraphBuilder::with_nodes(n);
    for &(u, v, w) in edges {
        if u != v {
            builder
                .add_edge(NodeId(u), NodeId(v), w)
                .expect("valid endpoints");
        }
    }
    builder.build().expect("generated graph is valid")
}

/// `(left, right, score bits)` of the top-`m` list followed by every
/// `next_pair`, and how many cells the top-`m` run left below depth `d`.
fn streamed_ranking(
    graph: &Graph,
    config: &TwoWayConfig,
    p: &NodeSet,
    q: &NodeSet,
    m: usize,
) -> (Vec<(u32, u32, u64)>, usize) {
    let mut state = IncrementalState::new(config.params, config.d, p, q);
    let ctx = &mut QueryCtx::one_shot();
    let top_m = bidj::top_k_y(graph, config, p, q, m, Some(&mut state), ctx);
    let shallow = p
        .iter()
        .flat_map(|pn| q.iter().map(move |qn| (pn, qn)))
        .filter(|&(pn, qn)| state.entry(pn, qn).is_some_and(|e| e.level < config.d))
        .count();
    let mut streamed: Vec<(u32, u32, u64)> = top_m
        .pairs
        .iter()
        .map(|pr| (pr.left.0, pr.right.0, pr.score.to_bits()))
        .collect();
    while let Some(pr) = state.next_pair(graph, ctx) {
        streamed.push((pr.left.0, pr.right.0, pr.score.to_bits()));
    }
    assert_eq!(state.emitted_count(), streamed.len());
    (streamed, shallow)
}

fn full_ranking(
    graph: &Graph,
    config: &TwoWayConfig,
    p: &NodeSet,
    q: &NodeSet,
) -> Vec<(u32, u32, u64)> {
    bbj::top_k(
        graph,
        config,
        p,
        q,
        p.len() * q.len(),
        &mut QueryCtx::one_shot(),
    )
    .pairs
    .iter()
    .map(|pr| (pr.left.0, pr.right.0, pr.score.to_bits()))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_state_streams_the_full_ranking_bitwise_on_overlapping_sets(
        (n, edges, a, b) in overlapping_case(),
        m in 0usize..5,
    ) {
        let graph = build_graph(n, &edges);
        // Q in descending id order: set position and node id disagree, so a
        // tie-break by position instead of by id would show.
        let p = NodeSet::new("P", (0..a as u32).map(NodeId));
        let q = NodeSet::new("Q", (b as u32..n as u32).rev().map(NodeId));
        let config = TwoWayConfig::paper_default();
        let (streamed, _) = streamed_ranking(&graph, &config, &p, &q, m);
        let overlap = a - b;
        prop_assert_eq!(streamed.len(), p.len() * q.len() - overlap);
        prop_assert!(streamed.iter().all(|&(l, r, _)| l != r));
        prop_assert_eq!(streamed, full_ranking(&graph, &config, &p, &q));
    }
}

#[test]
fn incremental_state_refines_pruned_targets_on_demand() {
    // Two well-separated communities and a small m: the top-m run prunes
    // most targets early, so their cells wait at a shallow level.
    let cg = dht_nway::graph::generators::planted_partition(
        &dht_nway::graph::generators::PlantedPartitionConfig {
            communities: 3,
            community_size: 20,
            avg_internal_degree: 6.0,
            avg_external_degree: 1.5,
            weighted: false,
            seed: 5,
        },
    );
    let config = TwoWayConfig::paper_default();
    let p = cg.community(0).clone();
    let q = NodeSet::new("Q", cg.community(1).iter().chain(p.iter().take(5)));
    let (streamed, shallow) = streamed_ranking(&cg.graph, &config, &p, &q, 3);
    assert!(shallow > 0, "the fixture must leave pruned targets behind");
    assert_eq!(streamed, full_ranking(&cg.graph, &config, &p, &q));
}
