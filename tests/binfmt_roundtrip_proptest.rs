//! Property-based round-trip tests for the binary `.dht` graph container:
//! for *every* graph, pack → load must reproduce the original bit-for-bit
//! (CSR arrays, transition probabilities, labels) and answer queries
//! identically, and mangled containers must fail with typed errors rather
//! than loading quietly wrong.  Loading from a slice and from a file is one
//! decoder: on any container, mangled or not, both give the same answer.

use std::mem::discriminant;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use dht_nway::graph::binfmt;
use dht_nway::graph::GraphError;
use dht_nway::prelude::*;
use dht_nway::walks::backward::backward_dht_all_sources;

/// Strategy: a small directed weighted graph described as an edge list over
/// `n` nodes, plus a label flag per node (exercising the labels blob).
fn small_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>, Vec<u32>)> {
    (3usize..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.5f64..5.0), 1..(n * 3));
        let labeled = proptest::collection::vec(0u32..2, n..n + 1);
        (Just(n), edges, labeled)
    })
}

fn build_graph(n: usize, edges: &[(u32, u32, f64)], labeled: &[u32]) -> Graph {
    let mut builder = GraphBuilder::new();
    for (i, &flag) in labeled.iter().take(n).enumerate() {
        if flag == 1 {
            builder.add_labeled_node(format!("node-{i}"));
        } else {
            builder.add_node();
        }
    }
    for &(u, v, w) in edges {
        if u != v {
            builder
                .add_edge(NodeId(u), NodeId(v), w)
                .expect("valid endpoints");
        }
    }
    builder.build().expect("generated graph is valid")
}

/// Writes `bytes` to a fresh file under the temp directory.
fn temp_container(bytes: &[u8]) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "dht-binfmt-proptest-{}-{}.dht",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("temp file written");
    path
}

/// Asserts both CSR indexes and the labels are bit-identical (plain `==`
/// on floats would accept `-0.0 == 0.0`).
fn assert_bit_identical(original: &Graph, loaded: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(original.node_count(), loaded.node_count());
    prop_assert_eq!(original.edge_count(), loaded.edge_count());
    for (a, b) in [
        (original.forward_csr(), loaded.forward_csr()),
        (original.reverse_csr(), loaded.reverse_csr()),
    ] {
        prop_assert_eq!(a.raw_offsets(), b.raw_offsets());
        prop_assert_eq!(a.raw_targets(), b.raw_targets());
        for (x, y) in a.raw_weights().iter().zip(b.raw_weights()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.raw_probs().iter().zip(b.raw_probs()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    prop_assert_eq!(original.labels(), loaded.labels());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// pack → load reproduces the graph bit-for-bit, and a two-way join
    /// plus a full backward DHT column answer identically on both copies.
    #[test]
    fn pack_load_round_trip_is_bit_identical(
        (n, edges, labeled) in small_graph_strategy()
    ) {
        let original = build_graph(n, &edges, &labeled);
        let mut bytes = Vec::new();
        binfmt::write_graph(&original, &mut bytes).expect("write succeeds");
        let loaded = binfmt::decode_graph(&bytes).expect("round trip loads");
        assert_bit_identical(&original, &loaded)?;

        // Bit-identical query answers: every backward DHT column agrees …
        let params = DhtParams::paper_default();
        for target in original.nodes() {
            let a = backward_dht_all_sources(&original, &params, target, 6);
            let b = backward_dht_all_sources(&loaded, &params, target, 6);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // … and so does a top-k two-way join through the engine.
        let half = n / 2;
        let left = NodeSet::new("L", (0..half as u32).map(NodeId));
        let right = NodeSet::new("R", (half as u32..n as u32).map(NodeId));
        let config = TwoWayConfig::paper_default();
        let ours = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(&original, &config, &left, &right, 5, &mut QueryCtx::one_shot());
        let theirs = TwoWayAlgorithm::BackwardIdjY.top_k_with_ctx(&loaded, &config, &left, &right, 5, &mut QueryCtx::one_shot());
        prop_assert_eq!(ours.pairs, theirs.pairs);
    }

    /// Truncating the container anywhere yields a typed error, never a
    /// quietly wrong graph.
    #[test]
    fn truncation_anywhere_is_a_typed_error(
        (n, edges, labeled) in small_graph_strategy(),
        cut_fraction in 0.0f64..1.0
    ) {
        let original = build_graph(n, &edges, &labeled);
        let mut bytes = Vec::new();
        binfmt::write_graph(&original, &mut bytes).expect("write succeeds");
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        let err = binfmt::decode_graph(&bytes[..cut]).expect_err("truncated container");
        prop_assert!(matches!(
            err,
            GraphError::Truncated { .. } | GraphError::Corrupt { .. }
        ), "unexpected error for cut at {cut}/{}: {err}", bytes.len());
    }

    /// Flipping any single byte of the header is detected (magic, version
    /// or checksum mismatch — all typed errors).
    #[test]
    fn header_corruption_is_detected(
        (n, edges, labeled) in small_graph_strategy(),
        byte in 0usize..40,
        flip in 1u32..256
    ) {
        let original = build_graph(n, &edges, &labeled);
        let mut bytes = Vec::new();
        binfmt::write_graph(&original, &mut bytes).expect("write succeeds");
        bytes[byte] ^= flip as u8;
        let err = binfmt::decode_graph(&bytes).expect_err("corrupt header");
        prop_assert!(matches!(
            err,
            GraphError::Corrupt { .. }
                | GraphError::VersionMismatch { .. }
                | GraphError::Truncated { .. }
        ), "unexpected error for header byte {byte}: {err}");
    }

    /// Flip one byte anywhere (header or payload) or cut the container
    /// anywhere: `decode_graph` over the bytes and `read_graph_file` over
    /// the same bytes on disk both return, and agree — the same graph bit
    /// for bit, or the same error variant.
    #[test]
    fn slice_and_file_loads_agree_on_mangled_containers(
        (n, edges, labeled) in small_graph_strategy(),
        position in 0.0f64..1.0,
        flip in 1u32..256,
        cut in 0u32..2
    ) {
        let original = build_graph(n, &edges, &labeled);
        let mut bytes = Vec::new();
        binfmt::write_graph(&original, &mut bytes).expect("write succeeds");
        let at = ((bytes.len() as f64) * position) as usize;
        if cut == 1 {
            bytes.truncate(at);
        } else {
            bytes[at] ^= flip as u8;
        }
        let path = temp_container(&bytes);
        let from_slice = binfmt::decode_graph(&bytes);
        let from_file = binfmt::read_graph_file(&path);
        std::fs::remove_file(&path).ok();
        match (&from_slice, &from_file) {
            (Ok(a), Ok(b)) => assert_bit_identical(a, b)?,
            (Err(a), Err(b)) => prop_assert_eq!(
                discriminant(a),
                discriminant(b),
                "slice: {}, file: {}",
                a,
                b
            ),
            _ => prop_assert!(
                false,
                "slice: {:?}, file: {:?}",
                from_slice.map(|_| "a graph"),
                from_file.map(|_| "a graph")
            ),
        }
    }
}

#[test]
fn wrong_version_is_a_version_mismatch() {
    let graph = build_graph(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)], &[1; 4]);
    let mut bytes = Vec::new();
    binfmt::write_graph(&graph, &mut bytes).expect("write succeeds");
    // Stamp version 99 and re-stamp the header checksum so the version
    // check (not the checksum) is what fires.
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let checksum = binfmt::header_checksum(&bytes[..32]);
    bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
    match binfmt::decode_graph(&bytes) {
        Err(GraphError::VersionMismatch { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, binfmt::VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}
