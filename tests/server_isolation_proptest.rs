//! Overload isolation: hostile clients cannot corrupt, delay unboundedly,
//! or starve well-behaved interactive clients.
//!
//! Each case starts a rate-limited two-level-queue server and replays a
//! random query stream on well-behaved closed-loop connections while
//! **five hostile connections** (two floods, a never-reader, a mid-flight
//! disconnector and a byte-by-byte dripper — `dht_server::loadgen`'s
//! deterministic fault-injection profiles) attack the same server.  The
//! pinned contract:
//!
//! * well-behaved answers stay **bit-identical** to in-process
//!   [`Session::run`](dht_nway::engine) answers (scores travel as exact
//!   `f64` bit patterns, so string equality is bitwise parity);
//! * well-behaved connections see **zero** `ERR QUOTA` and zero
//!   `ERR DEADLINE` — quotas are per-connection and deadlines are opt-in,
//!   so someone else's flood can never spend *your* budget;
//! * every well-behaved request has a measured, bounded latency;
//! * the floods themselves **are** throttled (`ERR QUOTA` with retry-after
//!   hints) — the server refuses hostile volume rather than absorbing it;
//! * the server survives: clean shutdown, queues fully drained.

use proptest::prelude::*;

use dht_nway::core::queryline::{self, ParseOptions};
use dht_nway::engine::{Engine, EngineConfig};
use dht_nway::prelude::*;
use dht_nway::server::loadgen::{self, LoadGenConfig, LoadMode};
use dht_nway::server::{wire, Server, ServerConfig};

/// Strategy: a random directed weighted graph as an edge list over `n`
/// nodes.
fn er_graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (9usize..18).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.25f64..4.0), 1..(n * 3));
        (Just(n), edges)
    })
}

/// Strategy: descriptors for a stream of query lines — `(algorithm index,
/// set-pair index, k)`, every 5th line n-way, every 4th `auto`.
fn stream_strategy() -> impl Strategy<Value = Vec<(u32, u32, usize)>> {
    proptest::collection::vec((0u32..5, 0u32..3, 1usize..5), 3..8)
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

/// Three overlapping node sets named A / B / C.
fn overlapping_sets(n: usize) -> Vec<NodeSet> {
    let n = n as u32;
    let third = (n / 3).max(1);
    vec![
        NodeSet::new("A", (0..2 * third).map(NodeId)),
        NodeSet::new("B", (third..n).map(NodeId)),
        NodeSet::new("C", (0..n).step_by(2).map(NodeId)),
    ]
}

/// Renders the descriptors as query-language lines.
fn build_lines(descriptors: &[(u32, u32, usize)]) -> Vec<String> {
    const ALGORITHMS: [&str; 5] = ["f-bj", "f-idj", "b-bj", "b-idj-x", "b-idj-y"];
    descriptors
        .iter()
        .enumerate()
        .map(|(i, &(algo, pair, k))| {
            let (left, right) = match pair {
                0 => ("A", "B"),
                1 => ("B", "C"),
                _ => ("C", "A"),
            };
            if i % 5 == 4 {
                format!("nway chain {left} {right} {k} ap min")
            } else if i % 4 == 3 {
                format!("{left} {right} {k} auto")
            } else {
                format!("{left} {right} {k} {}", ALGORITHMS[algo as usize])
            }
        })
        .collect()
}

/// In-process reference: the same lines answered on one warm session,
/// encoded exactly as the server encodes them.
fn expected_responses(engine: &Engine, sets: &[NodeSet], lines: &[String]) -> Vec<String> {
    let options = ParseOptions::default();
    let mut session = engine.session();
    lines
        .iter()
        .enumerate()
        .map(|(index, line)| {
            let parsed = queryline::parse_query_line(line, sets, &options, index + 1)
                .expect("generated lines are well-formed")
                .expect("no blank lines generated");
            let output = session
                .run(&parsed.spec)
                .expect("generated queries are valid");
            format!("OK {}", wire::encode_output(&output))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Five hostile clients (two of them floods) against a rate-limited
    /// two-level-queue server: well-behaved clients keep bit-exact
    /// answers, zero quota/deadline errors, and bounded latencies, while
    /// the floods are measurably throttled and the server drains cleanly.
    #[test]
    fn hostile_clients_cannot_perturb_well_behaved_answers(
        (n, edges) in er_graph_strategy(),
        descriptors in stream_strategy(),
    ) {
        let graph = build_graph(n, &edges);
        let sets = overlapping_sets(n);
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let lines = build_lines(&descriptors);

        let config = EngineConfig::paper_default();
        let reference = Engine::with_config(graph.clone(), config);
        let expected = expected_responses(&reference, &sets, &lines);

        // Rate 100/s with burst 32 per connection: well-behaved
        // closed-loop connections (at most 7 lines × 2 repeats = 14
        // requests each) never exhaust their own bucket, while a flood's
        // 64-line pipelined chunks deterministically do.  The batch queue
        // is kept small so hostile volume also trips `ERR BUSY` without
        // ever consuming interactive admission capacity.
        let server = Server::start(
            Engine::with_config(graph.clone(), config),
            sets.clone(),
            ParseOptions::default(),
            ServerConfig::default()
                .with_workers(2)
                .with_rate(100)
                .with_burst(32)
                .with_batch_queue_capacity(16),
        )
        .expect("bind loopback");
        let report = loadgen::run(
            server.local_addr(),
            &lines,
            &LoadGenConfig {
                connections: 2,
                repeat: 2,
                mode: LoadMode::Closed,
                hostile: 5, // flood, never-read, disconnect, drip, flood
                ..LoadGenConfig::default()
            },
        )
        .expect("well-behaved replay survives the hostile mix");
        let stats = server.shutdown();

        // Isolation: nobody else's traffic spent the well-behaved
        // connections' quota or deadline budget.
        prop_assert_eq!(report.quota_rejections, 0,
            "well-behaved connections must never see ERR QUOTA");
        prop_assert_eq!(report.deadline_misses, 0,
            "well-behaved connections must never see ERR DEADLINE");

        // Parity: bit-identical answers despite the ongoing attack.
        prop_assert_eq!(report.responses.len(), 2);
        for (connection, finals) in report.responses.iter().enumerate() {
            prop_assert_eq!(finals.len(), 2 * lines.len());
            for (index, response) in finals.iter().enumerate() {
                prop_assert_eq!(
                    response,
                    &expected[index % expected.len()],
                    "hostile traffic perturbed connection {} request {}",
                    connection, index
                );
            }
        }

        // Every well-behaved request was measured; liveness is the
        // loadgen run's own wall-clock guards (a stall fails the run
        // above), not a latency threshold chosen for a quiet host.
        prop_assert_eq!(report.latencies_ms.len(), report.answered);
        let mut sorted = report.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let p99 = sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)];
        prop_assert!(p99.is_finite(),
            "well-behaved p99 is not a number under hostile load: {}", p99);

        // Throttling: the floods (≥ 2 connections × ≥ 4 chunks of 64
        // lines against burst 32) were refused with typed quota lines.
        prop_assert_eq!(report.hostile.connections, 5);
        prop_assert!(report.hostile.quota_rejections > 0,
            "floods must trip the per-connection rate limit: {:?}",
            report.hostile);
        prop_assert!(stats.quota_rejected >= report.hostile.quota_rejections,
            "server-side quota count covers every hostile rejection");

        // Survival: clean shutdown with both queue classes drained.
        prop_assert_eq!(stats.queue_depth, 0, "drained on shutdown");
    }
}
