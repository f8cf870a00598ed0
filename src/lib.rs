//! # dht-nway
//!
//! Top-k multi-way joins over Discounted Hitting Time — a Rust
//! implementation of *"Evaluating Multi-Way Joins over Discounted Hitting
//! Time"* (Zhang, Cheng, Kao — ICDE 2014).
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`graph`] — the graph substrate ([`Graph`](graph::Graph),
//!   [`GraphBuilder`](graph::GraphBuilder), [`NodeSet`](graph::NodeSet),
//!   generators, I/O);
//! * [`walks`] — DHT measures and walk engines
//!   ([`DhtParams`](walks::DhtParams), forward / backward walks, bounds);
//! * [`core`] — the join algorithms themselves
//!   ([`QueryGraph`](core::QueryGraph), [`Aggregate`](core::Aggregate), the
//!   2-way algorithms F-BJ … B-IDJ-Y and the n-way algorithms NL / AP /
//!   PJ / PJ-i);
//! * [`engine`] — the query-session engine: an [`Engine`] per graph hands
//!   out [`Session`]s whose warm backward-column caches answer repeated
//!   query streams without recomputing walks; sessions consume declarative
//!   [`core::QuerySpec`]s — `Session::run` plans `Auto` specs by live
//!   cache residency (B-BJ when every target column is cached, B-IDJ-Y
//!   otherwise, PJ-i for n-way), and `Session::explain` reifies the
//!   decision as a `QueryPlan`;
//! * [`server`] — the TCP serving layer: a hermetic `std::net` server
//!   multiplexing any number of clients onto a pool of warm engine
//!   sessions (bounded queue with `BUSY` backpressure, micro-batching,
//!   `STATS`/`EXPLAIN`/`PING` verbs) plus the matching load-generator
//!   client; wire answers are bit-identical to in-process sessions; a
//!   [`server::Server`] can host a whole registry of named graphs behind
//!   one port (`USE <graph>` / `@<graph>` namespacing);
//! * [`router`] — the sharded top-k front door: partitions backward-walk
//!   targets across several `dht-server` backends by deterministic hash
//!   and merges the per-shard scored streams into bit-exact global
//!   answers, with typed `ERR SHARD` reporting when a backend dies;
//! * [`datasets`] — synthetic analogues of the paper's datasets;
//! * [`eval`] — ROC / AUC, link- and 3-clique-prediction experiments;
//! * [`measures`] — the extension sketched in the paper's conclusion:
//!   Personalized PageRank, SimRank, PathSim and the plain truncated hitting
//!   time behind a common [`measures::ProximityMeasure`] trait, joined by the
//!   same B-BJ, B-IDJ-X and AP as DHT.
//!
//! ## Quick start
//!
//! ```
//! use dht_nway::prelude::*;
//!
//! // A small friendship graph.
//! let mut builder = GraphBuilder::with_nodes(6);
//! for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
//!     builder.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
//! }
//! let graph = builder.build().unwrap();
//!
//! // Two interest groups.
//! let soccer = NodeSet::new("soccer", [NodeId(0), NodeId(1), NodeId(2)]);
//! let basket = NodeSet::new("basketball", [NodeId(3), NodeId(4), NodeId(5)]);
//!
//! // Top-3 2-way join with the paper's best algorithm (B-IDJ-Y).  Every
//! // join takes a context last: a one-shot one holds no cache, a
//! // `Session`'s keeps columns warm across queries.
//! let config = TwoWayConfig::paper_default();
//! let ctx = &mut QueryCtx::one_shot();
//! let result = TwoWayAlgorithm::BackwardIdjY
//!     .top_k_with_ctx(&graph, &config, &soccer, &basket, 3, ctx);
//! assert_eq!(result.pairs.len(), 3);
//! assert!(result.pairs[0].score >= result.pairs[1].score);
//! ```
//!
//! ## An n-way join
//!
//! ```
//! use dht_nway::prelude::*;
//!
//! let cg = dht_nway::graph::generators::planted_partition(
//!     &PlantedPartitionConfig { communities: 3, community_size: 12, seed: 7, ..Default::default() },
//! );
//! let query = QueryGraph::triangle();
//! let config = NWayConfig::paper_default().with_k(5);
//! let ctx = &mut QueryCtx::one_shot();
//! let result = NWayAlgorithm::IncrementalPartialJoin { m: 20 }
//!     .run_with_ctx(&cg.graph, &config, &query, &cg.communities, ctx)
//!     .unwrap();
//! assert!(result.answers.len() <= 5);
//! for answer in &result.answers {
//!     assert_eq!(answer.arity(), 3);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use dht_core as core;
pub use dht_datasets as datasets;
pub use dht_engine as engine;
pub use dht_eval as eval;
pub use dht_graph as graph;
pub use dht_measures as measures;
pub use dht_par as par;
pub use dht_rankjoin as rankjoin;
pub use dht_router as router;
pub use dht_server as server;
pub use dht_walks as walks;

#[doc(inline)]
pub use dht_engine::{Engine, Session};

/// The most commonly used types, re-exported for `use dht_nway::prelude::*`.
pub mod prelude {
    pub use dht_core::multiway::{NWayAlgorithm, NWayConfig, NWayOutput};
    pub use dht_core::spec::{AlgorithmChoice, NWaySpec, QuerySpec, TwoWaySpec};
    pub use dht_core::twoway::{TwoWayAlgorithm, TwoWayConfig, TwoWayOutput};
    pub use dht_core::{Aggregate, Answer, QueryGraph};
    pub use dht_engine::{Engine, EngineConfig, EngineOutput, QueryPlan, Session};
    pub use dht_graph::generators::PlantedPartitionConfig;
    pub use dht_graph::{Graph, GraphBuilder, NodeId, NodeSet};
    pub use dht_measures::{IterativeMeasure, ProximityMeasure};
    pub use dht_walks::{DhtParams, QueryCtx};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let params = DhtParams::paper_default();
        assert_eq!(params.depth_for_epsilon(1e-6).unwrap(), 8);
        let query = QueryGraph::chain(3);
        assert_eq!(query.edge_count(), 2);
        assert_eq!(Aggregate::Min.name(), "MIN");
        assert_eq!(TwoWayAlgorithm::BackwardIdjY.name(), "B-IDJ-Y");
        assert_eq!(
            NWayAlgorithm::IncrementalPartialJoin { m: 50 }.name(),
            "PJ-i"
        );
    }
}
