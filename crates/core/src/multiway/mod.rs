//! Top-k multi-way (n-way) joins over DHT (Sections III, IV and VI-D).
//!
//! Four algorithms share one contract: given a graph, a query graph over `n`
//! node sets, the DHT parameters, a monotone aggregate and `k`, return the
//! `k` candidate answers (Definition 3) with the highest aggregate scores,
//! sorted descending (Definition 4).
//!
//! * [`nl`] — **Nested Loop**: enumerate all `Π|R_i|` candidate tuples and
//!   score each edge with a fresh forward DHT computation.  The baseline the
//!   paper describes as prohibitively slow for `n ≥ 3`.
//! * [`ap`] — **All Pairs**: one *complete* 2-way join per query edge, then a
//!   Pull/Bound Rank Join over the per-edge lists.
//! * [`pj`] — **Partial Join** (Algorithm 1): a top-`m` 2-way join per edge;
//!   when the rank join exhausts a list, `getNextNodePair` re-runs a deeper
//!   top-`(m+1)` join from scratch.
//! * [`pji`] — **Incremental Partial Join**: like PJ, but `getNextNodePair`
//!   is answered from the mutable bound structure `F` recorded by the
//!   modified B-IDJ run (Section VI-D), avoiding the restart.

pub mod ap;
pub mod candidate_buffer;
pub mod nl;
pub mod pbrj;
pub mod pj;
pub mod pji;

use dht_graph::{Graph, NodeSet};
use dht_walks::{DhtParams, QueryCtx, WalkEngine};

use crate::aggregate::Aggregate;
use crate::answer::Answer;
use crate::query::QueryGraph;
use crate::stats::NWayStats;
use crate::twoway::TwoWayConfig;
use crate::Result;

/// Shared configuration of an n-way join run.
#[derive(Debug, Clone, Copy)]
pub struct NWayConfig {
    /// DHT parameters (α, β, λ).
    pub params: DhtParams,
    /// Truncation depth `d`.
    pub d: usize,
    /// Monotone aggregate `f` over per-edge DHT scores.
    pub aggregate: Aggregate,
    /// Number of answers to return.
    pub k: usize,
    /// Walk propagation engine of the inner 2-way joins.
    pub engine: WalkEngine,
    /// Worker threads: `1` serial (default), `0` all available cores.
    /// Applied to the per-edge 2-way joins (run concurrently when the query
    /// graph has several edges) and forwarded to their inner parallelism
    /// otherwise; results are identical at every thread count.
    pub threads: usize,
}

impl NWayConfig {
    /// Creates a configuration with the default engine, serial execution.
    pub fn new(params: DhtParams, d: usize, aggregate: Aggregate, k: usize) -> Self {
        NWayConfig {
            params,
            d: d.max(1),
            aggregate,
            k,
            engine: WalkEngine::default(),
            threads: 1,
        }
    }

    /// The paper's experimental defaults: `DHT_λ` with `λ = 0.2`, `d = 8`
    /// (ε = 10⁻⁶), MIN aggregate, `k = 50`.
    pub fn paper_default() -> Self {
        let params = DhtParams::paper_default();
        let d = params.depth_for_epsilon(1e-6).expect("1e-6 is valid");
        Self::new(params, d, Aggregate::Min, 50)
    }

    /// Returns a copy with a different `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Returns a copy with a different aggregate.
    pub fn with_aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// Returns a copy with a different propagation engine.
    pub fn with_engine(mut self, engine: WalkEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Returns a copy with a different worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configuration of the inner 2-way joins, inheriting the engine
    /// and thread knobs.
    pub fn two_way(&self) -> TwoWayConfig {
        TwoWayConfig::new(self.params, self.d)
            .with_engine(self.engine)
            .with_threads(self.threads)
    }
}

/// Result of an n-way join.
#[derive(Debug, Clone)]
pub struct NWayOutput {
    /// The top-k answers, sorted by descending aggregate score.
    pub answers: Vec<Answer>,
    /// Instrumentation counters.
    pub stats: NWayStats,
}

/// Selects one of the n-way join algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NWayAlgorithm {
    /// NL — nested loop enumeration.
    NestedLoop,
    /// AP — all-pairs 2-way joins plus rank join.
    AllPairs,
    /// PJ — partial join with top-`m` lists (Algorithm 1).
    PartialJoin {
        /// Initial 2-way join depth `m`.
        m: usize,
    },
    /// PJ-i — incremental partial join.
    IncrementalPartialJoin {
        /// Initial 2-way join depth `m`.
        m: usize,
    },
}

impl NWayAlgorithm {
    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            NWayAlgorithm::NestedLoop => "NL",
            NWayAlgorithm::AllPairs => "AP",
            NWayAlgorithm::PartialJoin { .. } => "PJ",
            NWayAlgorithm::IncrementalPartialJoin { .. } => "PJ-i",
        }
    }

    /// Runs the selected algorithm through a session context: the inner
    /// 2-way joins (and PJ-i's refinement walks) share the context's
    /// backward-column and Y-table caches.  The inner 2-way join is F-BJ
    /// for AP and B-IDJ-Y for PJ / PJ-i, matching Section VII-A.  Answers
    /// are bit-identical at every cache state; [`QueryCtx::one_shot`] runs
    /// it with no cache at all.
    pub fn run_with_ctx(
        self,
        graph: &Graph,
        config: &NWayConfig,
        query: &QueryGraph,
        node_sets: &[NodeSet],
        ctx: &mut QueryCtx,
    ) -> Result<NWayOutput> {
        match self {
            NWayAlgorithm::NestedLoop => nl::run(graph, config, query, node_sets, false, ctx),
            NWayAlgorithm::AllPairs => ap::run(graph, config, query, node_sets, ctx),
            NWayAlgorithm::PartialJoin { m } => pj::run(graph, config, query, node_sets, m, ctx),
            NWayAlgorithm::IncrementalPartialJoin { m } => {
                pji::run(graph, config, query, node_sets, m, ctx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_vii() {
        let cfg = NWayConfig::paper_default();
        assert_eq!(cfg.k, 50);
        assert_eq!(cfg.d, 8);
        assert_eq!(cfg.aggregate, Aggregate::Min);
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = NWayConfig::paper_default()
            .with_k(10)
            .with_aggregate(Aggregate::Sum);
        assert_eq!(cfg.k, 10);
        assert_eq!(cfg.aggregate, Aggregate::Sum);
    }

    #[test]
    fn algorithm_names_match_the_paper() {
        assert_eq!(NWayAlgorithm::NestedLoop.name(), "NL");
        assert_eq!(NWayAlgorithm::AllPairs.name(), "AP");
        assert_eq!(NWayAlgorithm::PartialJoin { m: 50 }.name(), "PJ");
        assert_eq!(
            NWayAlgorithm::IncrementalPartialJoin { m: 50 }.name(),
            "PJ-i"
        );
    }

    #[test]
    fn every_algorithm_returns_no_answers_at_k_zero() {
        let graph = dht_graph::generators::erdos_renyi(18, 60, 23);
        let sets: Vec<NodeSet> = [[0, 1, 2], [6, 7, 8], [12, 13, 14]]
            .iter()
            .map(|ids| NodeSet::new("R", ids.iter().copied().map(dht_graph::NodeId)))
            .collect();
        let config = NWayConfig::paper_default().with_k(0);
        for query in [QueryGraph::chain(3), QueryGraph::triangle()] {
            for algorithm in [
                NWayAlgorithm::NestedLoop,
                NWayAlgorithm::AllPairs,
                NWayAlgorithm::PartialJoin { m: 4 },
                NWayAlgorithm::IncrementalPartialJoin { m: 4 },
            ] {
                let mut ctx = QueryCtx::one_shot();
                let out = algorithm.run_with_ctx(&graph, &config, &query, &sets, &mut ctx);
                let answers = out.unwrap().answers;
                assert!(answers.is_empty(), "{}: {answers:?}", algorithm.name());
            }
        }
    }
}
