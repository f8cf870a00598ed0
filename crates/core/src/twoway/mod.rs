//! Top-k 2-way joins over DHT (Sections V and VI of the paper).
//!
//! All algorithms share the same contract: given a graph, the DHT parameters
//! and walk depth, two node sets `P` and `Q` and a result size `k`, return
//! the `k` pairs `(p, q) ∈ P × Q` (`p ≠ q`) with the highest truncated DHT
//! scores `h_d(p, q)`, sorted by descending score, together with
//! instrumentation counters.
//!
//! The forward algorithms ([`fbj`], [`fidj`]) walk from each source `p`
//! towards each target `q`; the backward algorithms ([`bbj`], [`bidj`]) walk
//! backwards from each target `q` and obtain the scores of *all* sources at
//! once, which is why they are roughly `|P|` times faster.  B-BJ, B-IDJ-X
//! (and AP) run over any [`ColumnSource`], of which DHT is one.
//!
//! Each algorithm has one entry point, taking the [`QueryCtx`] its columns,
//! bound tables and walk scratches come from as its last argument; a caller
//! with no session passes [`QueryCtx::one_shot`], which allocates nothing.

pub mod bbj;
pub mod bidj;
pub mod fbj;
pub mod fidj;
pub mod incremental;

use dht_graph::{Graph, NodeId, NodeSet};
use dht_walks::{x_upper_bound, DhtParams, QueryCtx, WalkEngine};

use crate::answer::PairScore;
use crate::stats::TwoWayStats;

pub use incremental::IncrementalState;

/// Shared configuration of a 2-way join run.
#[derive(Debug, Clone, Copy)]
pub struct TwoWayConfig {
    /// DHT parameters (α, β, λ).
    pub params: DhtParams,
    /// Truncation depth `d` (usually chosen with Lemma 1).
    pub d: usize,
    /// Walk propagation engine (dense reference sweep vs sparse frontier).
    pub engine: WalkEngine,
    /// Worker threads for the embarrassingly parallel stages: `1` (the
    /// default) runs serially, `0` uses every available core.  Results are
    /// identical at every thread count — work is merged in a fixed order.
    pub threads: usize,
}

impl TwoWayConfig {
    /// Creates a configuration with the default engine, serial execution.
    pub fn new(params: DhtParams, d: usize) -> Self {
        TwoWayConfig {
            params,
            d: d.max(1),
            engine: WalkEngine::default(),
            threads: 1,
        }
    }

    /// The paper's default configuration: `DHT_λ` with `λ = 0.2` and
    /// `ε = 10⁻⁶`, i.e. `d = 8`.
    pub fn paper_default() -> Self {
        Self::new(DhtParams::paper_default(), 8).with_depth_for_epsilon(1e-6)
    }

    /// Returns a copy with the walk depth chosen by Lemma 1 for `epsilon`.
    ///
    /// # Panics
    /// Panics when `epsilon <= 0`; use [`DhtParams::depth_for_epsilon`]
    /// directly for a fallible version.
    pub fn with_depth_for_epsilon(mut self, epsilon: f64) -> Self {
        self.d = self
            .params
            .depth_for_epsilon(epsilon)
            .expect("epsilon must be positive");
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

    /// The resolved worker count (`0` → available parallelism).
    pub fn effective_threads(&self) -> usize {
        dht_par::effective_threads(self.threads)
    }
}

/// Result of a 2-way join: the top-k pairs (descending score) plus counters.
#[derive(Debug, Clone)]
pub struct TwoWayOutput {
    /// The `k` highest-scored pairs, sorted by descending score.
    pub pairs: Vec<PairScore>,
    /// Instrumentation counters.
    pub stats: TwoWayStats,
}

/// Selects one of the five 2-way join algorithms of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoWayAlgorithm {
    /// F-BJ: forward basic join.
    ForwardBasic,
    /// F-IDJ: forward iterative-deepening join.
    ForwardIdj,
    /// B-BJ: backward basic join.
    BackwardBasic,
    /// B-IDJ-X: backward iterative deepening with the `X_l⁺` bound.
    BackwardIdjX,
    /// B-IDJ-Y: backward iterative deepening with the `Y_l⁺` bound
    /// (Theorem 1) — the paper's best 2-way join.
    BackwardIdjY,
}

impl TwoWayAlgorithm {
    /// All five algorithms, in the order of Figure 9(a).
    pub const ALL: [TwoWayAlgorithm; 5] = [
        TwoWayAlgorithm::ForwardBasic,
        TwoWayAlgorithm::ForwardIdj,
        TwoWayAlgorithm::BackwardBasic,
        TwoWayAlgorithm::BackwardIdjX,
        TwoWayAlgorithm::BackwardIdjY,
    ];

    /// The paper's abbreviation for the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            TwoWayAlgorithm::ForwardBasic => "F-BJ",
            TwoWayAlgorithm::ForwardIdj => "F-IDJ",
            TwoWayAlgorithm::BackwardBasic => "B-BJ",
            TwoWayAlgorithm::BackwardIdjX => "B-IDJ-X",
            TwoWayAlgorithm::BackwardIdjY => "B-IDJ-Y",
        }
    }

    /// Runs the selected algorithm through a session context: backward
    /// columns and Y-bound tables are served from (and fill) the context's
    /// caches, and walk scratches come from its pool.  Answers are
    /// bit-identical at every cache state; [`QueryCtx::one_shot`] runs it
    /// with no cache at all.
    pub fn top_k_with_ctx(
        self,
        graph: &Graph,
        config: &TwoWayConfig,
        p: &NodeSet,
        q: &NodeSet,
        k: usize,
        ctx: &mut QueryCtx,
    ) -> TwoWayOutput {
        match self {
            TwoWayAlgorithm::ForwardBasic => fbj::top_k(graph, config, p, q, k, ctx),
            TwoWayAlgorithm::ForwardIdj => fidj::top_k(graph, config, p, q, k, ctx),
            TwoWayAlgorithm::BackwardBasic => bbj::top_k(graph, config, p, q, k, ctx),
            TwoWayAlgorithm::BackwardIdjX => bidj::top_k_x(graph, config, p, q, k, ctx),
            TwoWayAlgorithm::BackwardIdjY => bidj::top_k_y(graph, config, p, q, k, None, ctx),
        }
    }
}

/// What the backward joins (B-BJ, B-IDJ-X) and AP ask of a proximity
/// measure: columns scoring every source against one target, a bound on
/// what walk steps past a prefix can still add, and a floor.
/// [`TwoWayConfig`] is the DHT source; `dht-measures` wraps the others.
pub trait ColumnSource: Sync {
    /// Walk depth of the exact columns.
    fn depth(&self) -> usize;

    /// Streams the depth-`l` column of every target to `consume` **in target
    /// order** through the context's cache and scratch pool, whatever the
    /// thread count and cache temperature.
    fn for_each_column(
        &self,
        graph: &Graph,
        l: usize,
        targets: &[NodeId],
        ctx: &mut QueryCtx,
        consume: impl FnMut(NodeId, &[f64]),
    );

    /// Upper bound on the score that walk steps past `l` can still add to a
    /// depth-`l` column entry (the paper's `X_l⁺`); zero from `depth()` on.
    fn tail_bound(&self, l: usize) -> f64;

    /// The score of a pair no walk connects, and the least score there is.
    fn floor(&self) -> f64;
}

impl ColumnSource for TwoWayConfig {
    fn depth(&self) -> usize {
        self.d
    }

    fn for_each_column(
        &self,
        graph: &Graph,
        l: usize,
        targets: &[NodeId],
        ctx: &mut QueryCtx,
        consume: impl FnMut(NodeId, &[f64]),
    ) {
        let (params, engine) = (&self.params, self.engine);
        ctx.for_each_backward_column(graph, params, l, engine, self.threads, targets, consume);
    }

    fn tail_bound(&self, l: usize) -> f64 {
        x_upper_bound(&self.params, l)
    }

    fn floor(&self) -> f64 {
        self.params.min_score()
    }
}

/// Builds the final sorted pair list from a top-k buffer.  The buffer's
/// retention order (score descending, `(left, right)` ascending) is the
/// order of [`crate::answer::sort_pairs`], so its sorted output is final.
pub(crate) fn finalize_pairs(
    buffer: dht_rankjoin::TopKBuffer<(u32, u32)>,
    trace: &dht_walks::Trace,
) -> Vec<PairScore> {
    let span = trace.span(dht_walks::Phase::TopK);
    let pairs: Vec<PairScore> = buffer
        .into_sorted_desc()
        .into_iter()
        .map(|(score, (l, r))| PairScore::new(dht_graph::NodeId(l), dht_graph::NodeId(r), score))
        .collect();
    drop(span);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(TwoWayAlgorithm::ForwardBasic.name(), "F-BJ");
        assert_eq!(TwoWayAlgorithm::ForwardIdj.name(), "F-IDJ");
        assert_eq!(TwoWayAlgorithm::BackwardBasic.name(), "B-BJ");
        assert_eq!(TwoWayAlgorithm::BackwardIdjX.name(), "B-IDJ-X");
        assert_eq!(TwoWayAlgorithm::BackwardIdjY.name(), "B-IDJ-Y");
    }

    #[test]
    fn paper_default_config_has_depth_eight() {
        let cfg = TwoWayConfig::paper_default();
        assert_eq!(cfg.d, 8);
        assert!((cfg.params.lambda - 0.2).abs() < 1e-12);
    }

    #[test]
    fn depth_is_clamped_to_at_least_one() {
        let cfg = TwoWayConfig::new(DhtParams::paper_default(), 0);
        assert_eq!(cfg.d, 1);
    }
}
