//! # dht-engine
//!
//! The query-session engine: an [`Engine`] is built **once per graph** and
//! hands out [`Session`]s that answer streams of two-way and n-way join
//! queries while keeping all graph-lifetime walk state warm.
//!
//! The paper's algorithms are stateless — every `dht-core` join run on a
//! [`dht_walks::QueryCtx::one_shot`] context rebuilds its backward columns,
//! `Y_l⁺` tables and scratch buffers from scratch.  That is the right shape
//! for a one-shot experiment, but a service answering many users against
//! one graph keeps paying for state it could reuse.  A [`Session`] owns a
//! [`dht_walks::QueryCtx`]: a scratch pool, a byte-budgeted cache of
//! backward DHT columns keyed by `(params, depth, engine, target)`, and
//! lazily built Y-bound tables keyed by `(params, depth, engine, P)` — so a
//! cache hit turns a B-BJ / B-IDJ target from an `O(d·|E_G|)` walk into a
//! shared pointer clone, and repeated-target query streams get answered at
//! memcpy speed.
//!
//! ## Concurrency model
//!
//! By default the engine owns one [`dht_walks::SharedColumnCache`] — a
//! lock-striped, byte-budgeted column cache — and every session it hands
//! out reads and writes through it.  Concurrent sessions (one per client
//! thread) therefore **warm each other**: the first session to need a
//! column pays for the walk, every later one — in any thread — clones a
//! pointer.  The engine itself is immutable and `Sync`, so `&Engine` can be
//! shared across any number of scoped threads, each opening its own
//! session; [`Engine::batch_sessions`] packages exactly that pattern for
//! query streams.  With [`EngineConfig::shared_cache`] off, each session
//! holds stores of its own, of the same types and budgets.
//!
//! Answers are **bit-identical** to one-shot joins at every cache state,
//! thread count and session interleaving (the repository's cache-parity
//! and concurrent-session proptests pin this): caching never changes
//! results, only how often walks actually run.
//!
//! ## Declarative queries and the planner
//!
//! Callers can hand-pick algorithms ([`Session::two_way`] /
//! [`Session::n_way`]), but the primary surface is declarative: a
//! [`QuerySpec`] says *what* to answer (node sets, query shape, aggregate,
//! `k`) and an [`AlgorithmChoice`] says whether the algorithm is `Fixed`
//! or `Auto`.  [`Session::run`] validates the spec eagerly, and for `Auto`
//! asks the planner ([`plan`]) to pick by the session's **live cache
//! residency**: a two-way query runs B-BJ when every target column is
//! cached (a warm column is a pointer clone) and B-IDJ-Y otherwise, and an
//! n-way query runs PJ-i.  [`Session::explain`] returns the reified
//! [`QueryPlan`] (chosen algorithm, cache residency) without running
//! anything.  `Auto` picks only bitwise-identical backward algorithms
//! (see [`plan`]), so planning — like caching — never changes answers at
//! any session count (`tests/planner_parity_proptest.rs`).
//!
//! ```
//! use dht_engine::Engine;
//! use dht_core::twoway::TwoWayAlgorithm;
//! use dht_graph::{GraphBuilder, NodeId, NodeSet};
//!
//! let mut b = GraphBuilder::with_nodes(6);
//! for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
//!     b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
//! }
//! let engine = Engine::new(b.build().unwrap());
//!
//! let p = NodeSet::new("P", [NodeId(0), NodeId(1), NodeId(2)]);
//! let q = NodeSet::new("Q", [NodeId(3), NodeId(4), NodeId(5)]);
//! let mut session = engine.session();
//! let first = session.two_way(TwoWayAlgorithm::BackwardIdjY, &p, &q, 3);
//! // A *different* session hits the engine's shared cache immediately.
//! let mut other = engine.session();
//! let again = other.two_way(TwoWayAlgorithm::BackwardIdjY, &p, &q, 3);
//! assert_eq!(first.pairs, again.pairs);
//! assert!(other.cache_stats().hits > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod plan;

use std::sync::Arc;

use dht_core::multiway::{NWayAlgorithm, NWayConfig, NWayOutput};
use dht_core::twoway::{TwoWayAlgorithm, TwoWayConfig, TwoWayOutput};
use dht_core::{Aggregate, CoreError, QueryGraph};
use dht_graph::{Graph, NodeSet};
use dht_walks::{
    CacheStats, DhtParams, Phase, QueryCtx, SharedColumnCache, SharedYTableStore, WalkEngine,
};

// The declarative query surface, re-exported so engine callers need not
// depend on `dht-core` directly.
pub use dht_core::spec::{AlgorithmChoice, NWaySpec, QuerySpec, TwoWaySpec};
pub use dht_walks::{Trace, DEFAULT_Y_TABLE_CAPACITY};
pub use plan::{PlanCounters, PlannedAlgorithm, QueryPlan};

/// Construction-time knobs of an [`Engine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// DHT parameters (α, β, λ).
    pub params: DhtParams,
    /// Truncation depth `d` (usually chosen with Lemma 1).
    pub d: usize,
    /// Walk propagation engine; the default `Auto` self-calibrates to the
    /// graph (see `dht_walks::frontier::calibrated_switch_factor`).
    pub engine: WalkEngine,
    /// Worker threads per query: `1` serial (default), `0` all cores.
    pub threads: usize,
    /// Byte budget of the backward-column cache
    /// (`dht_walks::column_bytes` per entry).  `0` disables caching
    /// entirely.
    pub cache_bytes: usize,
    /// Whether sessions share their stores.  Every caching session reads
    /// and writes one [`SharedColumnCache`] of `cache_bytes` and one
    /// [`SharedYTableStore`] of `y_table_capacity`; `true` (the default)
    /// hands every session the engine's pair, so concurrent clients warm
    /// each other, and `false` builds a fresh pair per session.
    pub shared_cache: bool,
    /// Capacity (in tables) of each Y-bound-table store.  Tables are few
    /// and heavy (`O(d·|V_G|)` floats each); the default is
    /// [`DEFAULT_Y_TABLE_CAPACITY`].
    pub y_table_capacity: usize,
}

/// Default column-cache byte budget: 64 MiB — thousands of columns on the
/// paper's graphs, a bounded sliver of memory on big ones.
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

impl EngineConfig {
    /// The paper's experimental defaults (`DHT_λ`, `λ = 0.2`, `ε = 10⁻⁶` →
    /// `d = 8`) with a shared 64 MiB column cache.
    pub fn paper_default() -> Self {
        let params = DhtParams::paper_default();
        let d = params.depth_for_epsilon(1e-6).expect("1e-6 is valid");
        EngineConfig {
            params,
            d,
            engine: WalkEngine::default(),
            threads: 1,
            cache_bytes: DEFAULT_CACHE_BYTES,
            shared_cache: true,
            y_table_capacity: DEFAULT_Y_TABLE_CAPACITY,
        }
    }

    /// Returns a copy with different DHT parameters and depth.
    pub fn with_params(mut self, params: DhtParams, d: usize) -> Self {
        self.params = params;
        self.d = d.max(1);
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

    /// Returns a copy with a different column-cache byte budget (`0`
    /// disables caching).
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Returns a copy in which sessions share the engine's stores (`true`)
    /// or each get fresh ones (`false`).
    pub fn with_shared_cache(mut self, shared: bool) -> Self {
        self.shared_cache = shared;
        self
    }

    /// Returns a copy with a different Y-bound-table store capacity
    /// (minimum 1).
    pub fn with_y_table_capacity(mut self, capacity: usize) -> Self {
        self.y_table_capacity = capacity.max(1);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::paper_default()
    }
}

/// The answer to one [`QuerySpec`].
#[derive(Debug, Clone)]
pub enum EngineOutput {
    /// Answer to a two-way query.
    TwoWay(TwoWayOutput),
    /// Answer to an n-way query.
    NWay(NWayOutput),
}

impl EngineOutput {
    /// Number of result rows (pairs or tuples) in the answer.
    pub fn answer_count(&self) -> usize {
        match self {
            EngineOutput::TwoWay(out) => out.pairs.len(),
            EngineOutput::NWay(out) => out.answers.len(),
        }
    }
}

/// A per-graph query engine: owns the graph, the configuration every
/// session answers queries with, and (by default) the stores those
/// sessions warm together.
///
/// The engine is immutable and `Sync` — share `&Engine` across threads
/// freely; all per-client mutable walk state lives in the [`Session`]s it
/// hands out.
#[derive(Debug)]
pub struct Engine {
    graph: Graph,
    config: EngineConfig,
    /// The stores every session holds, on a caching shared-cache engine.
    shared: Option<Stores>,
    plan_counters: PlanCounters,
}

/// A column cache and a Y-table store, the pair a caching session holds.
type Stores = (Arc<SharedColumnCache>, Arc<SharedYTableStore>);

/// Fresh stores sized by `config`, or none when `cache_bytes` is 0.  The
/// column cache is striped for `nodes`-score columns, so a budget worth a
/// handful of them is not slivered into stripes too small to hold one.
fn new_stores(config: &EngineConfig, nodes: usize) -> Option<Stores> {
    (config.cache_bytes > 0).then(|| {
        (
            Arc::new(SharedColumnCache::for_columns(config.cache_bytes, nodes)),
            Arc::new(SharedYTableStore::with_capacity(config.y_table_capacity)),
        )
    })
}

impl Engine {
    /// Builds an engine over `graph` with [`EngineConfig::paper_default`].
    pub fn new(graph: Graph) -> Self {
        Engine::with_config(graph, EngineConfig::paper_default())
    }

    /// Builds an engine with an explicit configuration.
    pub fn with_config(graph: Graph, config: EngineConfig) -> Self {
        let shared = config
            .shared_cache
            .then(|| new_stores(&config, graph.node_count()))
            .flatten();
        Engine {
            graph,
            config,
            shared,
            plan_counters: PlanCounters::default(),
        }
    }

    /// The graph this engine answers queries over.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Tallies of the planner's `Auto` decisions on this engine (all
    /// sessions combined) — what `STATS` / `METRICS` expose per graph.
    pub fn plan_counters(&self) -> &PlanCounters {
        &self.plan_counters
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cross-session column cache, when the engine runs with one.
    pub fn shared_cache(&self) -> Option<&Arc<SharedColumnCache>> {
        self.shared.as_ref().map(|(columns, _)| columns)
    }

    /// Cumulative counters of the cross-session cache (all sessions
    /// combined), when the engine runs with one.
    pub fn shared_cache_stats(&self) -> Option<CacheStats> {
        self.shared_cache().map(|cache| cache.stats())
    }

    /// The cross-session Y-bound-table store, when the engine runs with one.
    pub fn shared_y_tables(&self) -> Option<&Arc<SharedYTableStore>> {
        self.shared.as_ref().map(|(_, y_tables)| y_tables)
    }

    /// Cumulative `(hits, misses)` of the cross-session Y-table store (all
    /// sessions combined), when the engine runs with one.
    pub fn shared_y_table_stats(&self) -> Option<(u64, u64)> {
        self.shared_y_tables().map(|store| store.stats())
    }

    /// The two-way join configuration sessions run with.
    pub fn two_way_config(&self) -> TwoWayConfig {
        TwoWayConfig::new(self.config.params, self.config.d)
            .with_engine(self.config.engine)
            .with_threads(self.config.threads)
    }

    /// The n-way join configuration for `aggregate` and `k`.
    pub fn n_way_config(&self, aggregate: Aggregate, k: usize) -> NWayConfig {
        NWayConfig::new(self.config.params, self.config.d, aggregate, k)
            .with_engine(self.config.engine)
            .with_threads(self.config.threads)
    }

    /// Opens a fresh session: with `shared_cache` on it holds the engine's
    /// stores, so it starts as warm as the engine is; with it off it holds
    /// fresh stores of the same sizes and starts cold.
    pub fn session(&self) -> Session<'_> {
        let stores = if self.config.shared_cache {
            self.shared.clone()
        } else {
            new_stores(&self.config, self.graph.node_count())
        };
        let ctx = match stores {
            Some((columns, y_tables)) => QueryCtx::shared(columns, y_tables),
            None => QueryCtx::one_shot(),
        };
        Session { engine: self, ctx }
    }

    /// Answers a mixed two-way / n-way spec stream on one internal
    /// session, in query order.  Specs left on `Auto` are planned per
    /// query as the session warms.
    ///
    /// # Errors
    /// Fails with the smallest-indexed malformed spec's validation error
    /// (wrapped in [`CoreError::AtQuery`]); the whole batch is validated
    /// before anything runs.
    pub fn batch(&self, specs: &[QuerySpec]) -> dht_core::Result<Vec<EngineOutput>> {
        validate_specs(specs)?;
        let mut session = self.session();
        specs
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                session
                    .run_validated(spec)
                    .map_err(|error| CoreError::at_query(index, error))
            })
            .collect()
    }

    /// Answers a mixed spec stream on `sessions` concurrent sessions —
    /// the service shape: query `i` goes to session `i % sessions`, every
    /// session runs on its own scoped thread, and all of them share the
    /// engine's cross-session cache (when enabled), warming each other.
    ///
    /// Results come back in query order and are **bit-identical** to
    /// [`Engine::batch`] at any session count: each query is answered
    /// independently and neither caching nor planning changes answers
    /// (every candidate algorithm is exact).
    ///
    /// # Errors
    /// Fails with the smallest-indexed malformed spec's validation error
    /// (deterministic regardless of scheduling: the whole batch is
    /// validated before any session starts).
    pub fn batch_sessions(
        &self,
        specs: &[QuerySpec],
        sessions: usize,
    ) -> dht_core::Result<Vec<EngineOutput>> {
        validate_specs(specs)?;
        let sessions = sessions.clamp(1, specs.len().max(1));
        if sessions == 1 {
            return self.batch(specs);
        }
        let slots: Vec<Option<dht_core::Result<EngineOutput>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|worker| {
                    scope.spawn(move || {
                        let mut session = self.session();
                        specs
                            .iter()
                            .enumerate()
                            .filter(|(index, _)| index % sessions == worker)
                            .map(|(index, spec)| {
                                let output = session
                                    .run_validated(spec)
                                    .map_err(|error| CoreError::at_query(index, error));
                                (index, output)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut slots: Vec<Option<dht_core::Result<EngineOutput>>> =
                (0..specs.len()).map(|_| None).collect();
            for handle in handles {
                for (index, output) in handle.join().expect("engine session worker panicked") {
                    slots[index] = Some(output);
                }
            }
            slots
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every query answered exactly once"))
            .collect()
    }
}

/// Validates every spec of a batch up front, attributing the first failure
/// to its query index.
fn validate_specs(specs: &[QuerySpec]) -> dht_core::Result<()> {
    for (index, spec) in specs.iter().enumerate() {
        spec.validate()
            .map_err(|error| CoreError::at_query(index, error))?;
    }
    Ok(())
}

/// A named fleet of [`Engine`]s behind one front end: the **graph
/// registry**.
///
/// A multi-graph `dht-server` hosts N named graphs behind one port; the
/// registry owns one engine per graph and arbitrates one **global** cache
/// byte budget across them: [`GraphRegistry::with_shared_budget`] splits
/// the configured budget into per-engine quotas proportional to graph
/// size (node count), so a small side graph cannot evict a production
/// graph's working set, and every byte of the global budget is accounted
/// for (the quotas sum exactly to it).  Each quota then behaves exactly
/// like a single-graph engine's `--cache` budget — shared across that
/// graph's sessions, striped for its column size.
///
/// Graph names are registration-ordered and looked up by exact match;
/// index `0` is the front end's default graph (the one unprefixed
/// sessions query).
#[derive(Debug)]
pub struct GraphRegistry {
    entries: Vec<(String, Engine)>,
}

impl GraphRegistry {
    /// Builds a registry over `graphs`, splitting `config.cache_bytes` as
    /// a **global** budget: engine `i` gets
    /// `cache_bytes · nodes_i / Σ nodes` (floor), with the remainder bytes
    /// going to the largest graph (first among ties), so the per-engine
    /// quotas sum exactly to the configured budget.  All other
    /// configuration knobs are shared by every engine verbatim.  A share
    /// that rounds to `0` disables that engine's shared cache — caching
    /// never changes answers, only speed.
    pub fn with_shared_budget(graphs: Vec<(String, Graph)>, config: EngineConfig) -> Self {
        let weights: Vec<u128> = graphs
            .iter()
            .map(|(_, graph)| graph.node_count().max(1) as u128)
            .collect();
        let total_weight: u128 = weights.iter().sum::<u128>().max(1);
        let mut shares: Vec<usize> = weights
            .iter()
            .map(|weight| ((config.cache_bytes as u128 * weight) / total_weight) as usize)
            .collect();
        let remainder = config.cache_bytes - shares.iter().sum::<usize>();
        if let Some(largest) = weights
            .iter()
            .enumerate()
            .max_by(|(ai, aw), (bi, bw)| aw.cmp(bw).then(bi.cmp(ai)))
            .map(|(index, _)| index)
        {
            shares[largest] += remainder;
        }
        let entries = graphs
            .into_iter()
            .zip(shares)
            .map(|((name, graph), share)| {
                let engine = Engine::with_config(graph, config.with_cache_bytes(share));
                (name, engine)
            })
            .collect();
        GraphRegistry { entries }
    }

    /// Builds a registry from already-constructed engines (no budget
    /// arbitration — each engine keeps the budget it was built with).
    pub fn from_engines(entries: Vec<(String, Engine)>) -> Self {
        GraphRegistry { entries }
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registration index of the graph named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|(n, _)| n == name)
    }

    /// The name of the graph at registration index `index`.
    pub fn name(&self, index: usize) -> &str {
        &self.entries[index].0
    }

    /// The engine of the graph at registration index `index`.
    pub fn engine(&self, index: usize) -> &Engine {
        &self.entries[index].1
    }

    /// Iterates `(name, engine)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Engine)> {
        self.entries
            .iter()
            .map(|(name, engine)| (name.as_str(), engine))
    }
}

/// A query session against one [`Engine`]: owns the per-client walk state
/// (a scratch pool and, unless caching is off, a column cache and a Y-table
/// store — the engine's, or its own) and answers queries through it.
///
/// Sessions are cheap to create and single-threaded by design — one per
/// concurrent client; queries *within* a session still fan out over
/// `EngineConfig::threads` workers, and sessions of a shared-cache engine
/// warm each other across threads.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    ctx: QueryCtx,
}

impl Session<'_> {
    /// The engine this session belongs to.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// Answers one two-way query: the `k` best pairs of `p ⋈ q`.
    pub fn two_way(
        &mut self,
        algorithm: TwoWayAlgorithm,
        p: &NodeSet,
        q: &NodeSet,
        k: usize,
    ) -> TwoWayOutput {
        let config = self.engine.two_way_config();
        algorithm.top_k_with_ctx(&self.engine.graph, &config, p, q, k, &mut self.ctx)
    }

    /// Answers one n-way query.
    ///
    /// # Errors
    /// Fails when the query graph and node sets are inconsistent.
    pub fn n_way(
        &mut self,
        algorithm: NWayAlgorithm,
        query: &QueryGraph,
        sets: &[NodeSet],
        aggregate: Aggregate,
        k: usize,
    ) -> dht_core::Result<NWayOutput> {
        let config = self.engine.n_way_config(aggregate, k);
        algorithm.run_with_ctx(&self.engine.graph, &config, query, sets, &mut self.ctx)
    }

    /// Plans `spec` against this session's **current** cache state and
    /// returns the reified [`QueryPlan`] without running anything: the
    /// chosen algorithm and the cache residency the decision read.
    ///
    /// Plans are session-dependent on purpose — the same two-way spec
    /// explains as B-IDJ-Y on a cold session and as B-BJ on one whose
    /// target columns are all cached (a warm backward target is a pointer
    /// clone, so the bound machinery of B-IDJ-Y would be pure overhead).
    ///
    /// # Errors
    /// Fails when the spec is malformed (see
    /// [`QuerySpec::validate`]).
    ///
    /// ```
    /// use dht_core::QuerySpec;
    /// use dht_engine::Engine;
    /// use dht_graph::{GraphBuilder, NodeId, NodeSet};
    ///
    /// let mut b = GraphBuilder::with_nodes(4);
    /// b.add_undirected_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    /// b.add_undirected_edge(NodeId(1), NodeId(2), 1.0).unwrap();
    /// b.add_undirected_edge(NodeId(2), NodeId(3), 1.0).unwrap();
    /// let engine = Engine::new(b.build().unwrap());
    /// let session = engine.session();
    /// let spec = QuerySpec::two_way(
    ///     NodeSet::new("P", [NodeId(0), NodeId(1)]),
    ///     NodeSet::new("Q", [NodeId(2), NodeId(3)]),
    ///     2,
    /// );
    /// let plan = session.explain(&spec).unwrap();
    /// assert!(plan.auto);
    /// assert_eq!(plan.resident_columns, 0, "cold session");
    /// println!("{plan}"); // "choose B-IDJ-Y (auto; warm 0/2 target columns)"
    /// ```
    pub fn explain(&self, spec: &QuerySpec) -> dht_core::Result<QueryPlan> {
        spec.validate()?;
        Ok(self.plan(spec))
    }

    /// Plans `spec`, probing each target's full-depth backward column
    /// without disturbing the cache.
    fn plan(&self, spec: &QuerySpec) -> QueryPlan {
        let (graph, config) = (&self.engine.graph, &self.engine.config);
        plan::plan(spec, |target| {
            self.ctx.backward_column_resident(
                graph,
                &config.params,
                target,
                config.d,
                config.engine,
            )
        })
    }

    /// Validates and answers one declarative query: `Fixed` specs run the
    /// pinned algorithm, `Auto` specs run whatever [`Session::explain`]
    /// would currently choose.  Every algorithm is exact, so the choice
    /// never affects the answer — only the latency.
    ///
    /// # Errors
    /// Fails when the spec is malformed (see [`QuerySpec::validate`]).
    ///
    /// ```
    /// use dht_core::QuerySpec;
    /// use dht_engine::{Engine, EngineOutput};
    /// use dht_graph::{GraphBuilder, NodeId, NodeSet};
    ///
    /// let mut b = GraphBuilder::with_nodes(4);
    /// b.add_undirected_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    /// b.add_undirected_edge(NodeId(1), NodeId(2), 1.0).unwrap();
    /// b.add_undirected_edge(NodeId(2), NodeId(3), 1.0).unwrap();
    /// let engine = Engine::new(b.build().unwrap());
    /// let mut session = engine.session();
    /// let spec = QuerySpec::two_way(
    ///     NodeSet::new("P", [NodeId(0), NodeId(1)]),
    ///     NodeSet::new("Q", [NodeId(2), NodeId(3)]),
    ///     2,
    /// );
    /// let EngineOutput::TwoWay(out) = session.run(&spec).unwrap() else {
    ///     unreachable!("two-way spec");
    /// };
    /// assert_eq!(out.pairs.len(), 2);
    /// ```
    pub fn run(&mut self, spec: &QuerySpec) -> dht_core::Result<EngineOutput> {
        spec.validate()?;
        self.run_validated(spec)
    }

    /// Executes an already-validated spec (the batch APIs reuse it after
    /// their up-front `validate_specs` pass, so nothing is validated
    /// twice).  Fixed specs dispatch directly — no residency probes — so
    /// pinned-algorithm streams pay nothing for planning; only `Auto` does.
    fn run_validated(&mut self, spec: &QuerySpec) -> dht_core::Result<EngineOutput> {
        let algorithm = match plan::fixed(spec) {
            Some(algorithm) => algorithm,
            None => self.plan_traced(spec).chosen,
        };
        self.execute(spec, algorithm)
    }

    /// Like [`Session::run`], but also returns the [`QueryPlan`] the
    /// execution followed — including, for `Fixed` specs, the cache
    /// residency (with `auto: false`).  This is what
    /// `dht querystream --explain 1` prints and the server's slow-query
    /// log reports.  Unlike [`Session::run`], pinned specs pay the
    /// residency probes too, so prefer `run` on hot paths that don't need
    /// the report.
    ///
    /// # Errors
    /// Fails when the spec is malformed.
    pub fn run_with_plan(
        &mut self,
        spec: &QuerySpec,
    ) -> dht_core::Result<(QueryPlan, EngineOutput)> {
        spec.validate()?;
        let plan = self.plan_traced(spec);
        let output = self.execute(spec, plan.chosen)?;
        Ok((plan, output))
    }

    /// Plans `spec` inside a `plan` span, tallying `Auto` decisions.
    fn plan_traced(&mut self, spec: &QuerySpec) -> QueryPlan {
        let started = self.ctx.trace().begin();
        let plan = self.plan(spec);
        self.ctx.trace().finish(started, Phase::Plan);
        if plan.auto {
            self.engine.plan_counters.record(&plan);
        }
        plan
    }

    /// Runs `spec` with `algorithm` inside a `join` span: the one dispatch
    /// [`Session::run`], the batch APIs and [`Session::run_with_plan`]
    /// share.
    fn execute(
        &mut self,
        spec: &QuerySpec,
        algorithm: PlannedAlgorithm,
    ) -> dht_core::Result<EngineOutput> {
        let started = self.ctx.trace().begin();
        let output = match (spec, algorithm) {
            (QuerySpec::TwoWay(s), PlannedAlgorithm::TwoWay(algorithm)) => {
                EngineOutput::TwoWay(self.two_way(algorithm, &s.p, &s.q, s.k))
            }
            (QuerySpec::NWay(s), PlannedAlgorithm::NWay(algorithm)) => {
                EngineOutput::NWay(self.n_way(algorithm, &s.query, &s.sets, s.aggregate, s.k)?)
            }
            _ => unreachable!("a plan never changes a query's arity"),
        };
        self.ctx.trace().finish(started, Phase::Join);
        Ok(output)
    }

    /// Backward-column cache hits and misses of **this session's**
    /// lookups, on any engine.  Evictions belong to the store, not to one
    /// session, and read 0 here; a shared-cache engine reports its store's
    /// in [`Engine::shared_cache_stats`].
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.column_stats()
    }

    /// `(hits, misses)` of this session's Y-bound-table cache.
    pub fn y_table_stats(&self) -> (u64, u64) {
        self.ctx.y_table_stats()
    }

    /// Drops the cached columns and tables from this session's stores
    /// (counters are kept).  On a shared-cache engine this clears the
    /// **engine-wide** stores: every session sees the drop.
    pub fn clear_cache(&mut self) {
        self.ctx.clear();
    }

    /// Direct access to the underlying context, for callers running a
    /// `dht-core` join themselves (every join takes a context last) — for
    /// example B-BJ over a `dht_measures::MeasureSource`.
    pub fn ctx_mut(&mut self) -> &mut QueryCtx {
        &mut self.ctx
    }

    /// Enables or disables per-query trace spans on this session,
    /// clearing any recorded timings.  Tracing only reads clocks and bumps
    /// counters — answers are bit-identical either way.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.ctx.trace_mut().set_enabled(enabled);
    }

    /// The phase timings recorded since tracing was enabled (or last
    /// [`Session::reset_trace`]).  Disabled traces report all zeros.
    pub fn trace(&self) -> &Trace {
        self.ctx.trace()
    }

    /// Zeroes the recorded phase timings, keeping tracing enabled —
    /// called between queries so each `# trace:` line covers one query.
    pub fn reset_trace(&mut self) {
        self.ctx.trace_mut().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::generators::{planted_partition, PlantedPartitionConfig};
    use dht_graph::NodeId;

    fn fixture() -> (Graph, Vec<NodeSet>) {
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 3,
            community_size: 16,
            avg_internal_degree: 5.0,
            avg_external_degree: 1.5,
            weighted: true,
            seed: 2014,
        });
        (cg.graph, cg.communities)
    }

    #[test]
    fn engine_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Engine>();
        assert_sync_send::<GraphRegistry>();
    }

    #[test]
    fn registry_splits_the_global_cache_budget_proportionally() {
        let (big, _) = fixture(); // 48 nodes
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 2,
            community_size: 8,
            avg_internal_degree: 3.0,
            avg_external_degree: 1.0,
            weighted: true,
            seed: 7,
        });
        let small = cg.graph; // 16 nodes
        let budget = 1 << 20;
        let config = EngineConfig::paper_default().with_cache_bytes(budget);
        let registry = GraphRegistry::with_shared_budget(
            vec![("big".into(), big), ("small".into(), small)],
            config,
        );
        assert_eq!(registry.len(), 2);
        assert!(!registry.is_empty());
        assert_eq!(registry.index_of("big"), Some(0));
        assert_eq!(registry.index_of("small"), Some(1));
        assert_eq!(registry.index_of("absent"), None);
        assert_eq!(registry.name(1), "small");
        let shares: Vec<usize> = registry
            .iter()
            .map(|(_, engine)| engine.config().cache_bytes)
            .collect();
        assert_eq!(
            shares.iter().sum::<usize>(),
            budget,
            "quotas account for every byte of the global budget"
        );
        assert!(
            shares[0] > shares[1],
            "the larger graph gets the larger quota: {shares:?}"
        );
        // 48:16 nodes → a 3:1 split, up to the remainder byte.
        assert_eq!(shares[1], budget / 4);
        // Every engine still runs a shared cache of its own quota.
        assert!(registry.engine(0).shared_cache().is_some());
        assert!(registry.engine(1).shared_cache().is_some());
        // Non-budget knobs are shared verbatim.
        assert_eq!(registry.engine(1).config().d, config.d);
    }

    #[test]
    fn registry_from_engines_keeps_budgets_and_answers_by_name() {
        let (graph, sets) = fixture();
        let single = Engine::new(graph);
        let expected =
            single
                .session()
                .two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 5);
        let registry = GraphRegistry::from_engines(vec![("default".into(), single)]);
        assert_eq!(
            registry.engine(0).config().cache_bytes,
            DEFAULT_CACHE_BYTES,
            "from_engines does not re-arbitrate budgets"
        );
        let index = registry.index_of("default").unwrap();
        let again = registry.engine(index).session().two_way(
            TwoWayAlgorithm::BackwardIdjY,
            &sets[0],
            &sets[1],
            5,
        );
        assert_eq!(expected.pairs, again.pairs);
    }

    #[test]
    fn session_answers_match_one_shot_calls_for_every_algorithm() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let mut session = engine.session();
        let config = engine.two_way_config();
        for algorithm in TwoWayAlgorithm::ALL {
            for _ in 0..2 {
                let warm = session.two_way(algorithm, &sets[0], &sets[1], 7);
                let (p, q, ctx) = (&sets[0], &sets[1], &mut QueryCtx::one_shot());
                let cold = algorithm.top_k_with_ctx(engine.graph(), &config, p, q, 7, ctx);
                assert_eq!(warm.pairs, cold.pairs, "{}", algorithm.name());
            }
        }
        assert!(session.cache_stats().hits > 0, "repeats must hit the cache");
    }

    #[test]
    fn n_way_sessions_match_one_shot_calls() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let mut session = engine.session();
        let query = QueryGraph::chain(3);
        for algorithm in [
            NWayAlgorithm::AllPairs,
            NWayAlgorithm::PartialJoin { m: 5 },
            NWayAlgorithm::IncrementalPartialJoin { m: 5 },
        ] {
            let warm = session
                .n_way(algorithm, &query, &sets, Aggregate::Min, 5)
                .unwrap();
            let config = engine.n_way_config(Aggregate::Min, 5);
            let ctx = &mut QueryCtx::one_shot();
            let cold = algorithm
                .run_with_ctx(engine.graph(), &config, &query, &sets, ctx)
                .unwrap();
            assert_eq!(warm.answers, cold.answers, "{}", algorithm.name());
        }
    }

    #[test]
    fn concurrent_sessions_warm_each_other_through_the_shared_cache() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        // Warm the engine from one session...
        let first = engine
            .session()
            .two_way(TwoWayAlgorithm::BackwardBasic, &sets[0], &sets[2], 5);
        // ...then answer the same query from four concurrent sessions: all
        // of them must hit the shared cache and agree bitwise.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = &engine;
                let first = &first;
                let sets = &sets;
                scope.spawn(move || {
                    let mut session = engine.session();
                    let again =
                        session.two_way(TwoWayAlgorithm::BackwardBasic, &sets[0], &sets[2], 5);
                    assert_eq!(&again.pairs, &first.pairs);
                    assert_eq!(
                        session.cache_stats().misses,
                        0,
                        "every column must come from the shared cache"
                    );
                });
            }
        });
        let stats = engine.shared_cache_stats().expect("shared cache on");
        assert_eq!(stats.misses, sets[2].len() as u64);
        assert_eq!(stats.hits, 4 * sets[2].len() as u64);
    }

    /// A fixed-algorithm two-way spec (the batch tests pin the algorithm so
    /// cache counters are exact).
    fn fixed_two_way(algorithm: TwoWayAlgorithm, p: &NodeSet, q: &NodeSet, k: usize) -> QuerySpec {
        TwoWaySpec::new(p.clone(), q.clone(), k)
            .with_fixed(algorithm)
            .into()
    }

    /// A fixed-algorithm (AP, `Min`) n-way spec.
    fn fixed_n_way(query: QueryGraph, sets: &[NodeSet], k: usize) -> QuerySpec {
        NWaySpec::new(query, sets.to_vec(), k)
            .with_aggregate(Aggregate::Min)
            .with_fixed(NWayAlgorithm::AllPairs)
            .into()
    }

    /// Asserts two output streams are bit-identical, query by query.
    fn assert_same_outputs(reference: &[EngineOutput], other: &[EngineOutput], context: &str) {
        assert_eq!(reference.len(), other.len(), "{context}");
        for (index, (a, b)) in reference.iter().zip(other).enumerate() {
            match (a, b) {
                (EngineOutput::TwoWay(x), EngineOutput::TwoWay(y)) => {
                    assert_eq!(x.pairs, y.pairs, "query {index} {context}");
                }
                (EngineOutput::NWay(x), EngineOutput::NWay(y)) => {
                    assert_eq!(x.answers, y.answers, "query {index} {context}");
                }
                _ => panic!("output kind changed for query {index} {context}"),
            }
        }
    }

    #[test]
    fn batches_reuse_the_warm_cache_across_queries() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        // every query shares the same targets
        let queries: Vec<QuerySpec> = (0..6)
            .map(|i| fixed_two_way(TwoWayAlgorithm::BackwardBasic, &sets[i % 2], &sets[2], 5))
            .collect();
        let mut session = engine.session();
        session.set_trace_enabled(true);
        let outputs: Vec<EngineOutput> = queries
            .iter()
            .map(|spec| session.run(spec).unwrap())
            .collect();
        assert_eq!(outputs.len(), queries.len());
        assert_eq!(
            session.trace().phase_count(Phase::Join),
            queries.len() as u64,
            "a traced session records exactly one join span per query"
        );
        let stats = session.cache_stats();
        // |Q| misses on the first query, hits from then on.
        assert_eq!(stats.misses, sets[2].len() as u64);
        assert_eq!(stats.hits, 5 * sets[2].len() as u64);
        // engine-level batch produces the same outputs (served from the
        // now-warm shared cache)
        let again = engine.batch(&queries).unwrap();
        assert_same_outputs(&outputs, &again, "engine batch");
    }

    #[test]
    fn batch_validation_errors_carry_the_query_index() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let queries = vec![
            fixed_two_way(TwoWayAlgorithm::BackwardBasic, &sets[0], &sets[1], 3),
            fixed_two_way(
                TwoWayAlgorithm::BackwardBasic,
                &NodeSet::empty("P"),
                &sets[1],
                3,
            ),
        ];
        let error = engine.batch(&queries).unwrap_err();
        assert!(
            matches!(error, CoreError::AtQuery { index: 1, .. }),
            "{error}"
        );
        assert!(error.to_string().contains("query #1"), "{error}");

        let n_way = vec![fixed_n_way(QueryGraph::chain(4), &sets, 3)];
        let error = engine.batch(&n_way).unwrap_err();
        assert!(
            matches!(error, CoreError::AtQuery { index: 0, .. }),
            "{error}"
        );
    }

    #[test]
    fn batch_sessions_matches_single_session_batches() {
        let (graph, sets) = fixture();
        let mut queries: Vec<QuerySpec> = Vec::new();
        for round in 0..3 {
            let algorithm = if round % 2 == 0 {
                TwoWayAlgorithm::BackwardBasic
            } else {
                TwoWayAlgorithm::BackwardIdjY
            };
            for (i, j) in [(0usize, 2usize), (1, 2), (0, 1)] {
                queries.push(fixed_two_way(algorithm, &sets[i], &sets[j], 5));
            }
            queries.push(fixed_n_way(QueryGraph::chain(3), &sets, 4));
        }
        // Mix in an Auto spec so the planner runs under concurrency too.
        queries.push(QuerySpec::two_way(sets[0].clone(), sets[2].clone(), 5));
        for shared in [true, false] {
            let engine = Engine::with_config(
                graph.clone(),
                EngineConfig::paper_default().with_shared_cache(shared),
            );
            let reference = engine.batch(&queries).unwrap();
            for sessions in [2usize, 4] {
                let concurrent = engine.batch_sessions(&queries, sessions).unwrap();
                assert_same_outputs(&reference, &concurrent, &format!("sessions={sessions}"));
            }
        }
    }

    #[test]
    fn batch_sessions_reports_the_first_error_deterministically() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        // Query 1 is malformed (three sets on a 4-vertex query graph).
        let queries = vec![
            fixed_two_way(TwoWayAlgorithm::BackwardBasic, &sets[0], &sets[1], 3),
            fixed_n_way(QueryGraph::chain(4), &sets, 3),
        ];
        for sessions in [1usize, 2] {
            let error = engine.batch_sessions(&queries, sessions).unwrap_err();
            assert!(
                matches!(error, CoreError::AtQuery { index: 1, .. }),
                "sessions={sessions}: {error}"
            );
        }
    }

    #[test]
    fn explain_flips_from_idj_to_basic_as_target_columns_warm() {
        // The residency rule: on a cold session the planner picks B-IDJ-Y
        // (pruning saves per-target walk work); once every target's
        // backward column is resident, the same spec plans as B-BJ.
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let mut session = engine.session();
        let spec = QuerySpec::two_way(sets[0].clone(), sets[1].clone(), 5);

        let cold = session.explain(&spec).unwrap();
        assert!(cold.auto);
        assert_eq!(cold.resident_columns, 0);
        assert_eq!(cold.probed_columns, sets[1].len());
        assert_eq!(
            cold.chosen,
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardIdjY),
            "cold plan: {cold}"
        );

        // Warm every target column at full depth, then re-explain.
        session.two_way(TwoWayAlgorithm::BackwardBasic, &sets[0], &sets[1], 5);
        let warm = session.explain(&spec).unwrap();
        assert_eq!(warm.resident_columns, sets[1].len(), "warm plan: {warm}");
        assert_eq!(
            warm.chosen,
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardBasic),
            "warm plan: {warm}"
        );
        assert_eq!(
            warm.to_string(),
            format!(
                "choose B-BJ (auto; warm {0}/{0} target columns)",
                sets[1].len()
            )
        );

        // And the answers are identical either way (the planner only moves
        // latency, never results).
        let auto_out = session.run(&spec).unwrap();
        let fixed_out = session.run(&QuerySpec::TwoWay(
            TwoWaySpec::new(sets[0].clone(), sets[1].clone(), 5)
                .with_fixed(TwoWayAlgorithm::BackwardIdjY),
        ));
        match (auto_out, fixed_out.unwrap()) {
            (EngineOutput::TwoWay(a), EngineOutput::TwoWay(b)) => {
                assert_eq!(a.pairs, b.pairs);
            }
            _ => unreachable!("two-way specs"),
        }
    }

    #[test]
    fn auto_n_way_specs_plan_and_run() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let mut session = engine.session();
        let spec = QuerySpec::n_way(QueryGraph::chain(3), sets.clone(), 4);
        let (plan, output) = session.run_with_plan(&spec).unwrap();
        assert!(plan.auto);
        let chosen = plan.chosen.n_way().expect("n-way plan");
        assert_eq!(
            chosen,
            NWayAlgorithm::IncrementalPartialJoin { m: 4 },
            "{plan}"
        );
        // Bit-identical to the pinned run of the same algorithm.
        let fixed = session
            .n_way(chosen, &QueryGraph::chain(3), &sets, Aggregate::Min, 4)
            .unwrap();
        match output {
            EngineOutput::NWay(out) => assert_eq!(out.answers, fixed.answers),
            EngineOutput::TwoWay(_) => unreachable!("n-way spec"),
        }
    }

    #[test]
    fn run_rejects_malformed_specs_before_touching_the_graph() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let mut session = engine.session();
        let empty = QuerySpec::two_way(NodeSet::empty("P"), sets[0].clone(), 3);
        assert!(matches!(
            session.run(&empty).unwrap_err(),
            CoreError::EmptyNodeSet(_)
        ));
        assert!(matches!(
            session.explain(&empty).unwrap_err(),
            CoreError::EmptyNodeSet(_)
        ));
        let zero_k = QuerySpec::two_way(sets[0].clone(), sets[1].clone(), 0);
        assert!(matches!(
            session.run(&zero_k).unwrap_err(),
            CoreError::ZeroResultSize
        ));
    }

    #[test]
    fn y_tables_are_shared_across_repeated_bidj_y_queries() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let mut session = engine.session();
        for _ in 0..3 {
            session.two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 4);
        }
        let (hits, misses) = session.y_table_stats();
        assert_eq!(misses, 1, "one build for three identical queries");
        assert_eq!(hits, 2);
    }

    #[test]
    fn y_tables_are_shared_across_sessions_on_a_shared_cache_engine() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph.clone());
        // The first session pays for the table...
        let first = engine
            .session()
            .two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 4);
        assert_eq!(engine.shared_y_table_stats(), Some((0, 1)));
        // ...and concurrent later sessions hit it, answering identically.
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let engine = &engine;
                let sets = &sets;
                let first = &first;
                scope.spawn(move || {
                    let mut session = engine.session();
                    let again =
                        session.two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 4);
                    assert_eq!(again.pairs, first.pairs);
                    assert_eq!(session.y_table_stats(), (1, 0), "table came from the store");
                });
            }
        });
        assert_eq!(engine.shared_y_table_stats(), Some((3, 1)));

        // A private-cache engine gives each session its own Y-table store:
        // the second session rebuilds (answers still identical).
        let private = Engine::with_config(
            graph,
            EngineConfig::paper_default().with_shared_cache(false),
        );
        assert!(private.shared_y_tables().is_none());
        private
            .session()
            .two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 4);
        let mut second = private.session();
        let again = second.two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 4);
        assert_eq!(again.pairs, first.pairs);
        assert_eq!(second.y_table_stats(), (0, 1), "private sessions rebuild");
    }

    #[test]
    fn every_session_honours_the_y_table_capacity() {
        let graph = dht_graph::generators::barabasi_albert(2_000, 3, 7);
        let set = |name: &str, ids: std::ops::Range<u32>| NodeSet::new(name, ids.map(NodeId));
        let (p1, p2, q) = (set("P1", 0..8), set("P2", 100..108), set("Q", 1_990..1_998));
        for shared in [true, false] {
            let config = EngineConfig::paper_default()
                .with_shared_cache(shared)
                .with_y_table_capacity(1);
            let engine = Engine::with_config(graph.clone(), config);
            let mut session = engine.session();
            for p in [&p1, &p2, &p1] {
                session.two_way(TwoWayAlgorithm::BackwardIdjY, p, &q, 5);
            }
            // One table fits: P2 evicts P1, so the second P1 rebuilds.
            assert_eq!(session.y_table_stats(), (0, 3), "shared_cache={shared}");
        }
    }

    #[test]
    fn disabled_cache_still_answers_correctly() {
        let (graph, sets) = fixture();
        let config = EngineConfig::paper_default().with_cache_bytes(0);
        let engine = Engine::with_config(graph, config);
        assert!(engine.shared_cache().is_none());
        let mut session = engine.session();
        let a = session.two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 5);
        let b = session.two_way(TwoWayAlgorithm::BackwardIdjY, &sets[0], &sets[1], 5);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(session.cache_stats().hits, 0);
    }

    #[test]
    fn clear_cache_forces_recomputation() {
        let (graph, sets) = fixture();
        let engine = Engine::new(graph);
        let mut session = engine.session();
        session.two_way(TwoWayAlgorithm::BackwardBasic, &sets[0], &sets[1], 5);
        let misses_before = session.cache_stats().misses;
        session.clear_cache();
        session.two_way(TwoWayAlgorithm::BackwardBasic, &sets[0], &sets[1], 5);
        assert_eq!(session.cache_stats().misses, 2 * misses_before);
    }

    #[test]
    fn config_builders_compose() {
        let config = EngineConfig::paper_default()
            .with_params(DhtParams::dht_e(), 6)
            .with_engine(WalkEngine::Dense)
            .with_threads(4)
            .with_cache_bytes(1 << 16)
            .with_shared_cache(false)
            .with_y_table_capacity(0);
        assert_eq!(config.d, 6);
        assert_eq!(config.engine, WalkEngine::Dense);
        assert_eq!(config.threads, 4);
        assert_eq!(config.cache_bytes, 1 << 16);
        assert!(!config.shared_cache);
        assert_eq!(config.y_table_capacity, 1, "clamped to at least one");
        let mut b = dht_graph::GraphBuilder::with_nodes(2);
        b.add_unit_edge(NodeId(0), NodeId(1)).unwrap();
        let engine = Engine::with_config(b.build().unwrap(), config);
        assert!(engine.shared_cache().is_none(), "private caches requested");
        assert_eq!(engine.two_way_config().d, 6);
        assert_eq!(engine.n_way_config(Aggregate::Sum, 3).k, 3);
    }
}
