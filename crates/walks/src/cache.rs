//! Graph-lifetime query state: the backward-column caches (per-session and
//! cross-session) and the [`QueryCtx`] handle the join layers thread through
//! a query session.
//!
//! The paper's backward algorithms (B-BJ, B-IDJ) spend almost all of their
//! time in `backWalk(G, q, l)` passes — `O(l·|E_G|)` each — and a query
//! stream with repeated targets (the norm for a service answering many
//! users against one graph) recomputes identical columns over and over.
//! This module caches them:
//!
//! * [`SharedColumnCache`] — score columns keyed by `(signature, target)`,
//!   where the signature folds in everything else that determines the
//!   column (DHT parameters, walk depth, engine — see [`dht_column_sig`] —
//!   or an arbitrary measure signature for the generic joins of
//!   `dht-measures`).  A hit turns an `O(l·|E_G|)` walk into a
//!   shared-pointer clone.  The key space is split over lock stripes, each
//!   a byte-budgeted LRU behind a `Mutex`; capacity is accounted in
//!   **bytes** ([`column_bytes`]), not entries, so dense columns on large
//!   graphs cannot blow past a configured memory budget.
//! * [`SharedYTableStore`] — the few, heavy [`YBoundTable`]s keyed by
//!   `(params, d, engine, P)`, read-mostly behind an `RwLock`.
//! * [`QueryCtx`] — the per-session bundle the join algorithms take
//!   `&mut` internally: a [`ScratchPool`] of walk buffers and, unless
//!   caching is off, an `Arc` of each store.  A private session is one
//!   whose stores no other context holds; sessions of a shared-cache
//!   engine hold the same ones and warm each other: the first one to
//!   compute a column pays for it, every later one clones the pointer.
//!
//! Columns are deterministic functions of their key (every walk engine is
//! input-deterministic), so replaying a cached column is bit-identical to
//! recomputing it: joins answered through a warm context return exactly the
//! pairs a cold one produces — regardless of which session computed the
//! column first, at any thread count, under any eviction schedule.
//! `tests/session_cache_parity_proptest.rs` and
//! `tests/concurrent_sessions_proptest.rs` pin this.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use dht_graph::{fnv1a, fnv1a_fold, Graph, MixBuildHasher, NodeId, NodeSet};

use crate::backward::backward_dht_into;
use crate::bounds::YBoundTable;
use crate::frontier::{ScratchPool, WalkEngine, WalkScratch};
use crate::params::DhtParams;

/// The column signature of a truncated backward DHT computation: two columns
/// share a signature exactly when they were produced by the same parameters,
/// walk depth and propagation engine (so their values are bit-identical for
/// equal targets).
pub fn dht_column_sig(params: &DhtParams, d: usize, engine: WalkEngine) -> u64 {
    let mut h = fnv1a(b"dht");
    h = fnv1a_fold(h, &params.alpha.to_bits().to_le_bytes());
    h = fnv1a_fold(h, &params.beta.to_bits().to_le_bytes());
    h = fnv1a_fold(h, &params.lambda.to_bits().to_le_bytes());
    h = fnv1a_fold(h, &(d as u64).to_le_bytes());
    fnv1a_fold(h, engine.name().as_bytes())
}

/// Builds a column signature from a tag string and a list of 64-bit words
/// (typically parameter bit patterns) — the hook measures outside this
/// crate use to share the column caches (see
/// `dht-measures`' `ProximityMeasure::column_signature`).
pub fn custom_column_sig(tag: &str, words: &[u64]) -> u64 {
    let mut h = fnv1a(tag.as_bytes());
    for &w in words {
        h = fnv1a_fold(h, &w.to_le_bytes());
    }
    h
}

/// Folds the graph's process-unique identity ([`Graph::uid`]) into a column
/// signature, so a context reused across graphs can never serve a column
/// computed on a different graph.  Applied internally by every cached
/// [`QueryCtx`] operation.
fn graph_scoped_sig(graph: &Graph, sig: u64) -> u64 {
    custom_column_sig("graph", &[graph.uid(), sig])
}

/// Fixed per-entry bookkeeping charge (key, stamps, map/queue slots and the
/// `Arc` header) added to every cached column's accounted size.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// The accounted size in bytes of a cached column of `len` scores: the
/// payload floats plus a fixed per-entry bookkeeping charge, so even empty
/// columns have nonzero cost and budgets bound entry counts too.
pub fn column_bytes(len: usize) -> usize {
    len * std::mem::size_of::<f64>() + ENTRY_OVERHEAD_BYTES
}

/// Hit / miss / eviction counters of a column cache (cumulative since
/// construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh computation.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum (used to aggregate per-shard counters).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheSlot {
    /// LRU stamp of the slot's most recent touch; stale queue entries whose
    /// stamp no longer matches are skipped during eviction.
    stamp: u64,
    /// Accounted size of this entry ([`column_bytes`] at insertion).
    bytes: usize,
    column: Arc<[f64]>,
}

/// One stripe of a [`SharedColumnCache`]: a byte-budgeted LRU of score
/// columns keyed by `(signature, target)`.
///
/// Capacity is accounted in bytes ([`column_bytes`] per entry), so the
/// memory held by the cache is bounded regardless of graph size — a dense
/// column on a 10M-node graph costs what it costs, not "one slot".
/// Eviction is strict LRU via touch stamps with a lazily compacted queue:
/// `get` and `insert` are `O(1)` amortised.  A budget of `0` disables the
/// stripe entirely (every lookup misses, nothing is stored).
#[derive(Debug, Default)]
struct ColumnCache {
    byte_budget: usize,
    bytes_used: usize,
    slots: HashMap<(u64, u32), CacheSlot, MixBuildHasher>,
    /// `(stamp, key)` pairs in touch order; entries are stale when the
    /// slot's current stamp differs.
    order: VecDeque<(u64, (u64, u32))>,
    tick: u64,
    stats: CacheStats,
}

impl ColumnCache {
    /// A cache holding at most `byte_budget` accounted bytes of columns.
    fn with_byte_budget(byte_budget: usize) -> Self {
        ColumnCache {
            byte_budget,
            ..ColumnCache::default()
        }
    }

    /// Accounted bytes currently held.
    fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Number of columns currently cached.
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative hit / miss / eviction counters.
    fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Residency probe: whether the column for `(sig, target)` is currently
    /// cached — **without** refreshing its LRU position, cloning it or
    /// touching the hit/miss counters.  This is what the planner uses to
    /// ask "would this lookup hit?" before choosing an algorithm: probing
    /// must never change what a later eviction does.
    fn contains(&self, sig: u64, target: u32) -> bool {
        self.byte_budget > 0 && self.slots.contains_key(&(sig, target))
    }

    /// Looks up the column for `(sig, target)`, refreshing its LRU position
    /// on a hit.
    fn get(&mut self, sig: u64, target: u32) -> Option<Arc<[f64]>> {
        if self.byte_budget == 0 {
            self.stats.misses += 1;
            return None;
        }
        let key = (sig, target);
        match self.slots.get_mut(&key) {
            Some(slot) => {
                self.tick += 1;
                slot.stamp = self.tick;
                self.order.push_back((self.tick, key));
                self.stats.hits += 1;
                let column = slot.column.clone();
                self.compact();
                Some(column)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) the column for `(sig, target)`, evicting least
    /// recently used entries until the byte budget holds again.  A column
    /// whose own accounted size exceeds the whole budget is not retained.
    fn insert(&mut self, sig: u64, target: u32, column: Arc<[f64]>) {
        if self.byte_budget == 0 {
            return;
        }
        let key = (sig, target);
        let bytes = column_bytes(column.len());
        self.tick += 1;
        let stamp = self.tick;
        self.order.push_back((stamp, key));
        if let Some(old) = self.slots.insert(
            key,
            CacheSlot {
                stamp,
                bytes,
                column,
            },
        ) {
            self.bytes_used -= old.bytes;
        }
        self.bytes_used += bytes;
        while self.bytes_used > self.byte_budget && !self.slots.is_empty() {
            self.evict_one();
        }
        self.compact();
    }

    /// Drops everything (counters are kept).
    fn clear(&mut self) {
        self.slots.clear();
        self.order.clear();
        self.bytes_used = 0;
    }

    fn evict_one(&mut self) {
        while let Some((stamp, key)) = self.order.pop_front() {
            let live = self.slots.get(&key).is_some_and(|slot| slot.stamp == stamp);
            if live {
                if let Some(slot) = self.slots.remove(&key) {
                    self.bytes_used -= slot.bytes;
                }
                self.stats.evictions += 1;
                return;
            }
        }
    }

    /// Keeps the lazily invalidated queue from growing without bound:
    /// whenever it exceeds twice the live set, every stale entry is dropped
    /// (not just a stale prefix — a live entry stuck at the front must not
    /// shield stale ones behind it, or a stream of hits on one hot key
    /// would grow the queue forever).  The rebuild is `O(len)` and only
    /// runs after `len/2` pushes, so the amortised cost stays `O(1)`.
    fn compact(&mut self) {
        if self.order.len() <= 2 * self.slots.len().max(1) {
            return;
        }
        let slots = &self.slots;
        self.order
            .retain(|&(stamp, key)| slots.get(&key).is_some_and(|slot| slot.stamp == stamp));
    }
}

/// Default number of lock stripes of a [`SharedColumnCache`].
const DEFAULT_SHARDS: usize = 16;

/// Budgets smaller than this per shard collapse the stripe count, so tiny
/// test budgets still cache a few columns instead of splitting into sixteen
/// useless slivers.
const MIN_SHARD_BYTES: usize = 16 * 1024;

/// A thread-safe, lock-striped column cache: the one column store of every
/// caching [`QueryCtx`], shared by every session of one graph's engine or
/// held by one private session alone.
///
/// The key space is split over power-of-two many byte-budgeted LRU shards,
/// each behind its own `Mutex`, so concurrent sessions contend only when
/// they touch the same stripe.  Each shard runs an independent byte-budget
/// LRU over its slice of the total budget — eviction never needs a global
/// lock, and a one-stripe cache is strict LRU over its whole budget.
/// Because every cached column is a pure function of its key, concurrent
/// sessions may race to compute the same column; whoever inserts last wins,
/// and both results are bit-identical, so answers never depend on the
/// interleaving.
#[derive(Debug)]
pub struct SharedColumnCache {
    shards: Box<[Mutex<ColumnCache>]>,
    byte_budget: usize,
}

impl SharedColumnCache {
    /// A shared cache with `byte_budget` total capacity across
    /// `DEFAULT_SHARDS` (16) lock stripes (fewer when the budget is too small
    /// to split usefully).
    pub fn new(byte_budget: usize) -> Self {
        SharedColumnCache::with_shards(byte_budget, DEFAULT_SHARDS)
    }

    /// A shared cache sized for columns of `column_len` scores: the stripe
    /// count is collapsed until every stripe's slice of the budget holds at
    /// least two such columns, so large-graph columns are never silently
    /// uncacheable while the total budget would hold several (each shard
    /// rejects entries bigger than its own slice).  This is what
    /// `dht-engine` uses, with `column_len = |V_G|`.
    pub fn for_columns(byte_budget: usize, column_len: usize) -> Self {
        let max_by_column = (byte_budget / (2 * column_bytes(column_len))).max(1);
        SharedColumnCache::with_shards(byte_budget, DEFAULT_SHARDS.min(max_by_column))
    }

    /// A shared cache with an explicit stripe count (rounded down to a
    /// power of two, collapsed further when `byte_budget / shards` would
    /// fall below a useful minimum).
    pub fn with_shards(byte_budget: usize, shards: usize) -> Self {
        let max_useful = (byte_budget / MIN_SHARD_BYTES).max(1);
        let shards = shards.clamp(1, max_useful);
        // Round down to a power of two so stripe selection is a mask.
        let shards = 1usize << (usize::BITS - 1 - shards.leading_zeros());
        let per_shard = byte_budget / shards;
        let shards: Vec<Mutex<ColumnCache>> = (0..shards)
            .map(|_| Mutex::new(ColumnCache::with_byte_budget(per_shard)))
            .collect();
        SharedColumnCache {
            shards: shards.into_boxed_slice(),
            byte_budget,
        }
    }

    /// A disabled shared cache (budget 0).
    pub fn disabled() -> Self {
        SharedColumnCache::new(0)
    }

    /// The total configured capacity in bytes.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Whether the cache stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.byte_budget > 0
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, sig: u64, target: u32) -> &Mutex<ColumnCache> {
        let mut h = fnv1a(b"shard");
        h = fnv1a_fold(h, &sig.to_le_bytes());
        h = fnv1a_fold(h, &target.to_le_bytes());
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    /// Residency probe: whether the column for `(sig, target)` is currently
    /// cached in its stripe — no LRU touch, no clone, no counter update.
    /// The stripe lock is held only for the map lookup.
    pub fn contains(&self, sig: u64, target: u32) -> bool {
        self.shard(sig, target)
            .lock()
            .expect("shard lock poisoned")
            .contains(sig, target)
    }

    /// Looks up the column for `(sig, target)` in its stripe.
    pub fn get(&self, sig: u64, target: u32) -> Option<Arc<[f64]>> {
        self.shard(sig, target)
            .lock()
            .expect("shard lock poisoned")
            .get(sig, target)
    }

    /// Inserts (or refreshes) the column for `(sig, target)` in its stripe,
    /// evicting within that stripe until its slice of the budget holds.
    pub fn insert(&self, sig: u64, target: u32, column: Arc<[f64]>) {
        self.shard(sig, target)
            .lock()
            .expect("shard lock poisoned")
            .insert(sig, target, column);
    }

    /// Cumulative counters summed over every stripe.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |acc, shard| {
                acc.merged(shard.lock().expect("shard lock poisoned").stats())
            })
    }

    /// Accounted bytes currently held, summed over every stripe.
    pub fn bytes_used(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("shard lock poisoned").bytes_used())
            .sum()
    }

    /// Number of columns currently cached, summed over every stripe.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether no stripe currently holds any column.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached column in every stripe (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect("shard lock poisoned").clear();
        }
    }
}

/// A store of `Y_l⁺` bound tables: the one Y-table store of every caching
/// [`QueryCtx`], shared (via `Arc`) by every session of one graph's engine
/// or held by one private session alone.
///
/// Y-bound tables are the opposite shape from backward columns: **few and
/// heavy** (each is `O(d·|V_G|)` floats, and a service answers most
/// B-IDJ-Y streams from a handful of distinct `P` sets).  A mutex around
/// them would serialise every concurrent B-IDJ-Y session on one lock for
/// the whole lookup, so the store is read-mostly by construction:
///
/// * lookups take the `RwLock` **read** lock only — any number of sessions
///   hit concurrently; LRU touch stamps are per-entry atomics, so a hit
///   never needs the write lock;
/// * a miss releases the lock entirely while the table is **built outside
///   it** (the expensive part), then takes the write lock just long enough
///   to insert; sessions racing to build the same table each insert a
///   bit-identical result (tables are pure functions of their key), so the
///   interleaving can never change answers.
///
/// Capacity is a fixed entry count with LRU eviction under the write lock.
#[derive(Debug)]
pub struct SharedYTableStore {
    tables: RwLock<HashMap<(u64, u64), YSlot>>,
    tick: AtomicU64,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct YSlot {
    /// LRU touch stamp, updated under the **read** lock on every hit.
    stamp: AtomicU64,
    table: Arc<YBoundTable>,
}

impl Default for SharedYTableStore {
    fn default() -> Self {
        SharedYTableStore::new()
    }
}

impl SharedYTableStore {
    /// A store holding up to [`DEFAULT_Y_TABLE_CAPACITY`] tables.
    pub fn new() -> Self {
        SharedYTableStore::with_capacity(DEFAULT_Y_TABLE_CAPACITY)
    }

    /// A store holding up to `capacity` tables (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SharedYTableStore {
            tables: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured capacity in tables.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tables currently stored.
    pub fn len(&self) -> usize {
        self.tables.read().expect("y-table lock poisoned").len()
    }

    /// Whether the store currently holds no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative `(hits, misses)` over every session.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Looks the table up under the read lock, refreshing its atomic LRU
    /// stamp on a hit.
    fn get(&self, key: (u64, u64)) -> Option<Arc<YBoundTable>> {
        let tables = self.tables.read().expect("y-table lock poisoned");
        match tables.get(&key) {
            Some(slot) => {
                let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                slot.stamp.store(stamp, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.table.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly built table (write lock held only for the map
    /// update), evicting least-recently-touched entries over capacity.
    fn insert(&self, key: (u64, u64), table: Arc<YBoundTable>) {
        let mut tables = self.tables.write().expect("y-table lock poisoned");
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        tables.insert(
            key,
            YSlot {
                stamp: AtomicU64::new(stamp),
                table,
            },
        );
        while tables.len() > self.capacity {
            let Some(&oldest) = tables
                .iter()
                .min_by_key(|(_, slot)| slot.stamp.load(Ordering::Relaxed))
                .map(|(key, _)| key)
            else {
                break;
            };
            tables.remove(&oldest);
        }
    }

    /// Drops every stored table (counters are kept).
    pub fn clear(&self) {
        self.tables.write().expect("y-table lock poisoned").clear();
    }
}

/// The two stores a caching [`QueryCtx`] reads and writes.  Every holder
/// of the same `Arc`s shares what they hold: the sessions of a shared-cache
/// engine, and every fork of a context.
#[derive(Debug, Clone)]
struct Stores {
    columns: Arc<SharedColumnCache>,
    y_tables: Arc<SharedYTableStore>,
}

/// The stores of a context that caches at all: present, with a nonzero
/// column budget.
fn caching(stores: &Option<Stores>) -> Option<&Stores> {
    stores.as_ref().filter(|stores| stores.columns.is_enabled())
}

/// Per-session query state threaded through every join layer: pooled walk
/// scratches, a backward-column store and a Y-bound-table store.
///
/// A context built with [`QueryCtx::one_shot`] (what the free-function join
/// wrappers use) holds no store, reproducing the stateless behaviour.  Every
/// other context holds an `Arc<`[`SharedColumnCache`]`>` and an
/// `Arc<`[`SharedYTableStore`]`>`: [`QueryCtx::with_byte_budget`] builds
/// fresh ones that no other context holds (a private cache), and
/// [`QueryCtx::shared`] takes stores that other contexts hold too, so
/// concurrent sessions over the same graph warm each other.  Answers are
/// bit-identical in every mode.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// Pool of reusable walk scratches shared by the worker threads of the
    /// joins running through this context.
    pub pool: ScratchPool,
    /// The column and Y-table stores; `None` when caching is off.
    stores: Option<Stores>,
    /// This context's own column hits and misses (the store's counters
    /// aggregate every context holding it).
    column_stats: CacheStats,
    y_hits: u64,
    y_misses: u64,
    /// Per-query trace spans ([`dht_obs::Trace`]): disabled by default, so
    /// every recording site below costs one branch.  Enabled per session by
    /// the `TRACE` wire prefix / `--trace 1`; only ever reads clocks and
    /// bumps counters, never perturbs answers.
    trace: dht_obs::Trace,
}

/// Default capacity (in tables) of a [`SharedYTableStore`]: each table is
/// `O(d·|V_G|)` floats — far heavier than a column, hence the small bound.
pub const DEFAULT_Y_TABLE_CAPACITY: usize = 16;

impl QueryCtx {
    /// A context with a column cache of up to `byte_budget` accounted
    /// bytes and a Y-table store of [`DEFAULT_Y_TABLE_CAPACITY`] tables,
    /// both its own.  The column cache is one stripe, so it evicts in
    /// strict LRU order over the whole budget.
    pub fn with_byte_budget(byte_budget: usize) -> Self {
        QueryCtx::shared(
            Arc::new(SharedColumnCache::with_shards(byte_budget, 1)),
            Arc::new(SharedYTableStore::new()),
        )
    }

    /// A context with all caching disabled — what a caller with no session
    /// hands a join, so a one-shot call behaves exactly like the stateless
    /// implementation it replaced.  It holds no store and allocates
    /// nothing.
    pub fn one_shot() -> Self {
        QueryCtx::default()
    }

    /// A context reading and writing `columns` and `y_tables`, which other
    /// contexts may hold too — what `dht-engine` sessions use so
    /// concurrent clients warm each other.
    pub fn shared(columns: Arc<SharedColumnCache>, y_tables: Arc<SharedYTableStore>) -> Self {
        QueryCtx {
            stores: Some(Stores { columns, y_tables }),
            ..QueryCtx::default()
        }
    }

    /// A fresh context for a helper worker of this session, holding this
    /// context's stores (none for a one-shot context).  AP's concurrent
    /// per-edge path forks one context per worker.
    pub fn fork(&self) -> QueryCtx {
        QueryCtx {
            stores: self.stores.clone(),
            ..QueryCtx::default()
        }
    }

    /// The column cache behind this context, when it has one.
    pub fn shared_cache(&self) -> Option<&Arc<SharedColumnCache>> {
        self.stores.as_ref().map(|stores| &stores.columns)
    }

    /// The Y-table store behind this context, when it has one.
    pub fn shared_y_store(&self) -> Option<&Arc<SharedYTableStore>> {
        self.stores.as_ref().map(|stores| &stores.y_tables)
    }

    /// Cumulative column-cache hits and misses of **this context's**
    /// lookups.  Evictions belong to the store, not to one of its holders:
    /// [`SharedColumnCache::stats`] reports them.
    pub fn column_stats(&self) -> CacheStats {
        self.column_stats
    }

    /// `(hits, misses)` of this context's Y-bound-table lookups.
    pub fn y_table_stats(&self) -> (u64, u64) {
        (self.y_hits, self.y_misses)
    }

    /// The per-query trace carried by this context (disabled by default).
    pub fn trace(&self) -> &dht_obs::Trace {
        &self.trace
    }

    /// Mutable access to the trace — enable/disable/reset between queries.
    pub fn trace_mut(&mut self) -> &mut dht_obs::Trace {
        &mut self.trace
    }

    /// Drops every cached column and table from this context's stores,
    /// keeping counters.  Every context holding the same stores sees the
    /// drop.
    pub fn clear(&mut self) {
        if let Some(stores) = &self.stores {
            stores.columns.clear();
            stores.y_tables.clear();
        }
    }

    /// Residency probe: whether the backward DHT column of `target` (at
    /// walk depth `d` under `params` / `engine`) is currently resident in
    /// this context's column store — without touching LRU order, counters
    /// or the column itself.  The planner reads it to tell "warm" from
    /// "cold" targets before choosing an algorithm; probing never changes
    /// what a later lookup or eviction does.
    pub fn backward_column_resident(
        &self,
        graph: &Graph,
        params: &DhtParams,
        target: NodeId,
        d: usize,
        engine: WalkEngine,
    ) -> bool {
        let sig = graph_scoped_sig(graph, dht_column_sig(params, d, engine));
        self.stores
            .as_ref()
            .is_some_and(|stores| stores.columns.contains(sig, target.0))
    }

    /// The truncated backward DHT column `h_d(·, target)` for every source,
    /// served from the column store when possible.
    pub fn backward_column(
        &mut self,
        graph: &Graph,
        params: &DhtParams,
        target: NodeId,
        d: usize,
        engine: WalkEngine,
    ) -> Arc<[f64]> {
        let sig = graph_scoped_sig(graph, dht_column_sig(params, d, engine));
        let columns = self.stores.as_ref().map(|stores| &stores.columns);
        if let Some(column) = columns.and_then(|columns| columns.get(sig, target.0)) {
            self.column_stats.hits += 1;
            self.trace.event(dht_obs::Phase::ColumnHit);
            return column;
        }
        self.column_stats.misses += 1;
        let started = self.trace.begin();
        let mut scratch = self.pool.acquire();
        let mut scores = Vec::new();
        backward_dht_into(graph, params, target, d, engine, &mut scratch, &mut scores);
        let column: Arc<[f64]> = scores.into();
        if let Some(columns) = columns {
            columns.insert(sig, target.0, column.clone());
        }
        self.trace.finish(started, dht_obs::Phase::ColumnBuild);
        column
    }

    /// Streams the backward DHT column of every target in `targets` (walk
    /// depth `d`) to `consume`, **in target order** — the shared backbone of
    /// B-BJ and both B-IDJ variants, now cache-aware.
    ///
    /// Cache misses are computed in parallel chunks on up to `threads`
    /// workers (bounding peak memory to one chunk of `|V_G|`-sized columns)
    /// with scratches drawn from the context's pool; hits are served
    /// without any walk.  Consumption always runs in target order on the
    /// calling thread, so callers observe exactly the serial sequence at
    /// every thread count and cache temperature.
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_backward_column(
        &mut self,
        graph: &Graph,
        params: &DhtParams,
        d: usize,
        engine: WalkEngine,
        threads: usize,
        targets: &[NodeId],
        consume: impl FnMut(NodeId, &[f64]),
    ) {
        let sig = dht_column_sig(params, d, engine);
        self.for_each_column_cached(
            graph,
            Some(sig),
            threads,
            targets,
            |scratch, target| {
                let mut scores = Vec::new();
                backward_dht_into(graph, params, target, d, engine, scratch, &mut scores);
                scores
            },
            consume,
        );
    }

    /// Generic cached column streaming: like
    /// [`QueryCtx::for_each_backward_column`] but with an arbitrary column
    /// producer and signature (the other measures' columns); a `None`
    /// signature computes every column fresh.
    ///
    /// `produce` must be a pure function of `(graph, sig, target)`; the
    /// scratch it receives is a pooled buffer it may use (or ignore)
    /// without affecting results.  The graph's [`Graph::uid`] is folded
    /// into the cache key, so contexts reused across graphs stay correct.
    pub fn for_each_column_cached(
        &mut self,
        graph: &Graph,
        sig: Option<u64>,
        threads: usize,
        targets: &[NodeId],
        produce: impl Fn(&mut WalkScratch, NodeId) -> Vec<f64> + Sync,
        mut consume: impl FnMut(NodeId, &[f64]),
    ) {
        let pool = &self.pool;
        let Some((sig, stores)) = sig.zip(caching(&self.stores)) else {
            // Uncached fast path: identical to the pre-session streamer.
            let started = self.trace.begin();
            dht_par::stream_map_ordered(
                threads,
                targets,
                || pool.acquire(),
                |scratch, &target| produce(scratch, target),
                |&target, column| consume(target, &column),
            );
            self.trace.finish(started, dht_obs::Phase::ColumnBuild);
            return;
        };
        let columns = &stores.columns;
        let sig = graph_scoped_sig(graph, sig);
        /// Chunk length per parallel round, in items per worker (matches
        /// `dht_par::stream_map_ordered`).
        const ITEMS_PER_WORKER_ROUND: usize = 4;
        let workers = dht_par::effective_threads(threads).max(1);
        let chunk_len = workers * ITEMS_PER_WORKER_ROUND;
        let mut slots: Vec<Option<Arc<[f64]>>> = Vec::with_capacity(chunk_len.min(targets.len()));
        for chunk in targets.chunks(chunk_len) {
            slots.clear();
            slots.extend(chunk.iter().map(|&t| columns.get(sig, t.0)));
            let missing: Vec<(usize, NodeId)> = slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.is_none())
                .map(|(i, _)| (i, chunk[i]))
                .collect();
            let hits = chunk.len() - missing.len();
            self.column_stats.hits += hits as u64;
            self.column_stats.misses += missing.len() as u64;
            for _ in 0..hits {
                self.trace.event(dht_obs::Phase::ColumnHit);
            }
            // A fully resident chunk takes no scratch and starts no build.
            if !missing.is_empty() {
                // One build span per parallel round (the workers share the
                // wall-clock; per-column timers across threads would not add
                // up to anything meaningful).
                let started = self.trace.begin();
                let computed = dht_par::parallel_map_init(
                    threads,
                    &missing,
                    || pool.acquire(),
                    |scratch, _, &(_, target)| -> Arc<[f64]> { produce(scratch, target).into() },
                );
                self.trace.finish(started, dht_obs::Phase::ColumnBuild);
                for (&(slot_index, target), column) in missing.iter().zip(computed) {
                    columns.insert(sig, target.0, column.clone());
                    slots[slot_index] = Some(column);
                }
            }
            for (slot, &target) in slots.iter().zip(chunk) {
                let column = slot.as_ref().expect("every slot filled by hit or compute");
                consume(target, column);
            }
        }
    }

    /// The `Y_l⁺(P, q)` bound table for source set `p` at depth `d`, built
    /// lazily and cached per `(params, d, engine, P)`.
    ///
    /// When caching is disabled the table is rebuilt on every call, exactly
    /// as the stateless B-IDJ-Y did.
    pub fn y_bound_table(
        &mut self,
        graph: &Graph,
        params: &DhtParams,
        p: &NodeSet,
        d: usize,
        engine: WalkEngine,
        threads: usize,
    ) -> Arc<YBoundTable> {
        let key = (
            graph_scoped_sig(graph, dht_column_sig(params, d, engine)),
            p.signature(),
        );
        let store = caching(&self.stores).map(|stores| &stores.y_tables);
        if let Some(table) = store.and_then(|store| store.get(key)) {
            self.y_hits += 1;
            self.trace.event(dht_obs::Phase::YHit);
            return table;
        }
        self.y_misses += 1;
        let span_started = self.trace.begin();
        // Built outside any lock: racing holders of one store may each
        // build the (bit-identical) table, but none blocks another.
        let mut scratch = self.pool.acquire();
        let table = Arc::new(YBoundTable::new_with(
            graph,
            params,
            p,
            d,
            engine,
            threads,
            &mut scratch,
        ));
        if let Some(store) = store {
            store.insert(key, table.clone());
        }
        self.trace.finish(span_started, dht_obs::Phase::YBuild);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::backward_dht_all_sources;
    use dht_graph::GraphBuilder;

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n as u32 {
            b.add_undirected_edge(NodeId(i), NodeId((i + 1) % n as u32), 1.0)
                .unwrap();
        }
        b.build().unwrap()
    }

    /// Byte budget that fits exactly `columns` cached columns of `len`
    /// scores each.
    fn budget_for(columns: usize, len: usize) -> usize {
        columns * column_bytes(len)
    }

    #[test]
    fn signatures_separate_params_depth_and_engine() {
        let a = DhtParams::paper_default();
        let b = DhtParams::dht_e();
        let sig = |p, d, e| dht_column_sig(p, d, e);
        assert_ne!(
            sig(&a, 8, WalkEngine::Sparse),
            sig(&b, 8, WalkEngine::Sparse)
        );
        assert_ne!(
            sig(&a, 8, WalkEngine::Sparse),
            sig(&a, 4, WalkEngine::Sparse)
        );
        assert_ne!(
            sig(&a, 8, WalkEngine::Sparse),
            sig(&a, 8, WalkEngine::Dense)
        );
        assert_eq!(sig(&a, 8, WalkEngine::Auto), sig(&a, 8, WalkEngine::Auto));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_column() {
        let mut cache = ColumnCache::with_byte_budget(budget_for(2, 1));
        let col = |x: f64| -> Arc<[f64]> { vec![x].into() };
        cache.insert(1, 10, col(1.0));
        cache.insert(1, 20, col(2.0));
        assert!(cache.get(1, 10).is_some()); // refresh 10: 20 becomes LRU
        cache.insert(1, 30, col(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, 20).is_none(), "20 was evicted");
        assert!(cache.get(1, 10).is_some());
        assert!(cache.get(1, 30).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn contains_probes_never_touch_lru_order_or_counters() {
        // Two entries in a two-entry budget; key 10 is the LRU.  Probing it
        // thousands of times must not refresh it: the next insert still
        // evicts 10, exactly as if no probe had happened.
        let mut cache = ColumnCache::with_byte_budget(budget_for(2, 1));
        let col = |x: f64| -> Arc<[f64]> { vec![x].into() };
        cache.insert(1, 10, col(1.0));
        cache.insert(1, 20, col(2.0));
        let stats_before = cache.stats();
        let queue_before = cache.order.len();
        for _ in 0..10_000 {
            assert!(cache.contains(1, 10));
            assert!(cache.contains(1, 20));
            assert!(!cache.contains(1, 30));
            assert!(!cache.contains(2, 10));
        }
        assert_eq!(cache.stats(), stats_before, "probes must not count");
        assert_eq!(
            cache.order.len(),
            queue_before,
            "probes must not touch the queue"
        );
        cache.insert(1, 30, col(3.0));
        assert!(!cache.contains(1, 10), "10 stayed LRU despite the probes");
        assert!(cache.contains(1, 20));
        assert!(cache.contains(1, 30));
        assert_eq!(cache.stats().evictions, 1);
        // A disabled cache reports nothing resident.
        let disabled = ColumnCache::with_byte_budget(0);
        assert!(!disabled.contains(1, 20));
    }

    #[test]
    fn shared_contains_probe_is_side_effect_free() {
        let cache = SharedColumnCache::with_shards(budget_for(2, 1), 1);
        cache.insert(1, 10, vec![1.0].into());
        cache.insert(1, 20, vec![2.0].into());
        let stats_before = cache.stats();
        for _ in 0..1_000 {
            assert!(cache.contains(1, 10));
            assert!(!cache.contains(1, 99));
        }
        assert_eq!(cache.stats(), stats_before);
        cache.insert(1, 30, vec![3.0].into());
        assert!(!cache.contains(1, 10), "probes must not refresh LRU order");
        assert!(cache.contains(1, 20));
        assert!(cache.contains(1, 30));
    }

    #[test]
    fn ctx_residency_probes_report_columns_and_y_tables() {
        let g = ring(12);
        let params = DhtParams::paper_default();
        let mut ctx = QueryCtx::with_byte_budget(1 << 20);
        assert!(!ctx.backward_column_resident(&g, &params, NodeId(3), 6, WalkEngine::Sparse));
        ctx.backward_column(&g, &params, NodeId(3), 6, WalkEngine::Sparse);
        let stats_before = ctx.column_stats();
        assert!(ctx.backward_column_resident(&g, &params, NodeId(3), 6, WalkEngine::Sparse));
        // Different depth / engine / target / graph → not resident.
        assert!(!ctx.backward_column_resident(&g, &params, NodeId(3), 5, WalkEngine::Sparse));
        assert!(!ctx.backward_column_resident(&g, &params, NodeId(3), 6, WalkEngine::Dense));
        assert!(!ctx.backward_column_resident(&g, &params, NodeId(4), 6, WalkEngine::Sparse));
        let other = ring(13);
        assert!(!ctx.backward_column_resident(&other, &params, NodeId(3), 6, WalkEngine::Sparse));
        assert_eq!(ctx.column_stats(), stats_before, "probes must not count");

        // Y tables are keyed by `P`: the same set hits the store, another
        // one builds a second table.
        let store = ctx.shared_y_store().expect("a caching context").clone();
        let p = NodeSet::new("P", [NodeId(0), NodeId(1)]);
        ctx.y_bound_table(&g, &params, &p, 6, WalkEngine::Sparse, 1);
        assert_eq!((store.len(), store.stats()), (1, (0, 1)));
        ctx.y_bound_table(&g, &params, &p, 6, WalkEngine::Sparse, 1);
        assert_eq!((store.len(), store.stats()), (1, (1, 1)));
        let p2 = NodeSet::new("P2", [NodeId(2)]);
        ctx.y_bound_table(&g, &params, &p2, 6, WalkEngine::Sparse, 1);
        assert_eq!((store.len(), store.stats()), (2, (1, 2)));

        // One-shot contexts hold no store: they never report residency
        // nor keep Y tables.
        let mut cold = QueryCtx::one_shot();
        assert!(cold.shared_cache().is_none() && cold.shared_y_store().is_none());
        assert!(!cold.backward_column_resident(&g, &params, NodeId(3), 6, WalkEngine::Sparse));
        cold.y_bound_table(&g, &params, &p, 6, WalkEngine::Sparse, 1);
        cold.y_bound_table(&g, &params, &p, 6, WalkEngine::Sparse, 1);
        assert_eq!(cold.y_table_stats(), (0, 2));
    }

    #[test]
    fn byte_accounting_tracks_inserts_replacements_and_evictions() {
        let budget = budget_for(4, 8);
        let mut cache = ColumnCache::with_byte_budget(budget);
        cache.insert(1, 1, vec![0.0; 8].into());
        assert_eq!(cache.bytes_used(), column_bytes(8));
        // Replacing a key swaps its accounted size instead of leaking it.
        cache.insert(1, 1, vec![0.0; 4].into());
        assert_eq!(cache.bytes_used(), column_bytes(4));
        assert_eq!(cache.len(), 1);
        // A big column displaces as many small ones as the budget demands.
        cache.insert(1, 2, vec![0.0; 8].into());
        cache.insert(1, 3, vec![0.0; 8].into());
        cache.insert(1, 4, vec![0.0; 16].into());
        assert!(cache.bytes_used() <= budget);
        assert!(cache.get(1, 4).is_some(), "newest entry survives");
    }

    #[test]
    fn dense_columns_cannot_blow_past_the_budget() {
        // Eight columns of 1000 floats into a budget that fits two.
        let budget = budget_for(2, 1000);
        let mut cache = ColumnCache::with_byte_budget(budget);
        for t in 0..8u32 {
            cache.insert(7, t, vec![f64::from(t); 1000].into());
            assert!(
                cache.bytes_used() <= budget,
                "budget violated after insert {t}: {} > {budget}",
                cache.bytes_used(),
            );
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn oversized_single_column_is_not_retained() {
        let mut cache = ColumnCache::with_byte_budget(column_bytes(4));
        cache.insert(1, 1, vec![0.0; 64].into());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let mut cache = ColumnCache::with_byte_budget(0);
        cache.insert(1, 1, vec![1.0].into());
        assert!(cache.get(1, 1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let mut cache = ColumnCache::with_byte_budget(budget_for(4, 1));
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(1, 1, vec![1.0].into());
        assert!(cache.get(1, 1).is_some());
        assert!(cache.get(1, 2).is_none());
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn queue_compaction_bounds_memory_under_repeated_hits() {
        let mut cache = ColumnCache::with_byte_budget(budget_for(2, 1));
        cache.insert(1, 1, vec![1.0].into());
        cache.insert(1, 2, vec![2.0].into());
        for _ in 0..10_000 {
            cache.get(1, 1);
            cache.get(1, 2);
        }
        assert!(
            cache.order.len() <= 2 * cache.slots.len().max(1) + 2,
            "stale queue entries must be compacted, got {}",
            cache.order.len()
        );
    }

    #[test]
    fn queue_compaction_survives_a_single_hot_key() {
        // Key 1 sits live at the queue front while key 2 is hit over and
        // over: compaction must still trim the stale entries behind it.
        let mut cache = ColumnCache::with_byte_budget(budget_for(2, 1));
        cache.insert(1, 1, vec![1.0].into());
        cache.insert(1, 2, vec![2.0].into());
        for _ in 0..10_000 {
            cache.get(1, 2);
        }
        assert!(
            cache.order.len() <= 2 * cache.slots.len().max(1) + 2,
            "a hot key must not shield stale queue entries, got {}",
            cache.order.len()
        );
    }

    #[test]
    fn eviction_order_matches_a_recency_list_under_mixed_traffic() {
        // Reference model: keys in recency order, least recent first.
        let capacity = 5;
        let mut cache = ColumnCache::with_byte_budget(budget_for(capacity, 1));
        let mut recency: Vec<u32> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for step in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = (state % 12) as u32;
            let held = recency.iter().position(|&k| k == key);
            // One operation in three inserts, the others look up.
            if (state >> 32).is_multiple_of(3) {
                cache.insert(9, key, vec![f64::from(key)].into());
                if let Some(at) = held {
                    recency.remove(at);
                } else if recency.len() == capacity {
                    recency.remove(0);
                }
                recency.push(key);
            } else {
                assert_eq!(cache.get(9, key).is_some(), held.is_some(), "step {step}");
                if let Some(at) = held {
                    recency.remove(at);
                    recency.push(key);
                }
            }
            for probe in 0..12 {
                assert_eq!(
                    cache.contains(9, probe),
                    recency.contains(&probe),
                    "step {step}, key {probe}"
                );
            }
        }
        assert!(cache.stats().evictions > 1_000);
    }

    #[test]
    fn shared_cache_serves_and_stripes_concurrent_sessions() {
        let cache = SharedColumnCache::with_shards(1 << 20, 8);
        assert!(cache.shard_count().is_power_of_two());
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for round in 0..32u32 {
                        let target = (worker * 32 + round) % 16;
                        let expected: Arc<[f64]> = vec![f64::from(target); 8].into();
                        match cache.get(9, target) {
                            Some(column) => assert_eq!(&column[..], &expected[..]),
                            None => cache.insert(9, target, expected),
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 16);
        assert!(cache.bytes_used() <= cache.byte_budget());
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 32);
    }

    #[test]
    fn for_columns_keeps_large_columns_cacheable() {
        // A budget worth 8 columns of a "large" graph: naive 16-way
        // striping would make every stripe too small to hold even one
        // column; for_columns must collapse stripes until they fit.
        let len = 50_000;
        let cache = SharedColumnCache::for_columns(8 * column_bytes(len), len);
        cache.insert(1, 1, vec![0.0; len].into());
        assert!(
            cache.get(1, 1).is_some(),
            "a column the total budget holds 8 of must be cacheable \
             (shards={})",
            cache.shard_count()
        );
        assert!(cache.shard_count() <= 4);
    }

    #[test]
    fn shared_cache_collapses_stripes_for_tiny_budgets() {
        let tiny = SharedColumnCache::new(2 * column_bytes(16));
        assert_eq!(tiny.shard_count(), 1, "tiny budgets must not be slivered");
        let disabled = SharedColumnCache::disabled();
        assert!(!disabled.is_enabled());
        disabled.insert(1, 1, vec![1.0].into());
        assert!(disabled.get(1, 1).is_none());
        assert!(disabled.is_empty());
    }

    #[test]
    fn shared_cache_evicts_within_its_stripes() {
        let cache = SharedColumnCache::with_shards(4 * column_bytes(64), 1);
        for t in 0..32u32 {
            cache.insert(3, t, vec![0.5; 64].into());
        }
        assert!(cache.bytes_used() <= cache.byte_budget());
        assert!(cache.len() <= 4);
        assert!(cache.stats().evictions >= 28);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn shared_contexts_warm_each_other() {
        let g = ring(16);
        let params = DhtParams::paper_default();
        let shared = Arc::new(SharedColumnCache::new(1 << 20));
        let y_tables = Arc::new(SharedYTableStore::new());
        let mut first = QueryCtx::shared(shared.clone(), y_tables.clone());
        let column = first.backward_column(&g, &params, NodeId(3), 8, WalkEngine::Sparse);
        // A different session over the same shared cache hits immediately.
        let mut second = QueryCtx::shared(shared.clone(), y_tables);
        let again = second.backward_column(&g, &params, NodeId(3), 8, WalkEngine::Sparse);
        assert!(Arc::ptr_eq(&column, &again), "second session must hit");
        assert_eq!(second.column_stats().hits, 1);
        assert_eq!(second.column_stats().misses, 0);
        assert_eq!(shared.stats().misses, 1);
        assert_eq!(shared.stats().hits, 1);
    }

    #[test]
    fn fork_shares_its_parents_stores() {
        let shared = Arc::new(SharedColumnCache::new(1 << 20));
        let ctx = QueryCtx::shared(shared.clone(), Arc::new(SharedYTableStore::new()));
        let fork = ctx.fork();
        assert!(Arc::ptr_eq(
            fork.shared_cache().expect("fork keeps the shared cache"),
            &shared
        ));
        // A private context's fork holds the same stores, so what the fork
        // computes the parent hits.
        let g = ring(12);
        let params = DhtParams::paper_default();
        let mut private = QueryCtx::with_byte_budget(1 << 20);
        let mut fork = private.fork();
        assert!(Arc::ptr_eq(
            fork.shared_cache().expect("fork of a caching context"),
            private.shared_cache().expect("a caching context")
        ));
        fork.backward_column(&g, &params, NodeId(5), 6, WalkEngine::Sparse);
        assert!(private.backward_column_resident(&g, &params, NodeId(5), 6, WalkEngine::Sparse));
        private.backward_column(&g, &params, NodeId(5), 6, WalkEngine::Sparse);
        assert_eq!(private.column_stats().hits, 1);
        // A one-shot context forks into another one.
        assert!(QueryCtx::one_shot().fork().shared_cache().is_none());
    }

    #[test]
    fn a_private_context_evicts_its_least_recently_used_column() {
        let g = ring(12);
        let params = DhtParams::paper_default();
        let resident = |ctx: &QueryCtx, t: u32| {
            ctx.backward_column_resident(&g, &params, NodeId(t), 6, WalkEngine::Sparse)
        };
        let mut ctx = QueryCtx::with_byte_budget(budget_for(2, 12));
        let (a, b, c) = (1u32, 4, 9);
        for t in [a, b, a, c] {
            ctx.backward_column(&g, &params, NodeId(t), 6, WalkEngine::Sparse);
        }
        assert!(resident(&ctx, a), "A was touched after B");
        assert!(!resident(&ctx, b), "B was the least recently used");
        assert!(resident(&ctx, c));
        assert_eq!(
            ctx.column_stats(),
            CacheStats {
                hits: 1,
                misses: 3,
                evictions: 0
            }
        );
    }

    #[test]
    fn cached_backward_columns_are_bit_identical_to_fresh_ones() {
        let g = ring(16);
        let params = DhtParams::paper_default();
        let mut ctx = QueryCtx::with_byte_budget(1 << 20);
        for &t in &[3u32, 7, 3, 7, 3] {
            let column = ctx.backward_column(&g, &params, NodeId(t), 8, WalkEngine::Sparse);
            let fresh = backward_dht_all_sources(&g, &params, NodeId(t), 8);
            assert_eq!(&column[..], &fresh[..], "target {t}");
        }
        let stats = ctx.column_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn streaming_with_and_without_cache_consumes_identical_sequences() {
        let g = ring(24);
        let params = DhtParams::paper_default();
        let targets: Vec<NodeId> = [0u32, 5, 11, 5, 0, 17, 11].map(NodeId).to_vec();
        let collect = |ctx: &mut QueryCtx, threads: usize| {
            let mut seen: Vec<(u32, Vec<f64>)> = Vec::new();
            ctx.for_each_backward_column(
                &g,
                &params,
                6,
                WalkEngine::Sparse,
                threads,
                &targets,
                |t, col| seen.push((t.0, col.to_vec())),
            );
            seen
        };
        let reference = collect(&mut QueryCtx::one_shot(), 1);
        let pressured: &[fn() -> QueryCtx] = &[
            // Private cache sized for ~3 columns of 24 floats: forces
            // eviction, parity must hold anyway.
            || QueryCtx::with_byte_budget(3 * column_bytes(24)),
            || {
                QueryCtx::shared(
                    Arc::new(SharedColumnCache::new(3 * column_bytes(24))),
                    Arc::new(SharedYTableStore::new()),
                )
            },
        ];
        for make in pressured {
            for threads in [1usize, 4] {
                let mut warm = make();
                let first = collect(&mut warm, threads);
                let second = collect(&mut warm, threads);
                assert_eq!(first, reference, "threads={threads} cold pass");
                assert_eq!(second, reference, "threads={threads} warm pass");
                assert!(warm.column_stats().hits > 0, "repeats must hit");
            }
        }
    }

    #[test]
    fn contexts_reused_across_graphs_never_cross_serve_columns() {
        // Same parameters, same target id, two different graphs: the cache
        // key folds in Graph::uid, so the second graph must get its own
        // column, not the first one's.
        let g1 = ring(8);
        let g2 = {
            let mut b = GraphBuilder::with_nodes(8);
            b.add_unit_edge(NodeId(0), NodeId(3)).unwrap();
            b.add_unit_edge(NodeId(1), NodeId(3)).unwrap();
            b.build().unwrap()
        };
        let params = DhtParams::paper_default();
        let mut ctx = QueryCtx::with_byte_budget(1 << 20);
        for graph in [&g1, &g2, &g1, &g2] {
            let column = ctx.backward_column(graph, &params, NodeId(3), 6, WalkEngine::Sparse);
            let fresh = backward_dht_all_sources(graph, &params, NodeId(3), 6);
            assert_eq!(&column[..], &fresh[..], "graph uid {}", graph.uid());
        }
        // A clone shares contents, so it may (correctly) share cache entries.
        let clone = g1.clone();
        assert_eq!(clone.uid(), g1.uid());
        let hits_before = ctx.column_stats().hits;
        ctx.backward_column(&clone, &params, NodeId(3), 6, WalkEngine::Sparse);
        assert_eq!(ctx.column_stats().hits, hits_before + 1);
    }

    #[test]
    fn y_table_cache_is_bounded() {
        let g = ring(10);
        let params = DhtParams::paper_default();
        let mut ctx = QueryCtx::with_byte_budget(1 << 20);
        // One more distinct P set than the capacity: the oldest entry must
        // be evicted, not accumulated.
        for i in 0..=DEFAULT_Y_TABLE_CAPACITY as u32 {
            let p = NodeSet::new("P", [NodeId(i % 10), NodeId(i / 10 + 2)]);
            ctx.y_bound_table(&g, &params, &p, 4, WalkEngine::Sparse, 1);
        }
        let store = ctx.shared_y_store().expect("a caching context");
        assert_eq!(store.len(), DEFAULT_Y_TABLE_CAPACITY);
        // The first (least recently used) set was evicted: asking for it
        // again misses and rebuilds.
        let first = NodeSet::new("P", [NodeId(0), NodeId(2)]);
        let (_, misses_before) = ctx.y_table_stats();
        ctx.y_bound_table(&g, &params, &first, 4, WalkEngine::Sparse, 1);
        assert_eq!(ctx.y_table_stats().1, misses_before + 1);
    }

    #[test]
    fn shared_y_store_serves_concurrent_sessions_and_bounds_capacity() {
        let g = ring(12);
        let params = DhtParams::paper_default();
        let store = Arc::new(SharedYTableStore::with_capacity(2));
        // Two sessions sharing the store: the second hits what the first
        // built, and the tables agree with a private rebuild bit-for-bit.
        let columns = Arc::new(SharedColumnCache::new(1 << 20));
        let mut first = QueryCtx::shared(columns.clone(), store.clone());
        let mut second = QueryCtx::shared(columns, store.clone());
        let p = NodeSet::new("P", [NodeId(0), NodeId(1)]);
        let a = first.y_bound_table(&g, &params, &p, 5, WalkEngine::Sparse, 1);
        let b = second.y_bound_table(&g, &params, &p, 5, WalkEngine::Sparse, 1);
        assert!(Arc::ptr_eq(&a, &b), "second session must hit the store");
        assert_eq!(first.y_table_stats(), (0, 1));
        assert_eq!(second.y_table_stats(), (1, 0));
        assert_eq!((store.len(), store.stats()), (1, (1, 1)));

        // Capacity 2: a third distinct P evicts the least recently touched.
        let p2 = NodeSet::new("P2", [NodeId(4)]);
        let p3 = NodeSet::new("P3", [NodeId(7)]);
        first.y_bound_table(&g, &params, &p2, 5, WalkEngine::Sparse, 1);
        // Touch p (now p2 is LRU), then insert p3.
        first.y_bound_table(&g, &params, &p, 5, WalkEngine::Sparse, 1);
        first.y_bound_table(&g, &params, &p3, 5, WalkEngine::Sparse, 1);
        assert_eq!((store.len(), store.stats()), (2, (2, 3)));
        // The other session hits p and p3, and misses the evicted p2.
        second.y_bound_table(&g, &params, &p, 5, WalkEngine::Sparse, 1);
        second.y_bound_table(&g, &params, &p3, 5, WalkEngine::Sparse, 1);
        assert_eq!(store.stats(), (4, 3));
        second.y_bound_table(&g, &params, &p2, 5, WalkEngine::Sparse, 1);
        assert_eq!((store.len(), store.stats()), (2, (4, 4)));

        // clear() through any sharing context clears the store.
        first.clear();
        assert!(store.is_empty());
        second.y_bound_table(&g, &params, &p, 5, WalkEngine::Sparse, 1);
        assert_eq!((store.len(), store.stats()), (1, (4, 5)));
    }

    #[test]
    fn shared_y_store_survives_concurrent_hammering_under_capacity_one() {
        // Many threads race get/build/insert/evict on a capacity-1 store;
        // every returned table must equal the private rebuild bit-for-bit.
        let g = ring(10);
        let params = DhtParams::paper_default();
        let store = Arc::new(SharedYTableStore::with_capacity(1));
        let references: Vec<Arc<YBoundTable>> = (0..3u32)
            .map(|i| {
                QueryCtx::one_shot().y_bound_table(
                    &g,
                    &params,
                    &NodeSet::new("P", [NodeId(i), NodeId(i + 3)]),
                    4,
                    WalkEngine::Sparse,
                    1,
                )
            })
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let store = store.clone();
                let g = &g;
                let params = &params;
                let references = &references;
                scope.spawn(move || {
                    let columns = Arc::new(SharedColumnCache::new(1 << 20));
                    let mut ctx = QueryCtx::shared(columns, store);
                    for round in 0..12u32 {
                        let i = (worker + round) % 3;
                        let p = NodeSet::new("P", [NodeId(i), NodeId(i + 3)]);
                        let table = ctx.y_bound_table(g, params, &p, 4, WalkEngine::Sparse, 1);
                        let reference = &references[i as usize];
                        for q in g.nodes() {
                            for l in 0..=4 {
                                assert!(
                                    table.bound(l, q) == reference.bound(l, q),
                                    "worker {worker} round {round} diverged"
                                );
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(store.len(), 1, "capacity must hold under races");
    }

    #[test]
    fn forked_contexts_share_the_y_store() {
        let shared = Arc::new(SharedColumnCache::new(1 << 20));
        let store = Arc::new(SharedYTableStore::new());
        let ctx = QueryCtx::shared(shared, store.clone());
        let fork = ctx.fork();
        assert!(Arc::ptr_eq(
            fork.shared_y_store().expect("fork keeps the y store"),
            &store
        ));
        // A private context's fork shares its Y store too: a table the
        // fork builds, the parent hits.
        let g = ring(10);
        let params = DhtParams::paper_default();
        let p = NodeSet::new("P", [NodeId(0), NodeId(3)]);
        let mut private = QueryCtx::with_byte_budget(1 << 20);
        let built = private
            .fork()
            .y_bound_table(&g, &params, &p, 4, WalkEngine::Sparse, 1);
        let hit = private.y_bound_table(&g, &params, &p, 4, WalkEngine::Sparse, 1);
        assert!(Arc::ptr_eq(&built, &hit));
        assert_eq!(private.y_table_stats(), (1, 0));
    }

    #[test]
    fn y_tables_are_cached_per_source_set() {
        let g = ring(12);
        let params = DhtParams::paper_default();
        let p1 = NodeSet::new("P1", [NodeId(0), NodeId(1)]);
        let p2 = NodeSet::new("P2", [NodeId(4), NodeId(5)]);
        let mut ctx = QueryCtx::with_byte_budget(1 << 20);
        let a = ctx.y_bound_table(&g, &params, &p1, 6, WalkEngine::Sparse, 1);
        let b = ctx.y_bound_table(&g, &params, &p1, 6, WalkEngine::Sparse, 1);
        assert!(Arc::ptr_eq(&a, &b), "same key must share the table");
        let c = ctx.y_bound_table(&g, &params, &p2, 6, WalkEngine::Sparse, 1);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(ctx.y_table_stats(), (1, 2));
        // one-shot contexts rebuild every time
        let mut cold = QueryCtx::one_shot();
        let d = cold.y_bound_table(&g, &params, &p1, 6, WalkEngine::Sparse, 1);
        let e = cold.y_bound_table(&g, &params, &p1, 6, WalkEngine::Sparse, 1);
        assert!(!Arc::ptr_eq(&d, &e));
        for q in g.nodes() {
            for l in 0..=6 {
                assert_eq!(a.bound(l, q), d.bound(l, q));
            }
        }
    }
}
