//! The sparse-frontier propagation kernel and its reusable scratch buffers.
//!
//! Every walk engine in this crate advances a probability vector one step at
//! a time.  The seed implementation swept all `|V_G|` entries per step and
//! allocated two fresh vectors per walk; this module replaces that with:
//!
//! * [`WalkScratch`] — a reusable buffer set (probability vectors, frontier
//!   lists, membership flags).  One scratch serves an unbounded number of
//!   consecutive walks with **zero** per-walk allocation, and cleanup after
//!   a sparse walk touches only the entries the walk actually reached.
//! * a **sparse-frontier step**: only nodes currently holding probability
//!   mass (the *frontier*) push their mass along their edges.  The d-step
//!   neighbourhood of a single source is usually tiny relative to `|V_G|`,
//!   so early steps cost `O(Σ_{u ∈ frontier} deg(u))` instead of
//!   `O(|V_G| + |E_G|)`.
//! * a **push/pull (sparse/dense) switch** in the spirit of
//!   direction-optimizing BFS (Beamer et al.): when the frontier's degree
//!   sum approaches the cost of a dense sweep, the kernel switches to the
//!   seed's dense step for the remainder of the walk.  The switch is
//!   one-way per walk — rebuilding a frontier from a dense vector would
//!   cost a full sweep.
//! * [`ScratchPool`] — a lock-guarded pool handing out scratches to worker
//!   threads, so parallel joins reuse buffers instead of allocating per
//!   task.
//!
//! Sparse and dense steps accumulate floating-point sums in different
//! orders, so their results may differ by rounding (≤ 1e-12 relative in
//! practice; the parity proptests pin this).  Results of a given engine are
//! fully deterministic: a walk is advanced by exactly one caller, so the
//! frontier is discovered in an input-determined order — no sorting and no
//! scheduling dependence.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use dht_graph::csr::Csr;
use dht_graph::{Graph, NodeId};

/// Which propagation kernel a walk uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WalkEngine {
    /// Always run the seed's dense `O(|V| + |E|)` sweep — the reference
    /// engine, bit-identical to the original implementation.
    Dense,
    /// Track the active node set and push only from the frontier, switching
    /// to dense sweeps once the frontier saturates (fixed switch threshold
    /// [`SPARSE_WORK_FACTOR`]).
    Sparse,
    /// Like [`WalkEngine::Sparse`], but with a **per-graph calibrated**
    /// switch threshold (see [`calibrated_switch_factor`]): on small dense
    /// graphs, where a frontier grows by the average degree per step, the
    /// switch anticipates one step of growth and goes dense earlier —
    /// skipping the expensive final sparse steps that made the sparse path
    /// merely tie dense on such graphs.  On sparse graphs (average degree
    /// near the fixed factor) it behaves exactly like `Sparse`.  The
    /// recommended default.
    #[default]
    Auto,
}

impl WalkEngine {
    /// Parses the CLI spelling of an engine name.
    pub fn parse(name: &str) -> Option<WalkEngine> {
        match name.to_ascii_lowercase().as_str() {
            "dense" => Some(WalkEngine::Dense),
            "sparse" => Some(WalkEngine::Sparse),
            "auto" => Some(WalkEngine::Auto),
            _ => None,
        }
    }

    /// The engine's CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            WalkEngine::Dense => "dense",
            WalkEngine::Sparse => "sparse",
            WalkEngine::Auto => "auto",
        }
    }

    #[inline]
    fn forces_dense(self) -> bool {
        matches!(self, WalkEngine::Dense)
    }
}

/// What a backward step multiplies the mass crossing an edge `u -> v` by.
/// Chosen once per step, outside the kernel's inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeValues {
    /// Transition probabilities `p_uv`: after `i` steps a node holds the
    /// probability of an `i`-step walk (DHT, PPR, hitting time, Katz).
    Probabilities,
    /// Raw edge weights `w_uv`: after `i` steps a node holds the total
    /// weight of its `i`-step walks (weighted Katz, PathSim).
    Weights,
}

impl EdgeValues {
    /// The per-edge values of `csr`, parallel to its targets.
    fn of(self, csr: &Csr) -> &[f64] {
        match self {
            EdgeValues::Probabilities => csr.raw_probs(),
            EdgeValues::Weights => csr.raw_weights(),
        }
    }
}

/// Sentinel for forward steps without an absorbing target (no node id ever
/// reaches `usize::MAX`).
const NO_ABSORB: usize = usize::MAX;

/// A sparse step is taken while its estimated work (frontier degree sum plus
/// frontier bookkeeping) times this factor stays below the dense sweep cost
/// `|V| + |E|`.  The factor accounts for the sparse step's constant-factor
/// overhead (membership flags, frontier maintenance).
pub const SPARSE_WORK_FACTOR: usize = 3;

/// Number of node degrees sampled by [`calibrated_switch_factor`].
const CALIBRATION_SAMPLES: usize = 64;

/// The per-graph switch threshold of [`WalkEngine::Auto`]: the fixed
/// [`SPARSE_WORK_FACTOR`] raised to the graph's sampled average out-degree.
///
/// A frontier grows by roughly the average degree `ḡ` per step, so on dense
/// graphs the step *after* the one that trips the fixed threshold costs
/// about `ḡ` times more — and that final, most expensive sparse step is
/// exactly what made the sparse path tie (rather than beat) the dense sweep
/// on small dense graphs.  Scaling the threshold by `ḡ` makes the switch
/// fire one step earlier there, while graphs with `ḡ ≤` the fixed factor
/// (long paths, large sparse networks) keep the `Sparse` behaviour
/// unchanged.
///
/// Degrees are sampled at a fixed stride over at most
/// `CALIBRATION_SAMPLES` nodes, so calibration is `O(1)`-ish per walk and
/// fully deterministic.
pub fn calibrated_switch_factor(graph: &Graph) -> usize {
    let n = graph.node_count();
    if n == 0 {
        return SPARSE_WORK_FACTOR;
    }
    let samples = n.min(CALIBRATION_SAMPLES);
    let stride = (n / samples).max(1);
    let mut degree_sum = 0usize;
    let mut counted = 0usize;
    let mut u = 0usize;
    while counted < samples && u < n {
        degree_sum += graph.out_degree(NodeId(u as u32));
        counted += 1;
        u += stride;
    }
    let avg = (degree_sum as f64 / counted.max(1) as f64).round() as usize;
    SPARSE_WORK_FACTOR.max(avg)
}

/// Reusable buffers for one walk at a time.
///
/// A scratch may be reused for any number of consecutive walks (of either
/// direction, on graphs of any size); [`WalkScratch::begin`] re-initialises
/// it in time proportional to what the *previous* walk touched, not
/// `O(|V|)`.
#[derive(Debug, Clone, Default)]
pub struct WalkScratch {
    /// Probability mass after the last completed step (dense indexing).
    current: Vec<f64>,
    /// Accumulation buffer for the next step; all-zero between steps while
    /// sparse (the sparse step restores the invariant on swap).
    next: Vec<f64>,
    /// Ids of nodes with (potentially) non-zero `current` mass, in
    /// activation order (a pure function of the walk's input, hence
    /// deterministic).  Meaningless once `dense_mode` is set.
    frontier: Vec<u32>,
    /// Scratch list the next frontier is collected into.
    spare: Vec<u32>,
    /// Membership flags used to deduplicate `spare`; all-false between
    /// steps.
    active: Vec<bool>,
    /// Set once a dense step has run for the current walk; cleared by
    /// [`WalkScratch::begin`].
    dense_mode: bool,
    /// Per-walk memo of [`calibrated_switch_factor`] for [`WalkEngine::Auto`]
    /// (`0` = not computed yet for this walk); cleared by
    /// [`WalkScratch::begin`].
    auto_factor: usize,
}

impl WalkScratch {
    /// A fresh scratch with no buffers allocated yet.
    pub fn new() -> Self {
        WalkScratch::default()
    }

    /// Starts a new walk over `n` nodes seeded with unit mass on `seeds`.
    ///
    /// Cleans up whatever the previous walk left behind, reusing the
    /// allocations.
    pub fn begin(&mut self, n: usize, seeds: impl IntoIterator<Item = NodeId>) {
        if self.dense_mode {
            self.current.iter_mut().for_each(|x| *x = 0.0);
            self.next.iter_mut().for_each(|x| *x = 0.0);
        } else {
            for &u in &self.frontier {
                if let Some(slot) = self.current.get_mut(u as usize) {
                    *slot = 0.0;
                }
            }
        }
        self.frontier.clear();
        self.dense_mode = false;
        self.auto_factor = 0;
        self.current.resize(n, 0.0);
        self.next.resize(n, 0.0);
        self.active.resize(n, false);
        for seed in seeds {
            if seed.index() < n && self.current[seed.index()] == 0.0 {
                self.current[seed.index()] = 1.0;
                self.frontier.push(seed.0);
            }
        }
    }

    /// Probability mass per node after the last completed step.
    #[inline]
    pub fn current(&self) -> &[f64] {
        &self.current
    }

    /// Whether the walk provably has no mass left to propagate (the frontier
    /// emptied).  Conservative: always `false` once in dense mode.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        !self.dense_mode && self.frontier.is_empty()
    }

    /// Whether the walk has switched to dense sweeps.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.dense_mode
    }

    /// Calls `f(node, mass)` for every node with non-zero mass.
    pub fn for_each_nonzero(&self, mut f: impl FnMut(usize, f64)) {
        if self.dense_mode {
            for (u, &mass) in self.current.iter().enumerate() {
                if mass != 0.0 {
                    f(u, mass);
                }
            }
        } else {
            for &u in &self.frontier {
                let mass = self.current[u as usize];
                if mass != 0.0 {
                    f(u as usize, mass);
                }
            }
        }
    }

    /// One step of a forward **absorbing** walk towards `target`: mass
    /// reaching the target is returned (the step's first-hit probability)
    /// instead of being propagated further.
    pub fn step_forward_absorbing(
        &mut self,
        graph: &Graph,
        target: NodeId,
        engine: WalkEngine,
    ) -> f64 {
        let t = target.index();
        if self.decide_dense(graph, engine, Direction::Forward) {
            return self.dense_forward(graph, t);
        }
        self.sparse_forward(graph, t)
    }

    /// One step of a plain (non-absorbing) forward walk: after `i` steps,
    /// `current[v]` holds the probability that the walker is at `v`.
    pub fn step_forward(&mut self, graph: &Graph, engine: WalkEngine) {
        if self.decide_dense(graph, engine, Direction::Forward) {
            self.dense_forward(graph, NO_ABSORB);
        } else {
            self.sparse_forward(graph, NO_ABSORB);
        }
    }

    /// One step of the backward first-hit recurrence towards `target`
    /// (`backWalk`): after the call `current[u] = P_i(u, target)`.  When
    /// `exclude_target` is set (every step but the first), mass sitting on
    /// the target is not propagated — that is what makes the probabilities
    /// *first*-hit ones.  `values` picks what each edge multiplies the mass
    /// by.
    pub fn step_backward(
        &mut self,
        graph: &Graph,
        target: NodeId,
        exclude_target: bool,
        values: EdgeValues,
        engine: WalkEngine,
    ) {
        // A sentinel no node id reaches stands for "nothing excluded".
        let excluded = if exclude_target {
            target.index()
        } else {
            usize::MAX
        };
        if self.decide_dense(graph, engine, Direction::Backward) {
            self.dense_backward(graph.forward_csr(), excluded, values);
        } else {
            self.sparse_backward(graph.reverse_csr(), excluded, values);
        }
    }

    fn decide_dense(&mut self, graph: &Graph, engine: WalkEngine, direction: Direction) -> bool {
        if engine.forces_dense() || self.dense_mode {
            self.dense_mode = true;
            return true;
        }
        let degree_sum = match direction {
            Direction::Forward => graph.frontier_out_degree_sum(&self.frontier),
            Direction::Backward => graph.frontier_in_degree_sum(&self.frontier),
        };
        let factor = if matches!(engine, WalkEngine::Auto) {
            if self.auto_factor == 0 {
                self.auto_factor = calibrated_switch_factor(graph);
            }
            self.auto_factor
        } else {
            SPARSE_WORK_FACTOR
        };
        let sparse_work = degree_sum + self.frontier.len();
        let dense_work = graph.node_count() + graph.edge_count();
        if sparse_work * factor >= dense_work {
            self.dense_mode = true;
            return true;
        }
        false
    }

    /// Dense forward sweep, bit-identical to the seed implementation.
    /// `absorb` carries the target index for absorbing walks ([`NO_ABSORB`]
    /// for plain reach sweeps) and the absorbed mass is returned.
    fn dense_forward(&mut self, graph: &Graph, absorb: usize) -> f64 {
        let n = graph.node_count();
        // Flat CSR iteration: one offsets lookup per node instead of a
        // per-node accessor call, with targets/probs read as fused slices
        // of the same `lo..hi` range.  The scatter order over `u` and over
        // each adjacency list is exactly the seed's, so every f64 is
        // produced by the same sequence of operations — bit-identical.
        let (offsets, targets, probs) = graph.forward_flat();
        self.next.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..n {
            let mass = self.current[u];
            if mass == 0.0 || u == absorb {
                continue;
            }
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            for (&v, &p) in targets[lo..hi].iter().zip(probs[lo..hi].iter()) {
                self.next[v as usize] += mass * p;
            }
        }
        let mut hit = 0.0;
        if absorb < n {
            hit = self.next[absorb];
            self.next[absorb] = 0.0;
        }
        std::mem::swap(&mut self.current, &mut self.next);
        hit
    }

    fn sparse_forward(&mut self, graph: &Graph, absorb: usize) -> f64 {
        let mut hit = 0.0;
        let frontier = std::mem::take(&mut self.frontier);
        self.spare.clear();
        for &u in &frontier {
            let ui = u as usize;
            let mass = self.current[ui];
            if mass == 0.0 || ui == absorb {
                continue;
            }
            let (targets, probs) = graph.out_targets_probs(NodeId(u));
            for (&v, &p) in targets.iter().zip(probs.iter()) {
                let vi = v as usize;
                if vi == absorb {
                    hit += mass * p;
                    continue;
                }
                if !self.active[vi] {
                    self.active[vi] = true;
                    self.spare.push(v);
                }
                self.next[vi] += mass * p;
            }
        }
        self.finish_sparse_step(frontier);
        hit
    }

    fn dense_backward(&mut self, csr: &Csr, excluded: usize, values: EdgeValues) {
        // Flat pull sweep over the forward CSR with branchless target
        // exclusion: the per-edge compare against `excluded` folds into a
        // 0.0/1.0 multiplier instead of a branch.  Bit-identity with the
        // seed's `continue` is guaranteed because every contribution
        // `p * current[v]` is >= +0.0 (probabilities, weights and masses are
        // non-negative): the masked term adds literal +0.0 to an
        // accumulator that is never -0.0, which cannot change its bits.
        let (offsets, targets, probs) = (csr.raw_offsets(), csr.raw_targets(), values.of(csr));
        for u in 0..csr.node_count() {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            let mut acc = 0.0;
            for (&v, &p) in targets[lo..hi].iter().zip(probs[lo..hi].iter()) {
                let keep = (v as usize != excluded) as u64 as f64;
                acc += keep * p * self.current[v as usize];
            }
            self.next[u] = acc;
        }
        std::mem::swap(&mut self.current, &mut self.next);
    }

    fn sparse_backward(&mut self, csr: &Csr, excluded: usize, values: EdgeValues) {
        let (offsets, sources, probs) = (csr.raw_offsets(), csr.raw_targets(), values.of(csr));
        let frontier = std::mem::take(&mut self.frontier);
        self.spare.clear();
        for &v in &frontier {
            let vi = v as usize;
            if vi == excluded {
                continue;
            }
            let mass = self.current[vi];
            if mass == 0.0 {
                continue;
            }
            let (lo, hi) = (offsets[vi] as usize, offsets[vi + 1] as usize);
            for (&u, &p) in sources[lo..hi].iter().zip(probs[lo..hi].iter()) {
                let ui = u as usize;
                if !self.active[ui] {
                    self.active[ui] = true;
                    self.spare.push(u);
                }
                self.next[ui] += p * mass;
            }
        }
        self.finish_sparse_step(frontier);
    }

    /// Restores the scratch invariants after a sparse accumulation into
    /// `next` / `spare`: zero the old mass, clear the flags and swap the
    /// buffers.  The new frontier keeps its activation order — which is a
    /// pure function of the walk's input, so results stay deterministic —
    /// rather than paying an `O(f log f)` sort per step.
    fn finish_sparse_step(&mut self, old_frontier: Vec<u32>) {
        for &u in &old_frontier {
            self.current[u as usize] = 0.0;
        }
        for &v in &self.spare {
            self.active[v as usize] = false;
        }
        std::mem::swap(&mut self.current, &mut self.next);
        self.frontier = old_frontier;
        std::mem::swap(&mut self.frontier, &mut self.spare);
    }
}

enum Direction {
    Forward,
    Backward,
}

/// A lock-guarded pool of [`WalkScratch`] buffers shared by worker threads.
///
/// Acquiring returns a guard that dereferences to the scratch and returns it
/// to the pool on drop, so a join that processes thousands of walk tasks
/// allocates at most one scratch per worker thread.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<WalkScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Takes a scratch from the pool, or creates one if none is free.
    pub fn acquire(&self) -> ScratchGuard<'_> {
        let scratch = self
            .free
            .lock()
            .expect("scratch pool lock poisoned")
            .pop()
            .unwrap_or_default();
        ScratchGuard {
            scratch: Some(scratch),
            pool: self,
        }
    }

    /// Number of scratches currently parked in the pool.
    pub fn idle_count(&self) -> usize {
        self.free.lock().expect("scratch pool lock poisoned").len()
    }
}

/// RAII guard for a pooled [`WalkScratch`]; see [`ScratchPool::acquire`].
#[derive(Debug)]
pub struct ScratchGuard<'p> {
    scratch: Option<WalkScratch>,
    pool: &'p ScratchPool,
}

impl Deref for ScratchGuard<'_> {
    type Target = WalkScratch;
    fn deref(&self) -> &WalkScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut WalkScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool
                .free
                .lock()
                .expect("scratch pool lock poisoned")
                .push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::with_nodes(3);
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 2)] {
            b.add_undirected_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    /// Long path so the frontier never saturates: the sparse engine must
    /// stay sparse and still agree with dense.
    fn long_path(n: usize) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..(n - 1) as u32 {
            b.add_unit_edge(NodeId(i), NodeId(i + 1)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sparse_and_dense_forward_absorbing_agree() {
        let g = triangle();
        for engine in [WalkEngine::Sparse, WalkEngine::Auto] {
            let mut sparse = WalkScratch::new();
            let mut dense = WalkScratch::new();
            sparse.begin(3, [NodeId(0)]);
            dense.begin(3, [NodeId(0)]);
            for step in 0..6 {
                let hs = sparse.step_forward_absorbing(&g, NodeId(1), engine);
                let hd = dense.step_forward_absorbing(&g, NodeId(1), WalkEngine::Dense);
                assert!((hs - hd).abs() < 1e-12, "step {step}: {hs} vs {hd}");
            }
        }
    }

    #[test]
    fn sparse_stays_sparse_on_a_long_path() {
        let g = long_path(1000);
        let mut scratch = WalkScratch::new();
        scratch.begin(1000, [NodeId(0)]);
        for _ in 0..10 {
            scratch.step_forward(&g, WalkEngine::Sparse);
        }
        assert!(
            !scratch.is_dense(),
            "frontier of size 1 must never trigger the dense switch"
        );
        // all mass sits exactly 10 hops down the path
        assert!((scratch.current()[10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_frontier_switches_to_dense() {
        let g = triangle();
        let mut scratch = WalkScratch::new();
        scratch.begin(3, [NodeId(0)]);
        // On a 3-node triangle any frontier saturates immediately.
        scratch.step_forward(&g, WalkEngine::Sparse);
        assert!(scratch.is_dense());
    }

    #[test]
    fn exhausted_walks_report_it() {
        // 0 -> 1, and node 1 is absorbing target: after one step no mass is left.
        let mut b = GraphBuilder::with_nodes(8);
        b.add_unit_edge(NodeId(0), NodeId(1)).unwrap();
        let g = b.build().unwrap();
        let mut scratch = WalkScratch::new();
        scratch.begin(8, [NodeId(0)]);
        let hit = scratch.step_forward_absorbing(&g, NodeId(1), WalkEngine::Sparse);
        assert!((hit - 1.0).abs() < 1e-12);
        assert!(scratch.is_exhausted());
    }

    #[test]
    fn backward_sparse_matches_backward_dense() {
        let mut b = GraphBuilder::with_nodes(40);
        for u in 0..39u32 {
            b.add_undirected_edge(NodeId(u), NodeId(u + 1), 1.0 + f64::from(u % 3))
                .unwrap();
        }
        let g = b.build().unwrap();
        for values in [EdgeValues::Probabilities, EdgeValues::Weights] {
            let mut sparse = WalkScratch::new();
            let mut dense = WalkScratch::new();
            sparse.begin(40, [NodeId(20)]);
            dense.begin(40, [NodeId(20)]);
            for step in 0..5 {
                let exclude = step >= 1;
                sparse.step_backward(&g, NodeId(20), exclude, values, WalkEngine::Sparse);
                dense.step_backward(&g, NodeId(20), exclude, values, WalkEngine::Dense);
                assert!(
                    !sparse.is_dense(),
                    "{values:?}: a path frontier stays sparse"
                );
                for u in 0..40 {
                    assert!(
                        (sparse.current()[u] - dense.current()[u]).abs() < 1e-12,
                        "{values:?} step {step} node {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_leaves_no_residue() {
        let g = long_path(50);
        let mut scratch = WalkScratch::new();
        // First walk deposits mass along the path.
        scratch.begin(50, [NodeId(0)]);
        for _ in 0..5 {
            scratch.step_forward(&g, WalkEngine::Sparse);
        }
        // Re-begin with a different seed: everything else must read zero.
        scratch.begin(50, [NodeId(30)]);
        let mut nonzero = Vec::new();
        scratch.for_each_nonzero(|u, _| nonzero.push(u));
        assert_eq!(nonzero, vec![30]);
        assert_eq!(scratch.current().iter().filter(|&&x| x != 0.0).count(), 1);
    }

    #[test]
    fn scratch_reuse_after_dense_walk_is_clean() {
        let g = triangle();
        let mut scratch = WalkScratch::new();
        scratch.begin(3, [NodeId(0)]);
        for _ in 0..4 {
            scratch.step_forward(&g, WalkEngine::Dense);
        }
        assert!(scratch.is_dense());
        scratch.begin(3, [NodeId(2)]);
        assert!(!scratch.is_dense());
        assert_eq!(scratch.current(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn scratch_resizes_between_graphs() {
        let small = triangle();
        let big = long_path(100);
        let mut scratch = WalkScratch::new();
        scratch.begin(3, [NodeId(0)]);
        scratch.step_forward(&small, WalkEngine::Sparse);
        scratch.begin(100, [NodeId(0)]);
        scratch.step_forward(&big, WalkEngine::Sparse);
        assert!((scratch.current()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pool_hands_out_and_reclaims_scratches() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle_count(), 0);
        {
            let mut a = pool.acquire();
            let _b = pool.acquire();
            a.begin(4, [NodeId(1)]);
            assert_eq!(pool.idle_count(), 0);
        }
        assert_eq!(pool.idle_count(), 2);
        // Reacquired scratch keeps its allocation but is re-initialised.
        let mut c = pool.acquire();
        c.begin(4, [NodeId(2)]);
        assert_eq!(c.current(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(pool.idle_count(), 1);
    }

    /// A deterministic moderately dense directed graph: every node gets one
    /// out-edge per offset, so the sampled average out-degree equals
    /// `offsets.len()`.
    fn strided_graph(n: usize, offsets: &[usize]) -> Graph {
        let mut b = GraphBuilder::with_nodes(n);
        for u in 0..n {
            for &off in offsets {
                let v = (u + off) % n;
                if v != u {
                    b.add_unit_edge(NodeId(u as u32), NodeId(v as u32)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn calibrated_factor_tracks_the_sampled_average_degree() {
        let dense = strided_graph(200, &[1, 3, 7, 19, 53, 101, 137, 171]);
        assert_eq!(calibrated_switch_factor(&dense), 8);
        // Sparse graphs never drop below the fixed factor.
        let path = long_path(500);
        assert_eq!(calibrated_switch_factor(&path), SPARSE_WORK_FACTOR);
        let empty = GraphBuilder::with_nodes(0).build().unwrap();
        assert_eq!(calibrated_switch_factor(&empty), SPARSE_WORK_FACTOR);
    }

    #[test]
    fn auto_switches_to_dense_earlier_than_sparse_on_dense_graphs() {
        // Closes the ROADMAP item: on small dense graphs the fixed-factor
        // sparse path keeps taking sparse steps right up to saturation, and
        // the last of those costs nearly a dense sweep.  Auto's calibrated
        // threshold anticipates one step of frontier growth and goes dense
        // earlier.
        let g = strided_graph(200, &[1, 3, 7, 19, 53, 101, 137, 171]);
        let first_dense_step = |engine: WalkEngine| -> Option<usize> {
            let mut scratch = WalkScratch::new();
            scratch.begin(g.node_count(), [NodeId(0)]);
            for step in 0..30 {
                scratch.step_forward(&g, engine);
                if scratch.is_dense() {
                    return Some(step);
                }
            }
            None
        };
        let sparse = first_dense_step(WalkEngine::Sparse).expect("sparse saturates eventually");
        let auto = first_dense_step(WalkEngine::Auto).expect("auto saturates eventually");
        assert!(
            auto < sparse,
            "auto must switch strictly earlier on a dense graph: auto at {auto}, sparse at {sparse}"
        );
    }

    #[test]
    fn auto_stays_sparse_on_a_long_path() {
        // Average degree 1 < the fixed factor, so calibration changes
        // nothing: a frontier of size 1 never triggers the dense switch.
        let g = long_path(1000);
        let mut scratch = WalkScratch::new();
        scratch.begin(1000, [NodeId(0)]);
        for _ in 0..10 {
            scratch.step_forward(&g, WalkEngine::Auto);
        }
        assert!(!scratch.is_dense());
        assert!((scratch.current()[10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in [WalkEngine::Dense, WalkEngine::Sparse, WalkEngine::Auto] {
            assert_eq!(WalkEngine::parse(engine.name()), Some(engine));
        }
        assert_eq!(WalkEngine::parse("DENSE"), Some(WalkEngine::Dense));
        assert_eq!(WalkEngine::parse("quantum"), None);
    }
}
