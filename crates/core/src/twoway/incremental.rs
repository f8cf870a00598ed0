//! The mutable bound structure `F` of PJ-i (Section VI-D).
//!
//! While the modified B-IDJ of PJ-i evaluates a top-`m` 2-way join, it
//! records, for every candidate pair `(p, q)`, the tightest lower and upper
//! bounds of `h_d(p, q)` seen so far together with the walk depth `l` that
//! produced them.  A later `getNextNodePair` call then works entirely from
//! this structure:
//!
//! 1. take the non-emitted pair with the largest upper bound;
//! 2. if its bounds were computed at full depth `d`, its score is exact and
//!    no other pair can beat it (its upper bound is maximal) — emit it;
//! 3. otherwise *refine* it: re-run a backward walk from its target with
//!    twice the depth (or directly depth `d` when it already dominates every
//!    other pair's upper bound), update all entries of that target, and
//!    repeat.
//!
//! Because refinement always increases the recorded depth and depth is
//! capped at `d`, the loop terminates; because entries exist for every pair
//! (including the unreachable ones, whose score is `β`), the structure can
//! serve the entire `|P|·|Q|` ranking without ever falling back to a fresh
//! top-`m'` join — this is what makes PJ-i cheap when the rank join keeps
//! asking for "just one more pair".
//!
//! # Layout
//!
//! `F` is the paper's `|P| × |Q|` array, stored as one flat slice of
//! [`FEntry`] cells addressed by **set position**: the cell of
//! `(p_i, q_j)` is `j·|P| + i`, so everything a backward walk from `q_j`
//! touches — one [`IncrementalState::column_mut`] — is contiguous.
//! Recording a bound is an array store, refining a target walks its
//! column, and finding the best candidate is one pass over the slice; no
//! hashing anywhere.  A cell nothing was recorded for — the `p == q` cells
//! of overlapping sets, which the join skips — stays at level `0` and is
//! never a candidate; emitted pairs are a bitmap beside the slice.

use std::sync::Arc;

use dht_graph::{Graph, NodeId, NodeSet};
use dht_walks::bounds::{x_upper_bound, YBoundTable};
use dht_walks::{DhtParams, QueryCtx, WalkEngine};

use crate::answer::PairScore;

/// Bound information of one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FEntry {
    /// Lower bound of `h_d(p, q)` (a truncated score `h_l`).
    pub lower: f64,
    /// Upper bound of `h_d(p, q)` (`h_l + U_l⁺`).
    pub upper: f64,
    /// Walk depth `l` at which the bounds were computed; `l = d` means the
    /// score is exact, `0` that nothing has been recorded for the pair.
    pub level: usize,
}

impl FEntry {
    /// A cell nothing has been recorded for.
    const ABSENT: FEntry = FEntry {
        lower: 0.0,
        upper: 0.0,
        level: 0,
    };

    /// Records bounds computed at depth `level ≥ 1`; a cell is only
    /// replaced by deeper (tighter) information, mirroring the "supersede
    /// if `e.l < s.l`" rule of the paper.
    #[inline]
    pub fn record(&mut self, lower: f64, upper: f64, level: usize) {
        if self.level < level {
            *self = FEntry {
                lower,
                upper,
                level,
            };
        }
    }
}

/// The mutable priority structure `F` over `P × Q` plus the bookkeeping
/// needed to emit pairs in descending score order.
#[derive(Debug, Clone)]
pub struct IncrementalState<'a> {
    params: DhtParams,
    d: usize,
    /// Walk engine of the refinement walks (installed by the originating
    /// B-IDJ run so refinements match the join's propagation engine).
    engine: WalkEngine,
    p: &'a NodeSet,
    q: &'a NodeSet,
    /// `|Q|` columns of `|P|` cells each (see the module's *Layout*).
    entries: Vec<FEntry>,
    /// One bit per cell: the pair was already returned to the caller.
    emitted: Vec<u64>,
    /// The originating run's `Y_l⁺` table, shared with the context's cache.
    y_table: Option<Arc<YBoundTable>>,
    /// Number of backward walks run by refinement (exposed for stats).
    refinement_walks: u64,
    /// Total refinement walk steps.
    refinement_steps: u64,
}

impl<'a> IncrementalState<'a> {
    /// Creates the structure for `P × Q` with no bound recorded yet.
    pub fn new(params: DhtParams, d: usize, p: &'a NodeSet, q: &'a NodeSet) -> Self {
        let cells = p.len() * q.len();
        IncrementalState {
            params,
            d: d.max(1),
            engine: WalkEngine::default(),
            p,
            q,
            entries: vec![FEntry::ABSENT; cells],
            emitted: vec![0; cells.div_ceil(64)],
            y_table: None,
            refinement_walks: 0,
            refinement_steps: 0,
        }
    }

    /// Whether the structure was laid out for exactly these operands (same
    /// members in the same order).
    pub fn is_over(&self, p: &NodeSet, q: &NodeSet) -> bool {
        let same = |a: &NodeSet, b: &NodeSet| a.len() == b.len() && a.signature() == b.signature();
        same(self.p, p) && same(self.q, q)
    }

    /// Installs the `Y_l⁺` table of the originating B-IDJ-Y run so that
    /// refinements can use the tighter bound; without it the `X_l⁺` bound is
    /// used.
    pub fn set_y_table(&mut self, table: Arc<YBoundTable>) {
        self.y_table = Some(table);
    }

    /// Sets the walk engine used by refinement walks (the originating join's
    /// engine; defaults to [`WalkEngine::default`]).
    pub fn set_engine(&mut self, engine: WalkEngine) {
        self.engine = engine;
    }

    /// Number of recorded pairs.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.level > 0).count()
    }

    /// Whether no pair has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pairs already emitted (the top-`m` list plus any
    /// `next_pair` results).
    pub fn emitted_count(&self) -> usize {
        self.emitted.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Backward walks performed by refinement so far.
    pub fn refinement_walks(&self) -> u64 {
        self.refinement_walks
    }

    /// Walk steps performed by refinement so far.
    pub fn refinement_steps(&self) -> u64 {
        self.refinement_steps
    }

    /// Cell index of a pair of members.
    fn cell(&self, p: NodeId, q: NodeId) -> Option<usize> {
        Some(self.q.position(q)? * self.p.len() + self.p.position(p)?)
    }

    /// The pair of a cell index.
    fn pair(&self, cell: usize) -> (NodeId, NodeId) {
        let rows = self.p.len();
        (self.p.members()[cell % rows], self.q.members()[cell / rows])
    }

    /// Looks up the entry of a pair, if one was recorded (mainly for tests).
    pub fn entry(&self, p: NodeId, q: NodeId) -> Option<FEntry> {
        let entry = self.entries[self.cell(p, q)?];
        (entry.level > 0).then_some(entry)
    }

    /// The cells of every pair whose target is `q`, one per member of `P` in
    /// set order — what a backward walk from `q` [`FEntry::record`]s into.
    ///
    /// # Panics
    /// Panics when `q` is not a member of the state's `Q`.
    pub fn column_mut(&mut self, q: NodeId) -> &mut [FEntry] {
        let rows = self.p.len();
        let j = self.q.position(q).expect("target is a member of Q");
        &mut self.entries[j * rows..(j + 1) * rows]
    }

    /// Marks a pair as already returned to the caller.
    ///
    /// # Panics
    /// Panics when `(p, q)` is not a pair of `P × Q`.
    pub fn mark_emitted(&mut self, p: NodeId, q: NodeId) {
        let cell = self.cell(p, q).expect("pair of P × Q");
        self.set_emitted(cell);
    }

    fn set_emitted(&mut self, cell: usize) {
        self.emitted[cell / 64] |= 1 << (cell % 64);
    }

    fn is_emitted(&self, cell: usize) -> bool {
        (self.emitted[cell / 64] >> (cell % 64)) & 1 == 1
    }

    /// Finds the non-emitted entry with the largest upper bound and the
    /// largest upper bound among the rest.
    ///
    /// Ties on the upper bound are broken by the smallest `(p, q)` node-id
    /// pair, so the selection — and therefore the whole PJ-i emission
    /// order — is a pure function of the recorded bounds, whatever order
    /// the sets list their members in.
    fn best_candidate(&self) -> Option<(usize, FEntry, f64)> {
        let mut best: Option<(usize, (NodeId, NodeId), FEntry)> = None;
        let mut second = f64::NEG_INFINITY;
        for (cell, &entry) in self.entries.iter().enumerate() {
            if entry.level == 0 || self.is_emitted(cell) {
                continue;
            }
            match best {
                None => best = Some((cell, self.pair(cell), entry)),
                Some((_, best_pair, current)) => {
                    if entry.upper > current.upper
                        || (entry.upper == current.upper && self.pair(cell) < best_pair)
                    {
                        second = current.upper;
                        best = Some((cell, self.pair(cell), entry));
                    } else if entry.upper > second {
                        second = entry.upper;
                    }
                }
            }
        }
        best.map(|(cell, _, entry)| (cell, entry, second))
    }

    /// Re-runs a backward walk from `target` at depth `level` and tightens
    /// every entry of its column.  The walk is served from the context's
    /// column cache when warm.
    fn refine_target(&mut self, graph: &Graph, target: NodeId, level: usize, ctx: &mut QueryCtx) {
        let level = level.clamp(1, self.d);
        let scores = ctx.backward_column(graph, &self.params, target, level, self.engine);
        self.refinement_walks += 1;
        self.refinement_steps += level as u64;
        let u_bound = if level >= self.d {
            0.0
        } else {
            match &self.y_table {
                Some(table) => table.bound(level, target),
                None => x_upper_bound(&self.params, level),
            }
        };
        let sources = self.p;
        for (entry, source) in self.column_mut(target).iter_mut().zip(sources) {
            if entry.level > 0 {
                let lower = scores[source.index()];
                entry.record(lower, lower + u_bound, level);
            }
        }
    }

    /// `getNextNodePair`: returns the non-emitted pair with the highest exact
    /// score, refining bounds lazily as needed.  Refinement walks are served
    /// from (and fill) the context's column cache.  Returns `None` once every
    /// recorded pair has been emitted.
    pub fn next_pair(&mut self, graph: &Graph, ctx: &mut QueryCtx) -> Option<PairScore> {
        loop {
            let (cell, entry, second_upper) = self.best_candidate()?;
            let (source, target) = self.pair(cell);
            if entry.level >= self.d {
                // Exact and maximal among the remaining upper bounds: emit.
                self.set_emitted(cell);
                return Some(PairScore::new(source, target, entry.lower));
            }
            let confident = entry.lower >= second_upper;
            let new_level = if confident {
                self.d
            } else {
                (entry.level * 2).clamp(1, self.d)
            };
            self.refine_target(graph, target, new_level.max(entry.level + 1), ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twoway::{bbj, bidj, TwoWayConfig};
    use dht_graph::generators::{erdos_renyi, planted_partition, PlantedPartitionConfig};
    use dht_graph::NodeSet;

    #[test]
    fn record_keeps_the_deepest_information() {
        let sources = NodeSet::new("P", [NodeId(7), NodeId(1)]);
        let targets = NodeSet::new("Q", [NodeId(9), NodeId(2)]);
        let mut state = IncrementalState::new(DhtParams::paper_default(), 8, &sources, &targets);
        let (p, q) = (NodeId(1), NodeId(2));
        assert_eq!(state.entry(p, q), None);
        // NodeId(1) is the second member of P: cell 1 of target 2's column.
        state.column_mut(q)[1].record(0.1, 0.5, 1);
        state.column_mut(q)[1].record(0.2, 0.3, 2);
        assert_eq!(state.entry(p, q).unwrap().level, 2);
        // shallower information never overwrites deeper information
        state.column_mut(q)[1].record(0.0, 1.0, 1);
        assert_eq!(state.entry(p, q).unwrap().lower, 0.2);
        state.column_mut(q)[1].record(0.25, 0.25, 8);
        let e = state.entry(p, q).unwrap();
        assert_eq!(e.level, 8);
        assert_eq!(e.lower, e.upper);
        // one pair recorded, none of its neighbours touched
        assert_eq!(state.len(), 1);
        assert_eq!(state.entry(NodeId(7), q), None);
        assert_eq!(state.entry(p, NodeId(9)), None);
    }

    #[test]
    fn next_pair_streams_the_exact_ranking() {
        let mut ctx = QueryCtx::one_shot();
        // The pairs emitted by top-m + repeated next_pair calls must equal
        // the full ranking computed by B-BJ.
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 3,
            community_size: 20,
            avg_internal_degree: 6.0,
            avg_external_degree: 1.5,
            weighted: false,
            seed: 5,
        });
        let cfg = TwoWayConfig::paper_default();
        let p = cg.community(0).clone();
        let q = cg.community(1).clone();
        let m = 10;
        let mut state = IncrementalState::new(cfg.params, cfg.d, &p, &q);
        let top_m = bidj::top_k_y(&cg.graph, &cfg, &p, &q, m, Some(&mut state), &mut ctx);

        let total = 40usize;
        let mut streamed: Vec<f64> = top_m.pairs.iter().map(|pr| pr.score).collect();
        while streamed.len() < total {
            let pair = state
                .next_pair(&cg.graph, &mut ctx)
                .expect("entries remain");
            streamed.push(pair.score);
        }
        let reference = bbj::top_k(&cg.graph, &cfg, &p, &q, total, &mut ctx);
        assert_eq!(reference.pairs.len(), total);
        for (i, (got, want)) in streamed.iter().zip(reference.pairs.iter()).enumerate() {
            assert!(
                (got - want.score).abs() < 1e-9,
                "rank {i}: streamed {got} but reference {}",
                want.score
            );
        }
        // scores are non-increasing
        for w in streamed.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn next_pair_exhausts_and_returns_none() {
        let mut ctx = QueryCtx::one_shot();
        let g = erdos_renyi(10, 30, 9);
        let cfg = TwoWayConfig::paper_default();
        let p = NodeSet::new("P", [NodeId(0), NodeId(1)]);
        let q = NodeSet::new("Q", [NodeId(5), NodeId(6)]);
        let mut state = IncrementalState::new(cfg.params, cfg.d, &p, &q);
        let out = bidj::top_k_y(&g, &cfg, &p, &q, 2, Some(&mut state), &mut ctx);
        assert_eq!(out.pairs.len(), 2);
        let mut remaining = 0;
        while state.next_pair(&g, &mut ctx).is_some() {
            remaining += 1;
        }
        assert_eq!(remaining, 2, "4 pairs total, 2 already emitted");
        assert!(state.next_pair(&g, &mut ctx).is_none());
    }

    #[test]
    fn refinement_work_is_recorded() {
        let mut ctx = QueryCtx::one_shot();
        let cg = planted_partition(&PlantedPartitionConfig {
            communities: 2,
            community_size: 25,
            avg_internal_degree: 6.0,
            avg_external_degree: 1.0,
            weighted: false,
            seed: 8,
        });
        let cfg = TwoWayConfig::paper_default();
        let p = cg.community(0).clone();
        let q = cg.community(1).clone();
        let mut state = IncrementalState::new(cfg.params, cfg.d, &p, &q);
        bidj::top_k_y(&cg.graph, &cfg, &p, &q, 3, Some(&mut state), &mut ctx);
        for _ in 0..5 {
            state.next_pair(&cg.graph, &mut ctx);
        }
        // pulling beyond the top-3 list requires at least some refinement
        assert!(state.refinement_walks() > 0);
        assert!(state.refinement_steps() >= state.refinement_walks());
    }

    #[test]
    fn empty_state_yields_nothing() {
        let mut ctx = QueryCtx::one_shot();
        let g = erdos_renyi(5, 8, 1);
        let p = NodeSet::new("P", [NodeId(0), NodeId(1)]);
        let q = NodeSet::new("Q", [NodeId(1), NodeId(2)]);
        let mut state = IncrementalState::new(DhtParams::paper_default(), 4, &p, &q);
        assert!(state.is_empty());
        assert!(state.next_pair(&g, &mut ctx).is_none());
    }
}
