//! Query planning: choose a join algorithm for a [`QuerySpec`] from the
//! session's cache residency, and reify the decision as an inspectable
//! [`QueryPlan`].
//!
//! Every algorithm in the paper's family is **exact** — they all return the
//! same answers — so planning is purely a performance decision and can
//! never change results (`tests/planner_parity_proptest.rs` pins this).
//! `Auto` follows one rule:
//!
//! * **two-way:** B-BJ when every target in `Q` has its full-depth backward
//!   column resident (probed through the session's
//!   [`QueryCtx`](dht_walks::QueryCtx) without disturbing LRU order), since
//!   the join is then a bare scan of cached columns; B-IDJ-Y otherwise,
//!   whose `Y_l⁺` bound prunes the per-target walks a cold target costs;
//! * **n-way:** PJ-i with initial list size `m = max(k, 4)` (deep enough to
//!   usually avoid refinement, shallow enough to keep the initial joins
//!   cheap).
//!
//! That makes plans *session-dependent*: the same spec plans as B-IDJ-Y on
//! a cold session and as B-BJ once its targets are cached.
//!
//! **`Auto` picks only backward algorithms.**  They read the same
//! deterministic backward columns, so they answer bit-identically to each
//! other — which makes warmth-dependent plan flips invisible in the results
//! at any session count.  Forward algorithms (F-BJ, F-IDJ, and the
//! forward-joining AP / NL) agree only to ~1e-9 (different floating-point
//! summation order), so auto-selecting them would let cache warmth — which
//! varies with scheduling — leak into the last bits of answers.  Pinning
//! them with `AlgorithmChoice::Fixed` remains available and deterministic.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use dht_core::multiway::NWayAlgorithm;
use dht_core::spec::QuerySpec;
use dht_core::twoway::TwoWayAlgorithm;
use dht_graph::{NodeId, NodeSet};

/// Atomic tallies of the planner's `Auto` decisions on one engine: one
/// chosen-count slot per algorithm `Auto` can pick.  Updated lock-free from
/// every session of the engine; read by `STATS` / `METRICS` exposition.
#[derive(Debug, Default)]
pub struct PlanCounters {
    chosen: [AtomicU64; PlanCounters::SLOTS.len()],
}

impl PlanCounters {
    /// The algorithms `Auto` can pick, in exposition order (PJ-i tallies
    /// here regardless of its `m`).
    pub const SLOTS: [&'static str; 3] = ["b-bj", "b-idj-y", "pj-i"];

    /// Tallies one `Auto` plan's chosen algorithm.
    pub fn record(&self, plan: &QueryPlan) {
        let slot = match plan.chosen {
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardBasic) => 0,
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardIdjY) => 1,
            PlannedAlgorithm::NWay(NWayAlgorithm::IncrementalPartialJoin { .. }) => 2,
            other => unreachable!("Auto never picks {other}"),
        };
        self.chosen[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// `(label, chosen count)` for every algorithm slot.
    pub fn chosen_counts(&self) -> Vec<(&'static str, u64)> {
        Self::SLOTS
            .iter()
            .zip(&self.chosen)
            .map(|(label, count)| (*label, count.load(Ordering::Relaxed)))
            .collect()
    }

    /// `Auto` plans made so far.
    pub fn plans(&self) -> u64 {
        self.chosen.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// The algorithm a plan resolved to (with concrete parameters, e.g. PJ-i's
/// initial list size `m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannedAlgorithm {
    /// A two-way join algorithm.
    TwoWay(TwoWayAlgorithm),
    /// An n-way join algorithm.
    NWay(NWayAlgorithm),
}

impl PlannedAlgorithm {
    /// Human-readable name (PJ / PJ-i include their `m`).
    pub fn label(&self) -> String {
        match self {
            PlannedAlgorithm::TwoWay(a) => a.name().to_string(),
            PlannedAlgorithm::NWay(NWayAlgorithm::PartialJoin { m }) => format!("PJ(m={m})"),
            PlannedAlgorithm::NWay(NWayAlgorithm::IncrementalPartialJoin { m }) => {
                format!("PJ-i(m={m})")
            }
            PlannedAlgorithm::NWay(a) => a.name().to_string(),
        }
    }

    /// The two-way algorithm, when this is a two-way plan.
    pub fn two_way(&self) -> Option<TwoWayAlgorithm> {
        match self {
            PlannedAlgorithm::TwoWay(a) => Some(*a),
            PlannedAlgorithm::NWay(_) => None,
        }
    }

    /// The n-way algorithm, when this is an n-way plan.
    pub fn n_way(&self) -> Option<NWayAlgorithm> {
        match self {
            PlannedAlgorithm::NWay(a) => Some(*a),
            PlannedAlgorithm::TwoWay(_) => None,
        }
    }
}

impl fmt::Display for PlannedAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A reified planning decision: what will run, and the cache residency the
/// decision read.
///
/// Returned by `Session::explain` and `Session::run_with_plan`; rendered
/// by `dht querystream --explain 1` as one line per query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The algorithm the query will run with.
    pub chosen: PlannedAlgorithm,
    /// `true` when the planner chose (spec said `Auto`); `false` when the
    /// spec pinned the algorithm.
    pub auto: bool,
    /// Backward target columns (at full depth `d`) already resident in the
    /// session's column cache when the plan was made.
    pub resident_columns: usize,
    /// Target columns probed (`|Q|` for two-way; `Σ |R_j|` over query
    /// edges for n-way).
    pub probed_columns: usize,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "choose {} ({}; warm {}/{} target columns)",
            self.chosen.label(),
            if self.auto { "auto" } else { "fixed" },
            self.resident_columns,
            self.probed_columns,
        )
    }
}

/// The algorithm `spec` pins, or `None` when it says `Auto`.
pub(crate) fn fixed(spec: &QuerySpec) -> Option<PlannedAlgorithm> {
    match spec {
        QuerySpec::TwoWay(s) => s.algorithm.fixed().map(|&a| PlannedAlgorithm::TwoWay(a)),
        QuerySpec::NWay(s) => s.algorithm.fixed().map(|&a| PlannedAlgorithm::NWay(a)),
    }
}

/// Plans `spec`, counting its target columns that `is_resident` reports
/// cached: the pinned algorithm for `Fixed` specs, the residency rule of
/// the module docs for `Auto` ones.
pub(crate) fn plan(spec: &QuerySpec, is_resident: impl Fn(NodeId) -> bool) -> QueryPlan {
    let (mut resident_columns, mut probed_columns) = (0, 0);
    let mut probe = |targets: &NodeSet| {
        probed_columns += targets.len();
        resident_columns += targets.iter().filter(|&t| is_resident(t)).count();
    };
    match spec {
        QuerySpec::TwoWay(s) => probe(&s.q),
        QuerySpec::NWay(s) => {
            for &(_, j) in s.query.edges() {
                probe(&s.sets[j]);
            }
        }
    }
    let pinned = fixed(spec);
    let chosen = pinned.unwrap_or(match spec {
        QuerySpec::TwoWay(_) if resident_columns == probed_columns => {
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardBasic)
        }
        QuerySpec::TwoWay(_) => PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardIdjY),
        QuerySpec::NWay(s) => {
            PlannedAlgorithm::NWay(NWayAlgorithm::IncrementalPartialJoin { m: s.k.max(4) })
        }
    });
    QueryPlan {
        chosen,
        auto: pinned.is_none(),
        resident_columns,
        probed_columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::spec::{NWaySpec, TwoWaySpec};
    use dht_core::QueryGraph;
    use dht_graph::{Graph, GraphBuilder};
    use dht_walks::{DhtParams, QueryCtx, SharedColumnCache, SharedYTableStore, WalkEngine};
    use std::sync::Arc;

    const D: usize = 6;

    fn ring(n: u32) -> Graph {
        let mut b = GraphBuilder::with_nodes(n as usize);
        for u in 0..n {
            b.add_undirected_edge(NodeId(u), NodeId((u + 1) % n), 1.0)
                .unwrap();
        }
        b.build().unwrap()
    }

    /// A session-shaped context: shared column cache and shared Y tables.
    fn session_ctx(store: &Arc<SharedYTableStore>) -> QueryCtx {
        QueryCtx::shared(Arc::new(SharedColumnCache::new(1 << 20)), store.clone())
    }

    fn plan_in(ctx: &QueryCtx, graph: &Graph, spec: &QuerySpec) -> QueryPlan {
        let params = DhtParams::paper_default();
        plan(spec, |t| {
            ctx.backward_column_resident(graph, &params, t, D, WalkEngine::Sparse)
        })
    }

    fn set(name: &str, ids: std::ops::Range<u32>) -> NodeSet {
        NodeSet::new(name, ids.map(NodeId))
    }

    #[test]
    fn auto_two_way_is_b_bj_only_when_every_target_is_warm() {
        use TwoWayAlgorithm::{BackwardBasic, BackwardIdjY};
        let graph = ring(16);
        let params = DhtParams::paper_default();
        let (p, q) = (set("P", 0..4), set("Q", 8..12));
        let spec = QuerySpec::two_way(p.clone(), q.clone(), 3);
        // (warm targets, chosen): cold, one target cold, all warm.
        let table = [(0, BackwardIdjY), (3, BackwardIdjY), (4, BackwardBasic)];
        for y_resident in [false, true] {
            for (warm, expected) in table {
                let store = Arc::new(SharedYTableStore::new());
                let mut ctx = session_ctx(&store);
                for t in q.iter().take(warm) {
                    ctx.backward_column(&graph, &params, t, D, WalkEngine::Sparse);
                }
                if y_resident {
                    ctx.y_bound_table(&graph, &params, &p, D, WalkEngine::Sparse, 1);
                }
                assert_eq!(store.len(), usize::from(y_resident));
                let plan = plan_in(&ctx, &graph, &spec);
                let case = format!("warm {warm}, Y table resident {y_resident}: {plan}");
                assert_eq!(plan.chosen, PlannedAlgorithm::TwoWay(expected), "{case}");
                assert!(plan.auto, "{case}");
                assert_eq!((plan.resident_columns, plan.probed_columns), (warm, 4));
                assert_eq!(
                    plan.to_string(),
                    format!(
                        "choose {} (auto; warm {warm}/4 target columns)",
                        expected.name()
                    )
                );
            }
        }
    }

    #[test]
    fn auto_n_way_is_pj_i_with_m_at_least_four() {
        let graph = ring(16);
        let ctx = session_ctx(&Arc::new(SharedYTableStore::new()));
        let sets = vec![set("A", 0..2), set("B", 4..7), set("C", 9..13)];
        for (k, m) in [(2, 4), (7, 7)] {
            let spec = QuerySpec::n_way(QueryGraph::chain(3), sets.clone(), k);
            let plan = plan_in(&ctx, &graph, &spec);
            let pji = NWayAlgorithm::IncrementalPartialJoin { m };
            assert_eq!(plan.chosen, PlannedAlgorithm::NWay(pji), "k = {k}");
            assert!(plan.auto);
            // The chain's edges target B then C.
            assert_eq!((plan.resident_columns, plan.probed_columns), (0, 7));
            assert!(plan
                .to_string()
                .starts_with(&format!("choose PJ-i(m={m}) (auto")));
        }
    }

    #[test]
    fn fixed_specs_run_the_pinned_algorithm_and_report_residency() {
        let graph = ring(16);
        let params = DhtParams::paper_default();
        let mut ctx = session_ctx(&Arc::new(SharedYTableStore::new()));
        let (p, q) = (set("P", 0..4), set("Q", 8..12));
        for t in q.iter().take(2) {
            ctx.backward_column(&graph, &params, t, D, WalkEngine::Sparse);
        }
        let forward: QuerySpec = TwoWaySpec::new(p.clone(), q.clone(), 3)
            .with_fixed(TwoWayAlgorithm::ForwardBasic)
            .into();
        let plan = plan_in(&ctx, &graph, &forward);
        assert_eq!(
            plan.chosen,
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::ForwardBasic)
        );
        assert!(!plan.auto);
        assert_eq!((plan.resident_columns, plan.probed_columns), (2, 4));
        assert_eq!(
            plan.to_string(),
            "choose F-BJ (fixed; warm 2/4 target columns)"
        );

        let all_pairs: QuerySpec = NWaySpec::new(QueryGraph::chain(2), vec![p, q], 5)
            .with_fixed(NWayAlgorithm::AllPairs)
            .into();
        let plan = plan_in(&ctx, &graph, &all_pairs);
        assert_eq!(plan.chosen, PlannedAlgorithm::NWay(NWayAlgorithm::AllPairs));
        assert!(!plan.auto);
        assert_eq!((plan.resident_columns, plan.probed_columns), (2, 4));
    }

    /// An engine session whose backward columns for every target in `q`
    /// are resident (a pinned B-BJ run reads them all).
    fn warm_session<'e>(engine: &'e crate::Engine, p: &NodeSet, q: &NodeSet) -> crate::Session<'e> {
        let mut session = engine.session();
        let warm: QuerySpec = TwoWaySpec::new(p.clone(), q.clone(), 3)
            .with_fixed(TwoWayAlgorithm::BackwardBasic)
            .into();
        session.run(&warm).unwrap();
        session
    }

    #[test]
    fn forward_plans_expect_no_cache_hits() {
        let engine = crate::Engine::new(ring(16));
        let (p, q) = (set("P", 0..4), set("Q", 8..12));
        let mut session = warm_session(&engine, &p, &q);
        let forward: QuerySpec = TwoWaySpec::new(p, q, 3)
            .with_fixed(TwoWayAlgorithm::ForwardBasic)
            .into();
        let hits = session.cache_stats().hits;
        let (plan, _) = session.run_with_plan(&forward).unwrap();
        assert_eq!(
            plan.to_string(),
            "choose F-BJ (fixed; warm 4/4 target columns)"
        );
        // Every target is warm, yet F-BJ walks forward and never reads them.
        assert_eq!(session.cache_stats().hits, hits);
    }

    #[test]
    fn all_pairs_plans_expect_no_cache_hits_either() {
        // AP's complete per-edge joins run F-BJ (forward), so resident
        // backward columns never help it — unlike PJ / PJ-i.
        let engine = crate::Engine::new(ring(16));
        let (p, q) = (set("P", 0..4), set("Q", 8..12));
        let mut session = warm_session(&engine, &p, &q);
        let spec = |algorithm| -> QuerySpec {
            NWaySpec::new(QueryGraph::chain(2), vec![p.clone(), q.clone()], 5)
                .with_fixed(algorithm)
                .into()
        };
        let hits = session.cache_stats().hits;
        let (plan, _) = session
            .run_with_plan(&spec(NWayAlgorithm::AllPairs))
            .unwrap();
        assert_eq!((plan.resident_columns, plan.probed_columns), (4, 4));
        assert_eq!(session.cache_stats().hits, hits);
        let pji = NWayAlgorithm::IncrementalPartialJoin { m: 4 };
        session.run_with_plan(&spec(pji)).unwrap();
        assert!(session.cache_stats().hits > hits);
    }

    #[test]
    fn counters_tally_auto_picks_per_slot() {
        let counters = PlanCounters::default();
        for chosen in [
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardBasic),
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardIdjY),
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardIdjY),
            PlannedAlgorithm::NWay(NWayAlgorithm::IncrementalPartialJoin { m: 9 }),
        ] {
            counters.record(&QueryPlan {
                chosen,
                auto: true,
                resident_columns: 0,
                probed_columns: 1,
            });
        }
        assert_eq!(
            counters.chosen_counts(),
            vec![("b-bj", 1), ("b-idj-y", 2), ("pj-i", 1)]
        );
        assert_eq!(counters.plans(), 4);
    }

    #[test]
    fn planned_algorithm_labels_include_m() {
        assert_eq!(
            PlannedAlgorithm::NWay(NWayAlgorithm::IncrementalPartialJoin { m: 12 }).label(),
            "PJ-i(m=12)"
        );
        assert_eq!(
            PlannedAlgorithm::NWay(NWayAlgorithm::PartialJoin { m: 3 }).label(),
            "PJ(m=3)"
        );
        assert_eq!(
            PlannedAlgorithm::TwoWay(TwoWayAlgorithm::BackwardIdjY).label(),
            "B-IDJ-Y"
        );
        assert_eq!(
            PlannedAlgorithm::NWay(NWayAlgorithm::NestedLoop).label(),
            "NL"
        );
    }
}
