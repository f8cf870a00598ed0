//! Declarative query specifications: *what* to answer, optionally leaving
//! *how* to a planner.
//!
//! The join entry points of this crate ([`TwoWayAlgorithm`],
//! [`NWayAlgorithm`]) force every caller to hand-pick an algorithm, even
//! though the right choice depends on set sizes, `k`, graph degree and —
//! for a warm engine session — which backward columns are already cached.
//! A [`QuerySpec`] instead describes only the query itself (node sets,
//! query shape, aggregate, `k`) together with an [`AlgorithmChoice`]:
//! either `Fixed(..)` (the caller insists) or `Auto` (a planner such as
//! `dht-engine`'s decides per execution, from live cache residency).
//!
//! Specs validate **eagerly**: [`QuerySpec::validate`] rejects malformed
//! queries (empty node sets, mismatched query graphs, `k = 0`, …) with a
//! precise [`CoreError`] before any walk runs, instead
//! of failing deep inside an algorithm.  Every algorithm in the family is
//! exact, so the choice never affects *what* a query answers — only how
//! fast.
//!
//! ```
//! use dht_core::spec::{AlgorithmChoice, QuerySpec, TwoWaySpec};
//! use dht_core::twoway::TwoWayAlgorithm;
//! use dht_graph::{NodeId, NodeSet};
//!
//! let p = NodeSet::new("P", [NodeId(0), NodeId(1)]);
//! let q = NodeSet::new("Q", [NodeId(2), NodeId(3)]);
//!
//! // "The 5 best pairs of P ⋈ Q, however you like":
//! let auto = QuerySpec::two_way(p.clone(), q.clone(), 5);
//! assert!(auto.validate().is_ok());
//! assert!(auto.is_auto());
//!
//! // The same query pinned to a specific algorithm:
//! let fixed = QuerySpec::TwoWay(
//!     TwoWaySpec::new(p, q, 5).with_algorithm(AlgorithmChoice::Fixed(TwoWayAlgorithm::BackwardBasic)),
//! );
//! assert!(!fixed.is_auto());
//!
//! // Malformed queries fail at validation, not mid-run:
//! let bad = QuerySpec::two_way(NodeSet::empty("P"), NodeSet::new("Q", [NodeId(0)]), 5);
//! assert!(bad.validate().is_err());
//! ```

use dht_graph::NodeSet;

use crate::aggregate::Aggregate;
use crate::error::CoreError;
use crate::multiway::NWayAlgorithm;
use crate::query::QueryGraph;
use crate::twoway::TwoWayAlgorithm;
use crate::Result;

/// How a [`QuerySpec`] wants its algorithm chosen: pinned by the caller or
/// left to a planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmChoice<A> {
    /// Run exactly this algorithm.
    Fixed(A),
    /// Let the planner pick the cheapest algorithm for this query, given
    /// the graph's statistics and the current cache state.
    #[default]
    Auto,
}

impl<A> AlgorithmChoice<A> {
    /// `true` when the planner decides.
    pub fn is_auto(&self) -> bool {
        matches!(self, AlgorithmChoice::Auto)
    }

    /// The pinned algorithm, when there is one.
    pub fn fixed(&self) -> Option<&A> {
        match self {
            AlgorithmChoice::Fixed(a) => Some(a),
            AlgorithmChoice::Auto => None,
        }
    }
}

/// A declarative two-way join query: the `k` best pairs of `p ⋈ q`.
#[derive(Debug, Clone)]
pub struct TwoWaySpec {
    /// Left node set `P` (walk sources).
    pub p: NodeSet,
    /// Right node set `Q` (walk targets).
    pub q: NodeSet,
    /// Number of pairs to return (must be ≥ 1).
    pub k: usize,
    /// Algorithm choice; defaults to [`AlgorithmChoice::Auto`].
    pub algorithm: AlgorithmChoice<TwoWayAlgorithm>,
}

impl TwoWaySpec {
    /// A two-way spec with automatic algorithm selection.
    pub fn new(p: NodeSet, q: NodeSet, k: usize) -> Self {
        TwoWaySpec {
            p,
            q,
            k,
            algorithm: AlgorithmChoice::Auto,
        }
    }

    /// Returns a copy with a different algorithm choice.
    pub fn with_algorithm(mut self, algorithm: AlgorithmChoice<TwoWayAlgorithm>) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns a copy pinned to `algorithm`.
    pub fn with_fixed(self, algorithm: TwoWayAlgorithm) -> Self {
        self.with_algorithm(AlgorithmChoice::Fixed(algorithm))
    }

    /// Checks the spec is answerable: non-empty node sets and `k ≥ 1`.
    ///
    /// # Errors
    /// [`CoreError::EmptyNodeSet`] / [`CoreError::ZeroResultSize`].
    pub fn validate(&self) -> Result<()> {
        validate_two_way_inputs(&self.p, &self.q, self.k)
    }
}

/// Validates two-way query inputs by reference (what
/// [`TwoWaySpec::validate`] checks), so batch APIs holding legacy query
/// structs can validate without cloning node sets into a spec.
///
/// # Errors
/// [`CoreError::EmptyNodeSet`] / [`CoreError::ZeroResultSize`].
pub fn validate_two_way_inputs(p: &NodeSet, q: &NodeSet, k: usize) -> Result<()> {
    if k == 0 {
        return Err(CoreError::ZeroResultSize);
    }
    for set in [p, q] {
        if set.is_empty() {
            return Err(CoreError::EmptyNodeSet(set.name().to_string()));
        }
    }
    Ok(())
}

/// A declarative n-way join query: the `k` best tuples over a query graph
/// of node sets under a monotone aggregate.
#[derive(Debug, Clone)]
pub struct NWaySpec {
    /// Query graph over the node sets (vertices reference `sets` by index).
    pub query: QueryGraph,
    /// One node set per query-graph vertex.
    pub sets: Vec<NodeSet>,
    /// Monotone aggregate over per-edge DHT scores.
    pub aggregate: Aggregate,
    /// Number of answers to return (must be ≥ 1).
    pub k: usize,
    /// Algorithm choice; defaults to [`AlgorithmChoice::Auto`].
    pub algorithm: AlgorithmChoice<NWayAlgorithm>,
}

impl NWaySpec {
    /// An n-way spec with the `MIN` aggregate and automatic algorithm
    /// selection.
    pub fn new(query: QueryGraph, sets: Vec<NodeSet>, k: usize) -> Self {
        NWaySpec {
            query,
            sets,
            aggregate: Aggregate::Min,
            k,
            algorithm: AlgorithmChoice::Auto,
        }
    }

    /// Returns a copy with a different aggregate.
    pub fn with_aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// Returns a copy with a different algorithm choice.
    pub fn with_algorithm(mut self, algorithm: AlgorithmChoice<NWayAlgorithm>) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns a copy pinned to `algorithm`.
    pub fn with_fixed(self, algorithm: NWayAlgorithm) -> Self {
        self.with_algorithm(AlgorithmChoice::Fixed(algorithm))
    }

    /// Checks the spec is answerable: the query graph and node sets are
    /// consistent ([`QueryGraph::validate_node_sets`]), `k ≥ 1`, and —
    /// unless the spec is pinned to NL, the one algorithm whose plain
    /// enumeration handles disconnected query graphs — the query graph is
    /// weakly connected (AP / PJ / PJ-i expand candidates along query
    /// edges and reject disconnected graphs at run time; `Auto` plans may
    /// pick any of them, so they require connectivity too).
    ///
    /// # Errors
    /// The [`CoreError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        validate_n_way_inputs(&self.query, &self.sets, self.k, &self.algorithm)
    }
}

/// Validates n-way query inputs by reference (what [`NWaySpec::validate`]
/// checks), so batch APIs holding legacy query structs can validate
/// without cloning the query graph and node sets into a spec.
/// Connectivity is required exactly when the chosen algorithm requires it
/// (everything but a pinned NL — see [`NWaySpec::validate`]).
///
/// # Errors
/// The [`CoreError`] naming the first violated constraint.
pub fn validate_n_way_inputs(
    query: &QueryGraph,
    sets: &[NodeSet],
    k: usize,
    algorithm: &AlgorithmChoice<NWayAlgorithm>,
) -> Result<()> {
    if k == 0 {
        return Err(CoreError::ZeroResultSize);
    }
    query.validate_node_sets(sets)?;
    let needs_connectivity =
        !matches!(algorithm, AlgorithmChoice::Fixed(NWayAlgorithm::NestedLoop));
    if needs_connectivity && !query.is_connected() {
        return Err(CoreError::DisconnectedQueryGraph);
    }
    Ok(())
}

/// One declarative query: two-way or n-way.
///
/// This is the type the `dht-engine` session APIs (`Session::run`,
/// `Session::explain`, `Engine::batch`, …) consume.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// A two-way join query.
    TwoWay(TwoWaySpec),
    /// An n-way join query.
    NWay(NWaySpec),
}

impl QuerySpec {
    /// A two-way query with automatic algorithm selection.
    pub fn two_way(p: NodeSet, q: NodeSet, k: usize) -> Self {
        QuerySpec::TwoWay(TwoWaySpec::new(p, q, k))
    }

    /// An n-way query with the `MIN` aggregate and automatic algorithm
    /// selection.
    pub fn n_way(query: QueryGraph, sets: Vec<NodeSet>, k: usize) -> Self {
        QuerySpec::NWay(NWaySpec::new(query, sets, k))
    }

    /// Number of answers the query asks for.
    pub fn k(&self) -> usize {
        match self {
            QuerySpec::TwoWay(s) => s.k,
            QuerySpec::NWay(s) => s.k,
        }
    }

    /// `true` when the algorithm is left to the planner.
    pub fn is_auto(&self) -> bool {
        match self {
            QuerySpec::TwoWay(s) => s.algorithm.is_auto(),
            QuerySpec::NWay(s) => s.algorithm.is_auto(),
        }
    }

    /// Validates the spec (see [`TwoWaySpec::validate`] and
    /// [`NWaySpec::validate`]).
    ///
    /// # Errors
    /// The [`CoreError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        match self {
            QuerySpec::TwoWay(s) => s.validate(),
            QuerySpec::NWay(s) => s.validate(),
        }
    }
}

impl From<TwoWaySpec> for QuerySpec {
    fn from(spec: TwoWaySpec) -> Self {
        QuerySpec::TwoWay(spec)
    }
}

impl From<NWaySpec> for QuerySpec {
    fn from(spec: NWaySpec) -> Self {
        QuerySpec::NWay(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::NodeId;

    fn sets() -> (NodeSet, NodeSet) {
        (
            NodeSet::new("P", [NodeId(0), NodeId(1)]),
            NodeSet::new("Q", [NodeId(2), NodeId(3)]),
        )
    }

    #[test]
    fn two_way_specs_default_to_auto_and_validate_inputs() {
        let (p, q) = sets();
        let spec = QuerySpec::two_way(p.clone(), q.clone(), 3);
        assert!(spec.is_auto());
        assert_eq!(spec.k(), 3);
        assert!(spec.validate().is_ok());

        let fixed =
            TwoWaySpec::new(p.clone(), q.clone(), 3).with_fixed(TwoWayAlgorithm::ForwardIdj);
        assert_eq!(fixed.algorithm.fixed(), Some(&TwoWayAlgorithm::ForwardIdj));
        assert!(!QuerySpec::from(fixed).is_auto());

        assert_eq!(
            QuerySpec::two_way(p.clone(), q.clone(), 0)
                .validate()
                .unwrap_err(),
            CoreError::ZeroResultSize
        );
        assert_eq!(
            QuerySpec::two_way(NodeSet::empty("P"), q, 3)
                .validate()
                .unwrap_err(),
            CoreError::EmptyNodeSet("P".into())
        );
        assert_eq!(
            QuerySpec::two_way(p, NodeSet::empty("Q"), 3)
                .validate()
                .unwrap_err(),
            CoreError::EmptyNodeSet("Q".into())
        );
    }

    #[test]
    fn n_way_specs_validate_shape_connectivity_and_k() {
        let (p, q) = sets();
        let r = NodeSet::new("R", [NodeId(4)]);
        let three = vec![p.clone(), q.clone(), r.clone()];

        let good = QuerySpec::n_way(QueryGraph::chain(3), three.clone(), 2);
        assert!(good.validate().is_ok());
        assert!(good.is_auto());

        // Wrong arity.
        assert!(matches!(
            QuerySpec::n_way(QueryGraph::chain(4), three.clone(), 2)
                .validate()
                .unwrap_err(),
            CoreError::NodeSetCountMismatch { .. }
        ));
        // Disconnected query graph: rejected for Auto (the planner may
        // pick a candidate-expansion algorithm)…
        let mut disconnected = QueryGraph::new(3);
        disconnected.add_edge(0, 1).unwrap();
        assert_eq!(
            QuerySpec::n_way(disconnected.clone(), three.clone(), 2)
                .validate()
                .unwrap_err(),
            CoreError::DisconnectedQueryGraph
        );
        // …and for pinned AP / PJ / PJ-i (they reject it at run time
        // anyway; failing eagerly is strictly earlier)…
        assert_eq!(
            NWaySpec::new(disconnected.clone(), three.clone(), 2)
                .with_fixed(NWayAlgorithm::AllPairs)
                .validate()
                .unwrap_err(),
            CoreError::DisconnectedQueryGraph
        );
        // …but a pinned NL enumerates tuples without expanding along query
        // edges, and keeps its legacy behaviour of answering them.
        assert!(NWaySpec::new(disconnected, three.clone(), 2)
            .with_fixed(NWayAlgorithm::NestedLoop)
            .validate()
            .is_ok());
        // k = 0.
        assert_eq!(
            QuerySpec::n_way(QueryGraph::chain(3), three.clone(), 0)
                .validate()
                .unwrap_err(),
            CoreError::ZeroResultSize
        );
        // Empty member set.
        let with_empty = vec![p, NodeSet::empty("Q"), r];
        assert!(matches!(
            QuerySpec::n_way(QueryGraph::chain(3), with_empty, 2)
                .validate()
                .unwrap_err(),
            CoreError::EmptyNodeSet(_)
        ));
    }

    #[test]
    fn n_way_builders_compose() {
        let (p, q) = sets();
        let spec = NWaySpec::new(QueryGraph::chain(2), vec![p, q], 4)
            .with_aggregate(Aggregate::Sum)
            .with_fixed(NWayAlgorithm::AllPairs);
        assert_eq!(spec.aggregate, Aggregate::Sum);
        assert_eq!(spec.algorithm.fixed(), Some(&NWayAlgorithm::AllPairs));
        assert!(spec.validate().is_ok());
    }
}
