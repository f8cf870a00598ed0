//! Query graphs (Definition 1).
//!
//! A query graph `Q` is an unweighted directed graph whose vertices are the
//! node sets `R_1 … R_n` of the join (referenced by index) and whose edges
//! select which ordered node pairs contribute a DHT score to the aggregate.
//! The paper draws an undirected line between two query vertices as a
//! shorthand for a pair of opposite directed edges; [`QueryGraph::add_undirected_edge`]
//! implements that shorthand.

use crate::error::CoreError;
use crate::Result;

/// A query graph over `n` node sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryGraph {
    node_sets: usize,
    edges: Vec<(usize, usize)>,
}

impl QueryGraph {
    /// Creates a query graph over `node_sets` node sets with no edges.
    pub fn new(node_sets: usize) -> Self {
        QueryGraph {
            node_sets,
            edges: Vec::new(),
        }
    }

    /// Number of node sets `n`.
    pub fn node_set_count(&self) -> usize {
        self.node_sets
    }

    /// The directed edges `(i, j)`, in insertion order.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of edges `|E_Q|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `from -> to` (DHT will be evaluated from nodes
    /// of `R_from` towards nodes of `R_to`).
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<()> {
        if from >= self.node_sets {
            return Err(CoreError::InvalidQueryNode {
                index: from,
                node_sets: self.node_sets,
            });
        }
        if to >= self.node_sets {
            return Err(CoreError::InvalidQueryNode {
                index: to,
                node_sets: self.node_sets,
            });
        }
        if from == to {
            return Err(CoreError::SelfLoopQueryEdge(from));
        }
        if self.edges.contains(&(from, to)) {
            return Err(CoreError::DuplicateQueryEdge(from, to));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Adds both directed edges between `a` and `b` (the paper's "single
    /// line" shorthand).
    pub fn add_undirected_edge(&mut self, a: usize, b: usize) -> Result<()> {
        self.add_edge(a, b)?;
        self.add_edge(b, a)?;
        Ok(())
    }

    /// A chain query graph `R_0 -> R_1 -> … -> R_{n-1}` (Figure 2(b) shape),
    /// as used by the scalability experiments of Figures 7(a) and 8(a).
    pub fn chain(n: usize) -> Self {
        let mut q = QueryGraph::new(n);
        for i in 0..n.saturating_sub(1) {
            q.add_edge(i, i + 1).expect("chain edges are always valid");
        }
        q
    }

    /// A directed cycle `R_0 -> R_1 -> … -> R_{n-1} -> R_0`.
    pub fn cycle(n: usize) -> Self {
        let mut q = QueryGraph::chain(n);
        if n >= 3 {
            q.add_edge(n - 1, 0).expect("cycle closing edge is valid");
        }
        q
    }

    /// A triangle query graph over three node sets with edges in both
    /// directions (Figure 2(a)).
    pub fn triangle() -> Self {
        let mut q = QueryGraph::new(3);
        q.add_undirected_edge(0, 1).expect("valid");
        q.add_undirected_edge(1, 2).expect("valid");
        q.add_undirected_edge(0, 2).expect("valid");
        q
    }

    /// A star query graph with node set 0 at the centre and directed edges
    /// from each leaf towards the centre (Figure 2(c): members of each sports
    /// group scored against the photography group `P`).
    pub fn star(n: usize) -> Self {
        let mut q = QueryGraph::new(n);
        for leaf in 1..n {
            q.add_edge(leaf, 0).expect("star edges are always valid");
        }
        q
    }

    /// Whether the query graph is weakly connected (required by AP / PJ /
    /// PJ-i, whose candidate expansion walks the query edges).
    pub fn is_connected(&self) -> bool {
        if self.node_sets == 0 {
            return true;
        }
        if self.edges.is_empty() {
            return self.node_sets == 1;
        }
        let mut adjacency = vec![Vec::new(); self.node_sets];
        for &(a, b) in &self.edges {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        let mut visited = vec![false; self.node_sets];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for &v in &adjacency[u] {
                if !visited[v] {
                    visited[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.node_sets
    }

    /// Edges ordered from `start_edge` outwards, following adjacency through
    /// shared node sets.  Used by the candidate expansion of the rank join:
    /// processing edges in this order guarantees that each edge (after the
    /// first) shares at least one node set with an already processed edge,
    /// provided the query graph is connected.
    ///
    /// An edge between two node sets that are both covered already only
    /// *filters* a partial answer (one score lookup), one that reaches a new
    /// node set *multiplies* it; filters are placed as soon as they apply, so
    /// a partial answer a filter rejects — in a cyclic query, say, the
    /// reverse of the pulled edge — is dropped before it is fanned out.
    pub fn edges_in_expansion_order(&self, start_edge: usize) -> Vec<usize> {
        let m = self.edges.len();
        if m == 0 {
            return Vec::new();
        }
        let mut order = vec![start_edge];
        let mut placed = vec![false; m];
        placed[start_edge] = true;
        let mut covered_sets = vec![false; self.node_sets];
        let (a, b) = self.edges[start_edge];
        covered_sets[a] = true;
        covered_sets[b] = true;
        // Repeatedly add an unplaced edge: the first whose node sets are
        // both covered, else the first that touches a covered one.
        loop {
            let covered = |idx: usize| {
                let (a, b) = self.edges[idx];
                (covered_sets[a], covered_sets[b])
            };
            let unplaced = || (0..m).filter(|&idx| !placed[idx]);
            let next = unplaced()
                .find(|&idx| covered(idx) == (true, true))
                .or_else(|| unplaced().find(|&idx| covered(idx) != (false, false)));
            let Some(idx) = next else {
                break;
            };
            let (a, b) = self.edges[idx];
            placed[idx] = true;
            covered_sets[a] = true;
            covered_sets[b] = true;
            order.push(idx);
        }
        // Any remaining edges belong to other components; append them so the
        // caller still sees every edge (their candidates simply never complete).
        for (idx, &was_placed) in placed.iter().enumerate() {
            if !was_placed {
                order.push(idx);
            }
        }
        order
    }

    /// Validates the query graph together with the node sets supplied for an
    /// n-way join.
    pub fn validate_node_sets(&self, node_sets: &[dht_graph::NodeSet]) -> Result<()> {
        if node_sets.len() != self.node_sets {
            return Err(CoreError::NodeSetCountMismatch {
                expected: self.node_sets,
                actual: node_sets.len(),
            });
        }
        if self.edges.is_empty() {
            return Err(CoreError::EmptyQueryGraph);
        }
        for set in node_sets {
            if set.is_empty() {
                return Err(CoreError::EmptyNodeSet(set.name().to_string()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::{NodeId, NodeSet};

    #[test]
    fn chain_triangle_star_shapes() {
        let chain = QueryGraph::chain(4);
        assert_eq!(chain.edges(), &[(0, 1), (1, 2), (2, 3)]);
        let tri = QueryGraph::triangle();
        assert_eq!(tri.edge_count(), 6);
        let star = QueryGraph::star(5);
        assert_eq!(star.edge_count(), 4);
        assert!(star.edges().iter().all(|&(_, to)| to == 0));
        let cycle = QueryGraph::cycle(4);
        assert_eq!(cycle.edge_count(), 4);
    }

    #[test]
    fn add_edge_validation() {
        let mut q = QueryGraph::new(3);
        assert!(q.add_edge(0, 1).is_ok());
        assert_eq!(
            q.add_edge(0, 1).unwrap_err(),
            CoreError::DuplicateQueryEdge(0, 1)
        );
        assert_eq!(
            q.add_edge(1, 1).unwrap_err(),
            CoreError::SelfLoopQueryEdge(1)
        );
        assert!(matches!(
            q.add_edge(0, 5),
            Err(CoreError::InvalidQueryNode { index: 5, .. })
        ));
        // opposite direction is a distinct edge
        assert!(q.add_edge(1, 0).is_ok());
    }

    #[test]
    fn connectivity_detection() {
        assert!(QueryGraph::chain(5).is_connected());
        assert!(QueryGraph::triangle().is_connected());
        assert!(QueryGraph::star(6).is_connected());
        let mut disconnected = QueryGraph::new(4);
        disconnected.add_edge(0, 1).unwrap();
        disconnected.add_edge(2, 3).unwrap();
        assert!(!disconnected.is_connected());
        // an edgeless graph with more than one node set is not connected
        assert!(!QueryGraph::new(2).is_connected());
        assert!(QueryGraph::new(1).is_connected());
    }

    #[test]
    fn expansion_order_reaches_every_edge_from_any_start() {
        let q = QueryGraph::triangle();
        for start in 0..q.edge_count() {
            let order = q.edges_in_expansion_order(start);
            assert_eq!(order.len(), q.edge_count());
            assert_eq!(order[0], start);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..q.edge_count()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn expansion_order_places_filters_before_fan_outs() {
        // Triangle edges: (0,1), (1,0), (1,2), (2,1), (0,2), (2,0).  From any
        // pulled edge the reverse edge only filters, so it comes second; one
        // edge then reaches the third node set and the last three filter.
        let q = QueryGraph::triangle();
        for start in 0..q.edge_count() {
            let order = q.edges_in_expansion_order(start);
            let (a, b) = q.edges()[start];
            assert_eq!(q.edges()[order[1]], (b, a), "start {start}: {order:?}");
            let mut covered = [false; 3];
            covered[a] = true;
            covered[b] = true;
            let fan_outs = order[1..]
                .iter()
                .filter(|&&e| {
                    let (a, b) = q.edges()[e];
                    let fans_out = !(covered[a] && covered[b]);
                    covered[a] = true;
                    covered[b] = true;
                    fans_out
                })
                .count();
            assert_eq!(fan_outs, 1, "start {start}: {order:?}");
        }
    }

    #[test]
    fn expansion_order_respects_adjacency_on_chains() {
        let q = QueryGraph::chain(4);
        let order = q.edges_in_expansion_order(2);
        assert_eq!(order[0], 2);
        // every subsequent edge touches a node set covered by earlier edges
        let mut covered = [false; 4];
        let (a, b) = q.edges()[2];
        covered[a] = true;
        covered[b] = true;
        for &e in &order[1..] {
            let (a, b) = q.edges()[e];
            assert!(covered[a] || covered[b]);
            covered[a] = true;
            covered[b] = true;
        }
    }

    #[test]
    fn validate_node_sets_checks_shape() {
        let q = QueryGraph::chain(3);
        let sets = vec![
            NodeSet::new("A", [NodeId(0)]),
            NodeSet::new("B", [NodeId(1)]),
            NodeSet::new("C", [NodeId(2)]),
        ];
        assert!(q.validate_node_sets(&sets).is_ok());
        assert!(matches!(
            q.validate_node_sets(&sets[..2]),
            Err(CoreError::NodeSetCountMismatch { .. })
        ));
        let with_empty = vec![
            NodeSet::new("A", [NodeId(0)]),
            NodeSet::empty("B"),
            NodeSet::new("C", [NodeId(2)]),
        ];
        assert!(matches!(
            q.validate_node_sets(&with_empty),
            Err(CoreError::EmptyNodeSet(_))
        ));
        let edgeless = QueryGraph::new(3);
        assert_eq!(
            edgeless.validate_node_sets(&sets).unwrap_err(),
            CoreError::EmptyQueryGraph
        );
    }
}
