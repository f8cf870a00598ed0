//! The immutable [`Graph`] type.
//!
//! A [`Graph`] is a directed, weighted graph stored in CSR form twice:
//!
//! * the **forward** index maps a node `u` to its out-neighbours `v` together
//!   with the edge weight `w_uv` and the transition probability
//!   `p_uv = w_uv / Σ_{v'∈O_u} w_uv'` of a random walker standing at `u`;
//! * the **reverse** index maps a node `v` to its in-neighbours `u`, again
//!   storing `w_uv` and `p_uv` (the probability of the *original* directed
//!   edge, which is what backward walk engines need when pulling probability
//!   mass into `v`).

use crate::csr::Csr;
use crate::node::NodeId;
use crate::{GraphError, NodeSet, Result};

/// Immutable directed weighted graph with pre-computed random-walk transition
/// probabilities.
#[derive(Debug, Clone)]
pub struct Graph {
    node_count: usize,
    edge_count: usize,
    forward: Csr,
    reverse: Csr,
    labels: Vec<Option<String>>,
    /// Process-unique identity assigned at construction (see [`Graph::uid`]).
    /// Clones share it — a clone has identical contents, so anything keyed
    /// by the uid (e.g. cached walk columns) stays valid for it.
    uid: u64,
}

/// Source of [`Graph::uid`] values; starts at 1 so 0 can serve callers as a
/// "no graph yet" sentinel.
static NEXT_GRAPH_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Graph {
    /// Builds a graph from raw parts.  Used by [`crate::GraphBuilder`].
    ///
    /// Parallel edges are merged by summing weights.
    pub(crate) fn from_parts(
        node_count: usize,
        labels: Vec<Option<String>>,
        edges: Vec<(u32, u32, f64)>,
    ) -> Result<Graph> {
        // Merge parallel edges and sort adjacency lists by target id.
        let mut out_adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); node_count];
        for (from, to, w) in edges {
            out_adj[from as usize].push((to, w));
        }
        for list in &mut out_adj {
            list.sort_unstable_by_key(|&(t, _)| t);
            // Merge duplicates (the list is sorted, so duplicates are adjacent).
            let mut merged: Vec<(u32, f64)> = Vec::with_capacity(list.len());
            for &(t, w) in list.iter() {
                match merged.last_mut() {
                    Some(last) if last.0 == t => last.1 += w,
                    _ => merged.push((t, w)),
                }
            }
            *list = merged;
        }

        // Forward CSR with transition probabilities.
        let mut forward_adj: Vec<Vec<(u32, f64, f64)>> = Vec::with_capacity(node_count);
        for list in &out_adj {
            let total: f64 = list.iter().map(|&(_, w)| w).sum();
            let entry = list
                .iter()
                .map(|&(t, w)| (t, w, if total > 0.0 { w / total } else { 0.0 }))
                .collect();
            forward_adj.push(entry);
        }

        // Reverse adjacency: for each edge (u, v) store (u, w_uv, p_uv) under v.
        let mut reverse_adj: Vec<Vec<(u32, f64, f64)>> = vec![Vec::new(); node_count];
        for (u, list) in forward_adj.iter().enumerate() {
            for &(v, w, p) in list {
                reverse_adj[v as usize].push((u as u32, w, p));
            }
        }
        for list in &mut reverse_adj {
            list.sort_unstable_by_key(|&(s, _, _)| s);
        }

        let forward = Csr::from_adjacency(&forward_adj);
        let reverse = Csr::from_adjacency(&reverse_adj);
        let edge_count = forward.edge_count();

        Ok(Graph {
            node_count,
            edge_count,
            forward,
            reverse,
            labels,
            uid: NEXT_GRAPH_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// Assembles a graph directly from prebuilt forward and reverse CSR
    /// indexes — the binary container load path, which must not re-derive
    /// transition probabilities or re-sort adjacency lists.
    ///
    /// The caller (the `binfmt` decoder) has already validated the
    /// structural invariants; a fresh [`Graph::uid`] is assigned because
    /// this is a new in-process graph identity.
    pub(crate) fn from_csr_parts(
        node_count: usize,
        forward: Csr,
        reverse: Csr,
        labels: Vec<Option<String>>,
    ) -> Graph {
        let edge_count = forward.edge_count();
        Graph {
            node_count,
            edge_count,
            forward,
            reverse,
            labels,
            uid: NEXT_GRAPH_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The forward CSR index itself (binary container serialisation path).
    #[inline]
    pub fn forward_csr(&self) -> &Csr {
        &self.forward
    }

    /// The reverse CSR index itself (binary container serialisation path).
    #[inline]
    pub fn reverse_csr(&self) -> &Csr {
        &self.reverse
    }

    /// All node labels, indexed by node id (binary container path).
    #[inline]
    pub fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// The forward index as flat `(offsets, targets, probs)` slices — the
    /// shape the dense walk kernels iterate: node `u`'s out-edges occupy
    /// `targets[offsets[u] as usize .. offsets[u + 1] as usize]` with the
    /// transition probabilities parallel in `probs`.
    #[inline]
    pub fn forward_flat(&self) -> (&[u32], &[u32], &[f64]) {
        (
            self.forward.raw_offsets(),
            self.forward.raw_targets(),
            self.forward.raw_probs(),
        )
    }

    /// The reverse index as flat `(offsets, sources, probs)` slices, where
    /// `probs` holds the probability `p_uv` of each *original* edge
    /// `u -> v` (what backward pull kernels multiply by).
    #[inline]
    pub fn reverse_flat(&self) -> (&[u32], &[u32], &[f64]) {
        (
            self.reverse.raw_offsets(),
            self.reverse.raw_targets(),
            self.reverse.raw_probs(),
        )
    }

    /// Process-unique identity of this graph's contents: every
    /// [`crate::GraphBuilder::build`] gets a fresh uid, and clones keep it
    /// (their contents are identical).  Equal uids therefore imply equal
    /// graphs within one process — which is what per-graph caches (the
    /// session column cache of `dht-walks`) key on to never serve a column
    /// computed on a different graph.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of nodes `|V_G|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edges `|E_G|` (after merging parallel edges).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }

    /// Checks that every member of `set` is a node of this graph.  Whoever
    /// loads node sets for a graph calls this once, so the joins can index
    /// score columns by member id without a bounds check per pair.
    pub fn check_node_set(&self, set: &NodeSet) -> Result<()> {
        match set.iter().find(|u| u.index() >= self.node_count) {
            Some(node) => Err(GraphError::NodeSetOutOfRange {
                set: set.name().to_string(),
                node: node.0,
                node_count: self.node_count,
            }),
            None => Ok(()),
        }
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.forward.degree(u.index())
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.reverse.degree(u.index())
    }

    /// Out-neighbour ids of `u` as a raw slice (hot-path accessor).
    #[inline]
    pub fn out_targets(&self, u: NodeId) -> &[u32] {
        self.forward.neighbors(u.index())
    }

    /// Transition probabilities `p_uv` parallel to [`Graph::out_targets`].
    #[inline]
    pub fn out_probs(&self, u: NodeId) -> &[f64] {
        self.forward.probs(u.index())
    }

    /// Edge weights parallel to [`Graph::out_targets`].
    #[inline]
    pub fn out_weights(&self, u: NodeId) -> &[f64] {
        self.forward.weights(u.index())
    }

    /// In-neighbour ids of `v` as a raw slice (hot-path accessor).
    #[inline]
    pub fn in_sources(&self, v: NodeId) -> &[u32] {
        self.reverse.neighbors(v.index())
    }

    /// Probabilities `p_uv` of the original edges `u -> v`, parallel to
    /// [`Graph::in_sources`].
    #[inline]
    pub fn in_probs(&self, v: NodeId) -> &[f64] {
        self.reverse.probs(v.index())
    }

    /// Edge weights of the original edges `u -> v`, parallel to
    /// [`Graph::in_sources`].
    #[inline]
    pub fn in_weights(&self, v: NodeId) -> &[f64] {
        self.reverse.weights(v.index())
    }

    /// Out-neighbour ids and transition probabilities of `u` in one call
    /// (hot-path accessor for the frontier walk kernels).
    #[inline]
    pub fn out_targets_probs(&self, u: NodeId) -> (&[u32], &[f64]) {
        self.forward.neighbors_and_probs(u.index())
    }

    /// In-neighbour ids of `v` with the probabilities `p_uv` of the original
    /// edges `u -> v`, in one call (hot-path accessor for the backward
    /// frontier kernel).
    #[inline]
    pub fn in_sources_probs(&self, v: NodeId) -> (&[u32], &[f64]) {
        self.reverse.neighbors_and_probs(v.index())
    }

    /// Sum of the out-degrees of the given nodes — the work estimate of one
    /// sparse *push* step over that frontier, used by the walk kernels'
    /// push/pull (sparse/dense) switch heuristic.
    pub fn frontier_out_degree_sum(&self, frontier: &[u32]) -> usize {
        frontier.iter().map(|&u| self.out_degree(NodeId(u))).sum()
    }

    /// Sum of the in-degrees of the given nodes — the work estimate of one
    /// sparse backward step over that frontier.
    pub fn frontier_in_degree_sum(&self, frontier: &[u32]) -> usize {
        frontier.iter().map(|&u| self.in_degree(NodeId(u))).sum()
    }

    /// Iterator over `(target, weight, probability)` of the out-edges of `u`.
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64, f64)> + '_ {
        let t = self.out_targets(u);
        let w = self.out_weights(u);
        let p = self.out_probs(u);
        t.iter()
            .zip(w.iter())
            .zip(p.iter())
            .map(|((&t, &w), &p)| (NodeId(t), w, p))
    }

    /// Iterator over `(source, weight, probability)` of the in-edges of `v`.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64, f64)> + '_ {
        let s = self.in_sources(v);
        let w = self.in_weights(v);
        let p = self.in_probs(v);
        s.iter()
            .zip(w.iter())
            .zip(p.iter())
            .map(|((&s, &w), &p)| (NodeId(s), w, p))
    }

    /// Iterator over every directed edge `(u, v, weight)` of the graph.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_edges(u).map(move |(v, w, _)| (u, v, w)))
    }

    /// Whether the directed edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.forward.has_edge(u.index(), v.0)
    }

    /// Whether nodes are connected in either direction (useful for the
    /// undirected datasets of the paper).
    pub fn has_edge_either(&self, u: NodeId, v: NodeId) -> bool {
        self.has_edge(u, v) || self.has_edge(v, u)
    }

    /// Transition probability `p_uv`, if the edge `u -> v` exists.
    pub fn transition_prob(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.forward.prob_of(u.index(), v.0)
    }

    /// Weight of the edge `u -> v`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.forward.weight_of(u.index(), v.0)
    }

    /// Optional label of a node (author name, protein id, …).
    pub fn label(&self, u: NodeId) -> Option<&str> {
        self.labels.get(u.index()).and_then(|l| l.as_deref())
    }

    /// A printable name for a node: its label if present, otherwise `n<id>`.
    pub fn display_name(&self, u: NodeId) -> String {
        match self.label(u) {
            Some(l) => l.to_string(),
            None => format!("n{}", u.0),
        }
    }

    /// Looks up a node by exact label (linear scan; intended for tests and
    /// small example programs, not hot paths).
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels
            .iter()
            .position(|l| l.as_deref() == Some(label))
            .map(NodeId::from_index)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.forward.heap_bytes()
            + self.reverse.heap_bytes()
            + self
                .labels
                .iter()
                .map(|l| {
                    l.as_ref().map_or(0, |s| s.capacity()) + std::mem::size_of::<Option<String>>()
                })
                .sum::<usize>()
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// * every node's outgoing transition probabilities sum to 1 (or its
    ///   out-degree is 0);
    /// * the reverse index mirrors the forward index exactly.
    pub fn validate(&self) -> bool {
        for u in self.nodes() {
            let probs = self.out_probs(u);
            if !probs.is_empty() {
                let sum: f64 = probs.iter().sum();
                if (sum - 1.0).abs() > 1e-9 {
                    return false;
                }
            }
            for (v, w, p) in self.out_edges(u) {
                let found = self
                    .in_edges(v)
                    .any(|(s, w2, p2)| s == u && (w2 - w).abs() < 1e-12 && (p2 - p).abs() < 1e-12);
                if !found {
                    return false;
                }
            }
        }
        let reverse_edges: usize = self.nodes().map(|v| self.in_degree(v)).sum();
        reverse_edges == self.edge_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (unit weights)
        let mut b = GraphBuilder::with_nodes(4);
        for (u, v) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
            b.add_unit_edge(NodeId(u), NodeId(v)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
    }

    #[test]
    fn forward_and_reverse_agree() {
        let g = diamond();
        assert!(g.validate());
        let in_sources: Vec<u32> = g.in_sources(NodeId(3)).to_vec();
        assert_eq!(in_sources, vec![1, 2]);
        assert_eq!(g.in_probs(NodeId(3)), &[1.0, 1.0]);
    }

    #[test]
    fn out_edges_iterator_matches_slices() {
        let g = diamond();
        let collected: Vec<(NodeId, f64, f64)> = g.out_edges(NodeId(0)).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, NodeId(1));
        assert!((collected[0].2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_covers_every_edge() {
        let g = diamond();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&(NodeId(2), NodeId(3), 1.0)));
    }

    #[test]
    fn probability_normalisation() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 3.0).unwrap();
        let g = b.build().unwrap();
        let probs = g.out_probs(NodeId(0));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((g.transition_prob(NodeId(0), NodeId(2)).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn labels_and_lookup() {
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_node("alice");
        let c = b.add_node();
        b.add_unit_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.label(a), Some("alice"));
        assert_eq!(g.node_by_label("alice"), Some(a));
        assert_eq!(g.node_by_label("bob"), None);
        assert_eq!(g.display_name(a), "alice");
        assert_eq!(g.display_name(c), "n1");
    }

    #[test]
    fn has_edge_either_direction() {
        let g = diamond();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert!(g.has_edge_either(NodeId(1), NodeId(0)));
        assert!(!g.has_edge_either(NodeId(1), NodeId(2)));
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let b = GraphBuilder::with_nodes(2);
        let g = b.build().unwrap();
        assert_eq!(g.out_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(1)), 0);
        assert!(g.validate());
    }
}
