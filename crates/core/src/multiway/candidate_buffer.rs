//! Candidate buffers `C_{R_i,R_j}` (Step 11 of Algorithm 1).
//!
//! A candidate buffer stores every node pair pulled so far for one query
//! edge, indexed by both endpoints so that `getCandidate` can extend a
//! partial answer through either side of the edge in `O(matches)`.
//!
//! The paper describes the buffer as a `|R_i| × |R_j|` array; two adjacency
//! maps keyed by node id — one per endpoint — are equivalent but only use
//! memory proportional to the number of pairs actually pulled, which for PJ
//! is `m + Δ` rather than `|R_i|·|R_j|`.  The keys are node ids the join
//! itself pulled, so the maps hash with [`MixBuildHasher`] (one multiply per
//! lookup) rather than SipHash.

use std::collections::HashMap;

use dht_graph::{MixBuildHasher, NodeId};

/// Pairs pulled for one query edge, indexed by both endpoints.
#[derive(Debug, Clone, Default)]
pub struct CandidateBuffer {
    by_left: HashMap<u32, Vec<(u32, f64)>, MixBuildHasher>,
    by_right: HashMap<u32, Vec<(u32, f64)>, MixBuildHasher>,
    len: usize,
}

impl CandidateBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a scored pair.  Pairs are expected to be inserted at most
    /// once (the rank join pulls each list entry exactly once).
    pub fn insert(&mut self, left: NodeId, right: NodeId, score: f64) {
        self.by_left
            .entry(left.0)
            .or_default()
            .push((right.0, score));
        self.by_right
            .entry(right.0)
            .or_default()
            .push((left.0, score));
        self.len += 1;
    }

    /// The score of `(left, right)` if that pair has been pulled.
    pub fn score_of(&self, left: NodeId, right: NodeId) -> Option<f64> {
        self.by_left
            .get(&left.0)?
            .iter()
            .find(|&&(r, _)| r == right.0)
            .map(|&(_, s)| s)
    }

    /// All stored pairs `(right, score)` whose left endpoint is `left`.
    pub fn with_left(&self, left: NodeId) -> &[(u32, f64)] {
        self.by_left.get(&left.0).map_or(&[], Vec::as_slice)
    }

    /// All stored pairs `(left, score)` whose right endpoint is `right`.
    pub fn with_right(&self, right: NodeId) -> &[(u32, f64)] {
        self.by_right.get(&right.0).map_or(&[], Vec::as_slice)
    }

    /// Iterates over every stored `(left, right, score)` triple.
    pub fn iter_all(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.by_left
            .iter()
            .flat_map(|(&l, pairs)| pairs.iter().map(move |&(r, s)| (NodeId(l), NodeId(r), s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_both_endpoints() {
        let mut buf = CandidateBuffer::new();
        buf.insert(NodeId(1), NodeId(10), 0.5);
        buf.insert(NodeId(1), NodeId(11), 0.4);
        buf.insert(NodeId(2), NodeId(10), 0.3);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.with_left(NodeId(1)), &[(10, 0.5), (11, 0.4)]);
        assert_eq!(buf.with_right(NodeId(10)), &[(1, 0.5), (2, 0.3)]);
        assert_eq!(buf.with_left(NodeId(99)), &[]);
    }

    #[test]
    fn score_lookup() {
        let mut buf = CandidateBuffer::new();
        buf.insert(NodeId(3), NodeId(7), 0.9);
        assert_eq!(buf.score_of(NodeId(3), NodeId(7)), Some(0.9));
        assert_eq!(
            buf.score_of(NodeId(7), NodeId(3)),
            None,
            "direction matters"
        );
        assert_eq!(buf.score_of(NodeId(3), NodeId(8)), None);
    }

    #[test]
    fn iter_all_visits_every_pair() {
        let mut buf = CandidateBuffer::new();
        buf.insert(NodeId(1), NodeId(2), 0.1);
        buf.insert(NodeId(3), NodeId(4), 0.2);
        let mut all: Vec<(u32, u32)> = buf.iter_all().map(|(l, r, _)| (l.0, r.0)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn empty_buffer_behaviour() {
        let buf = CandidateBuffer::new();
        assert!(buf.is_empty());
        assert_eq!(buf.score_of(NodeId(0), NodeId(1)), None);
        assert_eq!(buf.iter_all().count(), 0);
    }
}
