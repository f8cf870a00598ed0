//! Node sets — the operands of 2-way and n-way joins.
//!
//! A [`NodeSet`] is a named, duplicate-free, ordered collection of node ids
//! (`R_i ⊆ V_G` in the paper).  Iteration order is the insertion order used
//! when the set was created; membership and position lookups are
//! `O(log n)` binary searches over an auxiliary index of positions sorted by
//! node id, and the set's [`NodeSet::signature`] is computed once, at
//! construction.

use crate::hash::{fnv1a, fnv1a_fold};
use crate::node::NodeId;

/// A named subset of the nodes of a graph, used as one operand of a join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSet {
    name: String,
    members: Vec<NodeId>,
    /// Positions into `members`, sorted by the member's id.
    by_id: Vec<u32>,
    signature: u64,
}

impl NodeSet {
    /// Creates a node set from an iterator of node ids.  Duplicates are
    /// removed, keeping the first occurrence.  `O(n log n)`.
    pub fn new(name: impl Into<String>, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut members: Vec<NodeId> = nodes.into_iter().collect();
        let listed = u32::try_from(members.len()).expect("a node set lists at most u32::MAX ids");
        let mut by_id: Vec<u32> = (0..listed).collect();
        // By id, then by input position: the first of each run of equal ids
        // is that id's first occurrence.
        by_id.sort_unstable_by_key(|&at| (members[at as usize], at));
        by_id.dedup_by_key(|at| members[*at as usize]);
        if by_id.len() < members.len() {
            // The survivors' input positions, ascending: a survivor's rank
            // among them is its position in the set.
            let mut kept = by_id.clone();
            kept.sort_unstable();
            members = kept.iter().map(|&at| members[at as usize]).collect();
            for at in &mut by_id {
                *at = kept.binary_search(at).expect("every survivor is listed") as u32;
            }
        }
        let mut signature = fnv1a(&(members.len() as u64).to_le_bytes());
        for node in &members {
            signature = fnv1a_fold(signature, &node.0.to_le_bytes());
        }
        NodeSet {
            name: name.into(),
            members,
            by_id,
            signature,
        }
    }

    /// Creates an empty node set.
    pub fn empty(name: impl Into<String>) -> Self {
        NodeSet::new(name, [])
    }

    /// The set's name (e.g. "DB", "AI", "SYS").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of member nodes `|R_i|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members in insertion order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Iterator over members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Membership test (binary search over the sorted index).
    pub fn contains(&self, node: NodeId) -> bool {
        self.position(node).is_some()
    }

    /// Position of `node` in insertion order, if it is a member (binary
    /// search over the sorted index).
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.by_id
            .binary_search_by_key(&node, |&at| self.members[at as usize])
            .ok()
            .map(|found| self.by_id[found] as usize)
    }

    /// Order-sensitive 64-bit signature of the membership (FNV-1a over the
    /// length and the ids in insertion order; the name is not part of it).
    /// Computed once at construction, so keying a cache on a node set costs
    /// a field read however large the set is.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Returns a new node set containing only the members also present in
    /// `other`.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        let members = self.members.iter().copied().filter(|&n| other.contains(n));
        NodeSet::new(format!("{}∩{}", self.name, other.name), members)
    }

    /// Returns a membership bitmap of length `node_count`, used by hot walk
    /// loops to avoid hashing.
    pub fn membership_bitmap(&self, node_count: usize) -> Vec<bool> {
        let mut bitmap = vec![false; node_count];
        for &n in &self.members {
            if n.index() < node_count {
                bitmap[n.index()] = true;
            }
        }
        bitmap
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.members.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(values: &[u32]) -> Vec<NodeId> {
        values.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn construction_removes_duplicates_preserving_order() {
        let s = NodeSet::new("P", ids(&[5, 3, 5, 8, 3]));
        assert_eq!(s.len(), 3);
        assert_eq!(s.members(), &ids(&[5, 3, 8])[..]);
    }

    #[test]
    fn membership_and_position() {
        let s = NodeSet::new("P", ids(&[10, 20, 30]));
        assert!(s.contains(NodeId(20)));
        assert!(!s.contains(NodeId(25)));
        assert_eq!(s.position(NodeId(30)), Some(2));
        assert_eq!(s.position(NodeId(99)), None);
    }

    #[test]
    fn position_is_the_first_occurrence_rank_on_unsorted_input_with_duplicates() {
        // Reference: the quadratic definition — keep a node the first time
        // it is seen; its position is how many were kept before it.
        let input: Vec<u32> = (0..500u32).map(|i| (i * 7919 + i / 3) % 97).collect();
        let mut expected: Vec<NodeId> = Vec::new();
        for &n in &input {
            if !expected.contains(&NodeId(n)) {
                expected.push(NodeId(n));
            }
        }
        let s = NodeSet::new("P", ids(&input));
        assert_eq!(s.members(), &expected[..]);
        for (at, &node) in expected.iter().enumerate() {
            assert_eq!(s.position(node), Some(at));
        }
        assert_eq!(s.position(NodeId(97)), None);
    }

    #[test]
    fn signature_is_order_and_content_sensitive_and_ignores_name_and_duplicates() {
        let a = NodeSet::new("A", ids(&[1, 2, 3]));
        assert_ne!(
            a.signature(),
            NodeSet::new("A", ids(&[3, 2, 1])).signature()
        );
        assert_ne!(a.signature(), NodeSet::new("A", ids(&[1, 2])).signature());
        assert_eq!(
            a.signature(),
            NodeSet::new("B", ids(&[1, 2, 1, 3])).signature()
        );
        assert_eq!(
            NodeSet::empty("E").signature(),
            NodeSet::new("E", ids(&[])).signature()
        );
    }

    #[test]
    fn empty_set() {
        let s = NodeSet::empty("Q");
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(NodeId(0)));
        assert_eq!(s.name(), "Q");
    }

    #[test]
    fn intersection() {
        let a = NodeSet::new("A", ids(&[1, 2, 3, 4]));
        let b = NodeSet::new("B", ids(&[3, 4, 5]));
        let i = a.intersection(&b);
        assert_eq!(i.members(), &ids(&[3, 4])[..]);
    }

    #[test]
    fn bitmap_covers_members_only() {
        let s = NodeSet::new("P", ids(&[0, 2]));
        let bm = s.membership_bitmap(4);
        assert_eq!(bm, vec![true, false, true, false]);
    }

    #[test]
    fn bitmap_ignores_out_of_range_members() {
        let s = NodeSet::new("P", ids(&[1, 9]));
        let bm = s.membership_bitmap(3);
        assert_eq!(bm, vec![false, true, false]);
    }

    #[test]
    fn iteration_matches_members() {
        let s = NodeSet::new("P", ids(&[7, 1]));
        let collected: Vec<NodeId> = (&s).into_iter().collect();
        assert_eq!(collected, ids(&[7, 1]));
        let collected2: Vec<NodeId> = s.iter().collect();
        assert_eq!(collected2, ids(&[7, 1]));
    }
}
