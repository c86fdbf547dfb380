//! Sets of replicas and quorum arithmetic.
//!
//! Every quorum-gathering step of the protocols (ABD rounds, Paxos phases,
//! slow-release acknowledgement, the release's wait-for-all) tracks *which*
//! replicas have responded, not just how many: the release path needs the
//! exact set of delinquent machines (the DM-set, §4.1), and retransmission
//! targets only non-responders. A `NodeSet` is a `u16` bitmask over node ids,
//! so all of this is branch-free bit math.

use crate::ids::NodeId;

/// A set of node ids, stored as a bitmask (deployments are ≤ 16 nodes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet(pub u16);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// The full set `{0, …, n-1}` for an `n`-node deployment.
    #[inline]
    pub fn all(n: usize) -> NodeSet {
        debug_assert!(n <= NodeId::MAX_NODES);
        if n >= 16 {
            NodeSet(u16::MAX)
        } else {
            NodeSet((1u16 << n) - 1)
        }
    }

    #[inline]
    /// A one-member set.
    pub fn singleton(n: NodeId) -> NodeSet {
        NodeSet(1 << n.0)
    }

    #[inline]
    /// Add `n` to the set.
    pub fn insert(&mut self, n: NodeId) {
        self.0 |= 1 << n.0;
    }

    #[inline]
    /// Remove `n` from the set.
    pub fn remove(&mut self, n: NodeId) {
        self.0 &= !(1 << n.0);
    }

    #[inline]
    /// Whether `n` is a member.
    pub fn contains(self, n: NodeId) -> bool {
        self.0 & (1 << n.0) != 0
    }

    #[inline]
    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    #[inline]
    /// Whether the set has no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Set difference: members of `self` not in `other`.
    #[inline]
    pub fn minus(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    #[inline]
    /// Set intersection.
    pub fn intersect(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// Majority-quorum size for an `n`-node deployment: `⌊n/2⌋ + 1`.
    #[inline]
    pub fn quorum_size(n: usize) -> usize {
        n / 2 + 1
    }

    /// `true` iff this set is a majority quorum of an `n`-node deployment.
    #[inline]
    pub fn is_quorum(self, n: usize) -> bool {
        self.len() >= Self::quorum_size(n)
    }

    /// `true` iff this set contains all `n` nodes (the release fast-path
    /// condition: every prior write acked by *all*, §4.2).
    #[inline]
    pub fn is_all(self, n: usize) -> bool {
        self == Self::all(n)
    }

    /// Iterate members in increasing id order.
    #[inline]
    pub fn iter(self) -> NodeSetIter {
        NodeSetIter(self.0)
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(|n| n.0)).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = NodeSetIter;
    fn into_iter(self) -> NodeSetIter {
        self.iter()
    }
}

/// Iterator over the members of a [`NodeSet`].
pub struct NodeSetIter(u16);

impl Iterator for NodeSetIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            let id = self.0.trailing_zeros() as u8;
            self.0 &= self.0 - 1;
            Some(NodeId(id))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for NodeSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::EMPTY;
        s.insert(NodeId(3));
        s.insert(NodeId(0));
        assert!(s.contains(NodeId(3)) && s.contains(NodeId(0)));
        assert!(!s.contains(NodeId(1)));
        s.remove(NodeId(3));
        assert!(!s.contains(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn all_and_is_all() {
        let s = NodeSet::all(5);
        assert_eq!(s.len(), 5);
        assert!(s.is_all(5));
        let mut t = s;
        t.remove(NodeId(2));
        assert!(!t.is_all(5));
    }

    #[test]
    fn quorum_sizes_match_paper_deployments() {
        // Paper deployments: 3–9 machines, quorum = majority.
        assert_eq!(NodeSet::quorum_size(3), 2);
        assert_eq!(NodeSet::quorum_size(5), 3);
        assert_eq!(NodeSet::quorum_size(7), 4);
        assert_eq!(NodeSet::quorum_size(9), 5);
    }

    #[test]
    fn two_quorums_always_intersect() {
        // The quorum-intersection property underlying ABD and the
        // slow-release invariant (§4.1): any two majorities share a node.
        for n in 3..=9usize {
            let all: Vec<NodeId> = (0..n as u8).map(NodeId).collect();
            let q = NodeSet::quorum_size(n);
            // first q nodes vs last q nodes — the minimal-overlap pair
            let a: NodeSet = all[..q].iter().copied().collect();
            let b: NodeSet = all[n - q..].iter().copied().collect();
            assert!(
                !a.intersect(b).is_empty(),
                "quorums of size {q} in n={n} must intersect"
            );
        }
    }

    #[test]
    fn minus_computes_dm_set() {
        // DM-set computation: all nodes minus the ackers (§4.2).
        let acked: NodeSet = [NodeId(0), NodeId(2), NodeId(3)].into_iter().collect();
        let dm = NodeSet::all(5).minus(acked);
        assert_eq!(dm, [NodeId(1), NodeId(4)].into_iter().collect());
    }

    #[test]
    fn iter_in_order() {
        let s: NodeSet = [NodeId(4), NodeId(1), NodeId(9)].into_iter().collect();
        let v: Vec<u8> = s.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![1, 4, 9]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn union_intersect() {
        let a: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
        let b: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersect(b), NodeSet::singleton(NodeId(1)));
    }

    #[test]
    fn sixteen_node_all() {
        assert_eq!(NodeSet::all(16).len(), 16);
    }
}
