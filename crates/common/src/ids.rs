//! Identifiers for the entities of a Kite deployment.
//!
//! A deployment is 3–9 *nodes* (machines); each node runs several *workers*
//! (threads); each worker serves several *sessions* (the client-visible unit
//! of program order). Operations issued by a session carry an [`OpId`] that
//! is unique across the deployment — the paper relies on such unique ids to
//! tag acquires (for the delinquency reset handshake, §4.2.1) and RMW
//! commands (so helped commands are not executed twice).

/// Identifier of a machine (replica). The paper deploys 3–9 machines; we cap
/// at [`NodeId::MAX_NODES`] so node sets fit in a `u16` bitmask.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u8);

impl NodeId {
    /// Upper bound on deployment size (the paper targets 3–9 replicas).
    pub const MAX_NODES: usize = 16;

    /// Index form for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Globally unique session identifier.
///
/// Sessions define program order: the ordering rules of RC (§5.1) are all
/// phrased in terms of the session order of the issuing session. A session is
/// pinned to exactly one worker (§6.1) so workers never synchronize on
/// session state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId {
    /// Node the session lives on.
    pub node: NodeId,
    /// Session slot within the node (across all of its workers).
    pub slot: u32,
}

impl SessionId {
    #[inline]
    /// Build a session id from a node and a slot.
    pub fn new(node: NodeId, slot: u32) -> Self {
        SessionId { node, slot }
    }

    /// Dense global index given the per-node session count, used for
    /// histogram/trace arrays.
    #[inline]
    pub fn global_idx(self, sessions_per_node: usize) -> usize {
        self.node.idx() * sessions_per_node + self.slot as usize
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}s{}", self.node, self.slot)
    }
}

/// Unique identifier for one operation of one session: `(session, seq)`.
///
/// * Acquires embed their `OpId` in delinquency-reset messages so a reset is
///   applied only for the acquire that observed the transient bit (§4.2.1).
/// * RMW commands carry their `OpId` so a command completed by a helping
///   proposer is never re-executed by its owner (paper §3.4; the per-key
///   committed ring in `kite_kvs::paxos_meta` is the dedup record).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId {
    /// The owning session.
    pub session: SessionId,
    /// Sequence number within the session (program order).
    pub seq: u64,
}

impl OpId {
    #[inline]
    /// Build an operation id.
    pub fn new(session: SessionId, seq: u64) -> Self {
        OpId { session, seq }
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.session, self.seq)
    }
}

/// A key of the store. The paper's evaluation uses 8-byte keys accessed
/// uniformly from a 1M-key space; we keep keys as `u64` and hash them inside
/// the KVS (MICA does the same with its keyhash).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Key(pub u64);

impl Key {
    /// 64-bit avalanche hash (splitmix64 finalizer). Used by the KVS for
    /// bucket selection and by workload generators for key scrambling.
    #[inline]
    pub fn hash(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl From<u64> for Key {
    #[inline]
    fn from(v: u64) -> Self {
        Key(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_idx() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).idx(), 3);
    }

    #[test]
    fn session_global_idx_is_dense() {
        let per_node = 8;
        let mut seen = std::collections::HashSet::new();
        for n in 0..4u8 {
            for s in 0..per_node as u32 {
                assert!(seen.insert(SessionId::new(NodeId(n), s).global_idx(per_node)));
            }
        }
        assert_eq!(seen.len(), 32);
        assert_eq!(*seen.iter().max().unwrap(), 31);
    }

    #[test]
    fn op_id_orders_by_session_then_seq() {
        let s0 = SessionId::new(NodeId(0), 0);
        let s1 = SessionId::new(NodeId(0), 1);
        assert!(OpId::new(s0, 5) < OpId::new(s1, 0));
        assert!(OpId::new(s0, 1) < OpId::new(s0, 2));
    }

    #[test]
    fn key_hash_spreads_sequential_keys() {
        // Sequential keys must land in different low-bit buckets most of the
        // time, otherwise MICA-style bucketing degenerates.
        let mut buckets = std::collections::HashSet::new();
        for k in 0..1024u64 {
            buckets.insert(Key(k).hash() & 0xFF);
        }
        assert!(buckets.len() > 200, "only {} distinct buckets", buckets.len());
    }

    #[test]
    fn key_hash_is_deterministic() {
        assert_eq!(Key(42).hash(), Key(42).hash());
        assert_ne!(Key(42).hash(), Key(43).hash());
    }

    #[test]
    fn display_formats() {
        let sid = SessionId::new(NodeId(1), 7);
        assert_eq!(sid.to_string(), "n1s7");
        assert_eq!(OpId::new(sid, 9).to_string(), "n1s7#9");
        assert_eq!(Key(12).to_string(), "k12");
    }
}
