//! Lamport logical clocks and epoch identifiers (paper §3.1, §4.2).
//!
//! An LLC is a pair `<version, machine-id>` with a total order: compare
//! versions, break ties on machine id. All three protocols in Kite use
//! per-key LLCs to serialize writes without centralized ordering points:
//! ES stamps relaxed writes, ABD stamps releases and read write-backs, and
//! Paxos uses LLCs as ballots.

use crate::ids::NodeId;

/// A Lamport logical clock value (`<v, mid>` in the paper, §3.1).
///
/// `Lc::ZERO` is the initial clock of every key. A machine generates a fresh
/// clock dominating an observed clock `c` with [`Lc::succ`], which is
/// globally unique because it embeds the machine id.
///
/// Packed into a single `u64` — version in the high 56 bits, machine id in
/// the low 8 — so an `Lc` is one register wide: clocks appear in every wire
/// message and every store record, and the packing is what lets the hot
/// `Msg` variants fit in a cache line. The lexicographic `(version, mid)`
/// order falls out of plain integer comparison because the version occupies
/// the high bits. Versions are bounded at 2⁵⁶−1, which at one write per
/// nanosecond takes over two years to exhaust.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lc(u64);

/// Bits holding the machine id.
const MID_BITS: u32 = 8;

impl Lc {
    /// The initial clock: smaller than every clock ever generated.
    pub const ZERO: Lc = Lc(0);

    /// Largest representable version number.
    pub const MAX_VERSION: u64 = (1 << (64 - MID_BITS)) - 1;

    /// The RMW tag bit inside the mid byte. Deployments are capped at 16
    /// replicas (`NodeId::MAX_NODES`), so bits 4–7 of the mid byte are
    /// structurally free; bit 7 partitions the stamp space into relaxed
    /// stamps (minted under the key's seqlock by `succ`) and RMW commit
    /// stamps (minted at Paxos decide time by [`Lc::succ_rmw`], *outside*
    /// the seqlock). Two stamps from different partitions can never be
    /// equal, so a decide-time mint racing a concurrent fast write's
    /// locked mint of the same observed version no longer produces two
    /// different values under one `(version, mid)` stamp — the collision
    /// LLC-max could never repair (equal stamps read as converged).
    pub const RMW_TAG: u8 = 0x80;

    #[inline]
    /// Build a clock from a version and the creating machine's id.
    pub fn new(version: u64, mid: NodeId) -> Self {
        debug_assert!(version <= Self::MAX_VERSION, "Lc version overflow");
        Lc((version << MID_BITS) | mid.0 as u64)
    }

    /// Monotonically increasing version number.
    #[inline]
    pub fn version(self) -> u64 {
        self.0 >> MID_BITS
    }

    /// Id of the machine that created this clock — the tie-breaker.
    #[inline]
    pub fn mid(self) -> u8 {
        self.0 as u8
    }

    /// The smallest clock owned by `mid` that dominates `self`.
    ///
    /// This is the write-serialization step of ES and ABD: read the key's
    /// current (or quorum-max) clock, then stamp the new write with
    /// `max_seen.succ(my_id)`.
    #[inline]
    pub fn succ(self, mid: NodeId) -> Lc {
        Lc::new(self.version() + 1, mid)
    }

    /// The smallest **RMW-tagged** clock owned by `mid` that dominates
    /// `self` — the decide-time mint for Paxos commit stamps (see
    /// [`Lc::RMW_TAG`] for why the tag exists). Same version arithmetic as
    /// [`Lc::succ`]; only the mid byte differs, so the total order and the
    /// "successor strictly dominates" property are untouched.
    #[inline]
    pub fn succ_rmw(self, mid: NodeId) -> Lc {
        Lc((self.version() + 1) << MID_BITS | (mid.0 | Self::RMW_TAG) as u64)
    }

    /// Whether this stamp was minted by an RMW commit ([`Lc::succ_rmw`]).
    #[inline]
    pub fn is_rmw(self) -> bool {
        self.mid() & Self::RMW_TAG != 0
    }

    /// Owner of this clock (the RMW tag stripped, so the result is always
    /// a real replica id).
    #[inline]
    pub fn owner(self) -> NodeId {
        NodeId(self.mid() & !Self::RMW_TAG)
    }
}

impl std::fmt::Debug for Lc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lc({}.{})", self.version(), self.mid())
    }
}

impl std::fmt::Display for Lc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.version(), self.mid())
    }
}

/// A machine or per-key epoch identifier (paper §4.2).
///
/// Every machine holds one monotonically increasing *machine epoch-id*;
/// every key stores a *per-key epoch-id*. A key is **in-epoch** (fast path,
/// local ES access) iff its epoch equals the machine epoch; otherwise it is
/// **out-of-epoch** and must be refreshed through the slow path. Epochs of
/// different machines are not interrelated.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// Epoch 0 — the initial epoch everywhere.
    pub const ZERO: Epoch = Epoch(0);
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_minimum() {
        assert!(Lc::ZERO <= Lc::new(0, NodeId(0)));
        assert!(Lc::ZERO < Lc::new(0, NodeId(1)));
        assert!(Lc::ZERO < Lc::new(1, NodeId(0)));
    }

    #[test]
    fn version_dominates_mid() {
        // A bigger version always wins regardless of machine id.
        assert!(Lc::new(2, NodeId(0)) > Lc::new(1, NodeId(9)));
    }

    #[test]
    fn mid_breaks_ties() {
        assert!(Lc::new(3, NodeId(2)) > Lc::new(3, NodeId(1)));
        assert_eq!(Lc::new(3, NodeId(2)), Lc::new(3, NodeId(2)));
    }

    #[test]
    fn succ_dominates_and_is_unique_per_machine() {
        let base = Lc::new(7, NodeId(4));
        let a = base.succ(NodeId(1));
        let b = base.succ(NodeId(2));
        assert!(a > base && b > base);
        assert_ne!(a, b);
        assert!(b > a); // same version, machine id breaks the tie
    }

    #[test]
    fn succ_of_concurrent_clocks_converges() {
        // Two machines that both observed version 5 produce distinct,
        // totally ordered successors — no coordination needed (§3.1).
        let seen = Lc::new(5, NodeId(0));
        let w1 = seen.succ(NodeId(1));
        let w2 = seen.succ(NodeId(2));
        assert!(w1 != w2 && (w1 < w2 || w2 < w1));
    }

    #[test]
    fn packed_representation_round_trips_and_is_one_word() {
        assert_eq!(std::mem::size_of::<Lc>(), 8);
        let lc = Lc::new(123_456_789, NodeId(7));
        assert_eq!(lc.version(), 123_456_789);
        assert_eq!(lc.mid(), 7);
        assert_eq!(lc.owner(), NodeId(7));
        let hi = Lc::new(Lc::MAX_VERSION, NodeId(255));
        assert_eq!(hi.version(), Lc::MAX_VERSION);
        assert_eq!(hi.mid(), 255);
    }

    #[test]
    fn rmw_stamps_are_partitioned_from_relaxed_stamps() {
        // Same observed clock, same minting machine: the RMW-tagged
        // successor and the relaxed successor must differ — that
        // inequality is the whole point of the partition.
        let seen = Lc::new(9, NodeId(3));
        let relaxed = seen.succ(NodeId(1));
        let rmw = seen.succ_rmw(NodeId(1));
        assert_ne!(relaxed, rmw);
        assert_eq!(relaxed.version(), rmw.version());
        assert!(rmw > seen && relaxed > seen, "both successors dominate");
        assert!(rmw.is_rmw() && !relaxed.is_rmw());
        // The tag never leaks into ownership: both stamps belong to node 1.
        assert_eq!(rmw.owner(), NodeId(1));
        assert_eq!(relaxed.owner(), NodeId(1));
        // Chaining through either mint keeps versions monotone.
        assert!(rmw.succ(NodeId(0)) > rmw);
        assert!(relaxed.succ_rmw(NodeId(0)) > relaxed);
        assert_eq!(Lc::ZERO.succ_rmw(NodeId(0)).version(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Lc::new(4, NodeId(2)).to_string(), "4.2");
        assert_eq!(Epoch(3).to_string(), "e3");
    }
}
