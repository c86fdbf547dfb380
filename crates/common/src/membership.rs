//! Dynamic cluster membership: the versioned voter/learner sets and the
//! lock-free cell every layer reads them from.
//!
//! The deployment's `ClusterConfig` still fixes the *slot capacity* (how
//! many node ids exist, how big the link tables are); which of those slots
//! currently **vote** — count toward quorums, receive protocol rounds — and
//! which are non-voting **learners** (receive only anti-entropy traffic
//! while they bulk-sync) is a [`Membership`] value versioned by a
//! monotonically increasing **membership epoch**.
//!
//! A configuration change is not a side channel: it is an ordinary
//! strong-CAS RMW on the reserved [`MEMBERSHIP_KEY`], run through the same
//! per-key Paxos machinery as any other RMW (Hermes-style: the change path
//! rides the replicated machinery it reconfigures). Every replica installs
//! the new membership at its store-apply choke point, so commits, WAL
//! replay and anti-entropy repairs all distribute membership for free — a
//! bulk-syncing learner literally *learns* the current configuration by
//! syncing.
//!
//! Every outgoing envelope/frame is stamped with the sender's membership
//! epoch (the same evidence-travels-with-advancement discipline as the
//! committed-ring invariant); receivers drop stale-epoch traffic and answer
//! with a repair of [`MEMBERSHIP_KEY`], so a lagging sender converges in
//! one round trip and retransmission does the rest.
//!
//! The in-memory representation is one `u64` — `epoch:32 | voters:16 |
//! learners:16` — held in an [`MembershipCell`] (a single atomic), so the
//! hot-path reads (`quorum()`, `voters()` on every reply) are one relaxed
//! load plus bit math.

use crate::config::ClusterConfig;
use crate::ids::Key;
use crate::nodeset::NodeSet;
use crate::value::Val;

/// The reserved system key holding the encoded [`Membership`]. One below
/// `u64::MAX` (the store's empty-slot sentinel); workloads draw keys from
/// `0..cfg.keys`, so no collision is possible.
pub const MEMBERSHIP_KEY: Key = Key(u64::MAX - 1);

/// A versioned cluster configuration: who votes, who is still learning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Membership {
    /// Monotonically increasing configuration version. Epoch 0 is the
    /// config-file bootstrap membership (nothing stored under
    /// [`MEMBERSHIP_KEY`] yet); every committed `ConfigChange` CAS bumps it
    /// by exactly one.
    pub epoch: u32,
    /// Replicas that count toward quorums and receive protocol rounds.
    pub voters: NodeSet,
    /// Non-voting replicas bulk-syncing via anti-entropy. They receive
    /// digest/repair traffic only; their acks are never awaited.
    pub learners: NodeSet,
}

impl Membership {
    /// The epoch-0 membership a node boots with, derived from the static
    /// config: `initial_voters` (empty set = every configured slot) minus
    /// nothing, plus `initial_learners`.
    pub fn bootstrap(cfg: &ClusterConfig) -> Membership {
        let voters = if cfg.initial_voters.is_empty() {
            cfg.all_nodes().minus(cfg.initial_learners)
        } else {
            cfg.initial_voters
        };
        Membership { epoch: 0, voters, learners: cfg.initial_learners }
    }

    /// Voters ∪ learners: every slot that should receive any traffic.
    #[inline]
    pub fn members(&self) -> NodeSet {
        self.voters.union(self.learners)
    }

    /// Majority-quorum size over the **voter** set.
    #[inline]
    pub fn quorum(&self) -> usize {
        NodeSet::quorum_size(self.voters.len())
    }

    /// Pack into the cell/wire representation:
    /// `epoch:32 | voters:16 | learners:16`.
    #[inline]
    pub fn pack(&self) -> u64 {
        ((self.epoch as u64) << 32) | ((self.voters.0 as u64) << 16) | self.learners.0 as u64
    }

    /// Inverse of [`Membership::pack`]. Total: every `u64` is a valid
    /// packing.
    #[inline]
    pub fn unpack(raw: u64) -> Membership {
        Membership {
            epoch: (raw >> 32) as u32,
            voters: NodeSet((raw >> 16) as u16),
            learners: NodeSet(raw as u16),
        }
    }

    /// Encode as the [`MEMBERSHIP_KEY`] store value (8 LE bytes of the
    /// packed form) — what `ConfigChange` CASes write.
    pub fn to_val(&self) -> Val {
        Val::from_bytes(&self.pack().to_le_bytes())
    }

    /// Decode a store value. `None` for anything that is not an 8-byte
    /// packed membership (notably `Val::EMPTY`, the pre-first-change
    /// state), so callers fall back to their bootstrap membership instead
    /// of installing garbage.
    pub fn from_val(v: &Val) -> Option<Membership> {
        let b: [u8; 8] = v.as_bytes().try_into().ok()?;
        Some(Membership::unpack(u64::from_le_bytes(b)))
    }

    /// The successor membership with `node` added as a learner.
    pub fn with_learner(mut self, node: crate::ids::NodeId) -> Membership {
        self.epoch += 1;
        self.voters.remove(node);
        self.learners.insert(node);
        self
    }

    /// The successor membership with `node` promoted learner → voter.
    pub fn with_promoted(mut self, node: crate::ids::NodeId) -> Membership {
        self.epoch += 1;
        self.learners.remove(node);
        self.voters.insert(node);
        self
    }

    /// The successor membership with `node` removed entirely.
    pub fn with_retired(mut self, node: crate::ids::NodeId) -> Membership {
        self.epoch += 1;
        self.voters.remove(node);
        self.learners.remove(node);
        self
    }
}

impl std::fmt::Display for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{} voters={:?} learners={:?}", self.epoch, self.voters, self.learners)
    }
}

/// The lock-free membership cell every layer shares: one packed
/// [`Membership`] in an atomic `u64`. Readers (quorum checks on every
/// protocol reply, the fabric's dial pass) pay a single relaxed load;
/// writers install monotonically by epoch, so racing installers — a commit
/// apply on one worker, an anti-entropy repair on another — converge on
/// the highest epoch regardless of interleaving.
pub struct MembershipCell(std::sync::atomic::AtomicU64);

impl MembershipCell {
    /// A cell holding `m`.
    pub fn new(m: Membership) -> MembershipCell {
        MembershipCell(std::sync::atomic::AtomicU64::new(m.pack()))
    }

    /// The current membership.
    // ordering: Relaxed — the cell is a self-contained packed value (no
    // other memory is published with it); stale reads are indistinguishable
    // from reading a moment earlier, and the stale-epoch nack path corrects
    // any consequence within one round trip.
    #[inline]
    pub fn load(&self) -> Membership {
        Membership::unpack(self.0.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// The current membership epoch (hot path: envelope stamping/gating).
    // ordering: Relaxed — see `load`.
    #[inline]
    pub fn epoch(&self) -> u32 {
        (self.0.load(std::sync::atomic::Ordering::Relaxed) >> 32) as u32
    }

    /// Install `m` if (and only if) its epoch is strictly newer than the
    /// current one. Returns whether the install happened. Monotone under
    /// races: whichever installer carries the highest epoch wins.
    // ordering: the CAS is AcqRel so a successful install happens-after
    // every prior install it supersedes (a reader that sees epoch N+1 must
    // never act on state ordered before the install of N); the failure load
    // is Relaxed — it only feeds the retry/abort decision on the next loop
    // iteration.
    pub fn install(&self, m: Membership) -> bool {
        use std::sync::atomic::Ordering;
        let new = m.pack();
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if Membership::unpack(cur).epoch >= m.epoch {
                return false;
            }
            match self.0.compare_exchange(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn pack_round_trips() {
        let m = Membership {
            epoch: 7,
            voters: NodeSet(0b0111),
            learners: NodeSet(0b1000),
        };
        assert_eq!(Membership::unpack(m.pack()), m);
        assert_eq!(Membership::from_val(&m.to_val()), Some(m));
        assert_eq!(Membership::from_val(&Val::EMPTY), None);
        assert_eq!(Membership::from_val(&Val::from_bytes(b"xyz")), None);
    }

    #[test]
    fn bootstrap_defaults_to_all_nodes_voting() {
        let cfg = ClusterConfig::small();
        let m = Membership::bootstrap(&cfg);
        assert_eq!(m.epoch, 0);
        assert_eq!(m.voters, NodeSet::all(3));
        assert!(m.learners.is_empty());
        assert_eq!(m.quorum(), 2);
    }

    #[test]
    fn bootstrap_honours_initial_sets() {
        let cfg = ClusterConfig::small().nodes(4).initial_learners(NodeSet(0b1000));
        let m = Membership::bootstrap(&cfg);
        assert_eq!(m.voters, NodeSet(0b0111), "learners are excluded from the default voters");
        assert_eq!(m.learners, NodeSet(0b1000));
        assert_eq!(m.quorum(), 2, "quorum counts voters only");
        let cfg = ClusterConfig::small().nodes(4).initial_voters(NodeSet(0b0011));
        assert_eq!(Membership::bootstrap(&cfg).voters, NodeSet(0b0011));
    }

    #[test]
    fn successor_constructors_bump_epoch() {
        let m = Membership { epoch: 0, voters: NodeSet(0b0111), learners: NodeSet::EMPTY };
        let m1 = m.with_learner(NodeId(3));
        assert_eq!((m1.epoch, m1.voters, m1.learners), (1, NodeSet(0b0111), NodeSet(0b1000)));
        let m2 = m1.with_promoted(NodeId(3));
        assert_eq!((m2.epoch, m2.voters, m2.learners), (2, NodeSet(0b1111), NodeSet::EMPTY));
        let m3 = m2.with_retired(NodeId(2));
        assert_eq!((m3.epoch, m3.voters), (3, NodeSet(0b1011)));
        assert_eq!(m3.quorum(), 2);
    }

    #[test]
    fn cell_installs_monotonically() {
        let m0 = Membership { epoch: 0, voters: NodeSet(0b111), learners: NodeSet::EMPTY };
        let cell = MembershipCell::new(m0);
        assert_eq!(cell.load(), m0);
        let m2 = Membership { epoch: 2, voters: NodeSet(0b1111), learners: NodeSet::EMPTY };
        assert!(cell.install(m2));
        assert_eq!(cell.epoch(), 2);
        // Stale and equal epochs are refused.
        let m1 = Membership { epoch: 1, voters: NodeSet(0b001), learners: NodeSet::EMPTY };
        assert!(!cell.install(m1));
        assert!(!cell.install(m2));
        assert_eq!(cell.load(), m2);
    }
}
