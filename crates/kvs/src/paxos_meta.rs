//! Per-key Paxos metadata (§6.2 "Adapting MICA for Paxos").
//!
//! Kite executes leaderless Basic Paxos *per key* (§3.4): RMWs to different
//! keys commute and need not be ordered, so each key carries its own tiny
//! consensus state. An RMW occupies a *slot* — the index of the RMW in the
//! key's commit sequence — and slots are decided one at a time (log-free:
//! only the latest slot's proposal state is retained; earlier slots are
//! summarized by the committed ring and the key's current value).

use kite_common::{Lc, OpId, Val};

/// A command accepted (phase-2) for the key's current slot.
#[derive(Clone, Debug)]
pub struct AcceptedCmd {
    /// The RMW operation this command belongs to; used to hand results back
    /// and to deduplicate helped commands.
    pub op: OpId,
    /// Ballot at which it was accepted.
    pub ballot: Lc,
    /// The value the RMW writes when it commits.
    pub new_val: Val,
    /// The RMW's return value (the base value it read) — carried along so a
    /// helper can complete the original caller's operation exactly once.
    pub result: Val,
    /// The clock the committed value is stamped with, fixed at command
    /// creation (see `kite::msg::Cmd::lc`): helpers adopting this command
    /// must commit it with this exact stamp, not one of their own.
    pub lc: Lc,
}

/// Record of a committed RMW, kept for deduplication and result recovery.
#[derive(Clone, Debug)]
pub struct RmwCommit {
    /// The committed operation.
    pub op: OpId,
    /// Slot the command was committed at.
    pub slot: u64,
    /// The RMW's recorded result (its observed base value).
    pub result: Val,
}

/// The committed RMWs a key remembers: the **latest commit of every
/// session** that has committed one on it (the paper's "last committed
/// rmw-id per session", kept per key so it travels with the key's slot —
/// see [`PaxosMeta::merge_evidence`]).
///
/// A proposer whose command was *helped* to commit by another proposer
/// discovers this here (replicas attach the entries to `AlreadyCommitted`
/// replies) and must not re-execute the command. A session has one RMW
/// outstanding, so its newer commit supersedes its older one and one entry
/// per session is all the evidence there is to keep. Nothing else may drop
/// an entry: a session whose entry is gone — however long ago its commit
/// was decided — may still be retrying that op, and would run it twice.
/// Memory is one entry per session that ever committed on the key, which
/// `ClusterConfig::validate` bounds by `ClusterConfig::MAX_SESSIONS`.
#[derive(Clone, Debug, Default)]
pub struct CommittedRing {
    ring: Vec<RmwCommit>,
}

impl CommittedRing {
    /// An empty ring. It reserves nothing: every replica builds a ring on
    /// a key's first RMW, and it grows by one entry per session that
    /// commits on the key.
    pub fn new() -> Self {
        CommittedRing { ring: Vec::new() }
    }

    /// Record a committed RMW: it replaces its session's older entry in
    /// place (a commit older than the entry is dropped — its owner has moved
    /// on); only a session new to the key takes a new entry.
    pub fn push(&mut self, c: RmwCommit) {
        if let Some(own) = self.ring.iter_mut().find(|e| e.op.session == c.op.session) {
            if c.op.seq > own.op.seq {
                *own = c;
            }
        } else {
            self.ring.push(c);
        }
    }

    /// Look up a committed command by operation id.
    pub fn find(&self, op: OpId) -> Option<&RmwCommit> {
        self.ring.iter().find(|c| c.op == op)
    }

    /// Iterate the ring's entries (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &RmwCommit> + '_ {
        self.ring.iter()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The key's Paxos structure (lazily allocated per §6.2): everything a
/// replica needs to act as acceptor for the key's current slot.
#[derive(Clone, Debug)]
pub struct PaxosMeta {
    /// The next undecided slot = number of RMWs committed on this key.
    pub slot: u64,
    /// Highest ballot promised for `slot`.
    pub promised: Lc,
    /// Command accepted for `slot`, if any.
    pub accepted: Option<AcceptedCmd>,
    /// Recently committed commands (dedup + result recovery).
    pub committed: CommittedRing,
}

impl Default for PaxosMeta {
    fn default() -> Self {
        Self::new()
    }
}

impl PaxosMeta {
    /// Fresh metadata: slot 0, nothing promised or accepted.
    pub fn new() -> Self {
        PaxosMeta {
            slot: 0,
            promised: Lc::ZERO,
            accepted: None,
            committed: CommittedRing::new(),
        }
    }

    /// Advance to `slot + 1` after a commit of `slot`: proposal state for
    /// the decided slot is discarded (log-free Paxos).
    pub fn advance_past(&mut self, slot: u64) {
        if slot >= self.slot {
            self.slot = slot + 1;
            self.promised = Lc::ZERO;
            self.accepted = None;
        }
    }

    /// Merge another replica's ring evidence, then advance past its decided
    /// prefix (`next_slot` is that replica's next undecided slot; 0 = no
    /// advancement). The two halves are one operation on purpose: **slot
    /// advancement must always travel with its dedup evidence** — an
    /// advance without the matching ring entries lets this replica answer
    /// a plain promise for an operation that in fact committed, breaking
    /// RMW exactly-once (see `kite::msg::Repair`). Used by every
    /// non-commit slot-advancing path: `Repair::apply`, which both an
    /// anti-entropy repair and an `AlreadyCommitted` catch-up go through.
    pub fn merge_evidence(&mut self, ring: &[RmwCommit], next_slot: u64) {
        for c in ring {
            if self.committed.find(c.op).is_none() {
                self.committed.push(c.clone());
            }
        }
        if next_slot > 0 {
            self.advance_past(next_slot - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::{NodeId, SessionId};

    fn op(n: u8, seq: u64) -> OpId {
        OpId::new(SessionId::new(NodeId(n), 0), seq)
    }

    #[test]
    fn ring_push_and_find() {
        let mut r = CommittedRing::new();
        r.push(RmwCommit { op: op(0, 1), slot: 0, result: Val::from_u64(7) });
        assert_eq!(r.find(op(0, 1)).unwrap().result.as_u64(), 7);
        assert!(r.find(op(0, 2)).is_none());
    }

    #[test]
    fn a_ring_grows_with_its_sessions_not_its_depth() {
        let mut r = CommittedRing::new();
        r.push(RmwCommit { op: op(0, 1), slot: 0, result: Val::from_u64(7) });
        r.push(RmwCommit { op: op(0, 2), slot: 1, result: Val::from_u64(8) });
        assert_eq!(r.len(), 1);
        // A `Vec`'s first allocation: room for a few entries, not many.
        assert!(r.ring.capacity() <= 4, "one session's entry reserved room for many");
    }

    #[test]
    fn a_session_holds_only_its_latest_entry() {
        let mut r = CommittedRing::new();
        for seq in [3, 5, 4] {
            r.push(RmwCommit { op: op(1, seq), slot: seq, result: Val::from_u64(seq) });
        }
        assert_eq!(r.len(), 1);
        assert_eq!(r.find(op(1, 5)).unwrap().result.as_u64(), 5, "the newer replaced the older");
        assert!(r.find(op(1, 3)).is_none(), "superseded");
        assert!(r.find(op(1, 4)).is_none(), "a late older commit is dropped");
    }

    #[test]
    fn other_sessions_commits_never_evict_a_sessions_entry() {
        let mut r = CommittedRing::new();
        r.push(RmwCommit { op: op(4, 9), slot: 0, result: Val::from_u64(7) });
        for i in 0..320 {
            r.push(RmwCommit { op: op((i % 4) as u8, i), slot: i + 1, result: Val::EMPTY });
        }
        assert_eq!(r.find(op(4, 9)).unwrap().result.as_u64(), 7, "the sleeper's op is still known");
        assert_eq!(r.len(), 5, "one entry per session");
    }

    #[test]
    fn every_sessions_last_commit_is_kept() {
        // Far more sessions than the 32 a key's ring once kept.
        let session = |i: u64| SessionId::new(NodeId((i % 16) as u8), (i / 16) as u32);
        let mut r = CommittedRing::new();
        for i in 0..200 {
            r.push(RmwCommit { op: OpId::new(session(i), 0), slot: i, result: Val::EMPTY });
        }
        assert_eq!(r.len(), 200);
        assert!((0..200).all(|i| r.find(OpId::new(session(i), 0)).is_some()), "none evicted");
    }

    #[test]
    fn advance_past_clears_proposal_state() {
        let mut m = PaxosMeta::new();
        m.promised = Lc::new(5, NodeId(2));
        m.accepted = Some(AcceptedCmd {
            op: op(1, 1),
            ballot: Lc::new(5, NodeId(2)),
            new_val: Val::EMPTY,
            result: Val::EMPTY,
            lc: Lc::new(6, NodeId(2)),
        });
        m.advance_past(0);
        assert_eq!(m.slot, 1);
        assert_eq!(m.promised, Lc::ZERO);
        assert!(m.accepted.is_none());
    }

    #[test]
    fn advance_past_is_idempotent_for_old_slots() {
        let mut m = PaxosMeta::new();
        m.advance_past(4);
        assert_eq!(m.slot, 5);
        m.promised = Lc::new(9, NodeId(1));
        m.advance_past(2); // stale commit notification
        assert_eq!(m.slot, 5, "slot must not regress");
        assert_eq!(m.promised, Lc::new(9, NodeId(1)), "state for live slot untouched");
    }
}
