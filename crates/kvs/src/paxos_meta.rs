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

/// Ring of the most recent committed RMWs on a key.
///
/// A proposer whose command was *helped* to commit by another proposer
/// discovers this through the ring (replicas attach matching entries to
/// `AlreadyCommitted` replies) and must not re-execute the command. The
/// fixed depth bounds memory; a session retries its RMW promptly, and per
/// key at most one command per session is in flight, so
/// [`COMMITTED_RING_DEPTH`] covers bursts of helped commands across
/// sessions in practice. A miss is benign for CAS/FAA-style
/// commands only if the proposer retries — see `kite::proto::paxos` for how
/// misses are handled (the proposer re-proposes; exactly-once is preserved
/// because replicas also dedup at propose time via the ring).
#[derive(Clone, Debug, Default)]
pub struct CommittedRing {
    ring: Vec<RmwCommit>,
    next: usize,
    /// Evictions of an entry whose owner nothing in the ring proved to have
    /// moved on (see [`CommittedRing::evicted_unretired`]).
    evicted_unretired: u64,
}

/// Ring capacity. Sized so that a proposer retrying after a nack backoff
/// still finds its helped command: under heavy same-key contention up to
/// `sessions` commands can commit between a nack and the retry.
pub const COMMITTED_RING_DEPTH: usize = 32;

impl CommittedRing {
    /// An empty ring.
    pub fn new() -> Self {
        CommittedRing {
            ring: Vec::with_capacity(COMMITTED_RING_DEPTH),
            next: 0,
            evicted_unretired: 0,
        }
    }

    /// Record a committed RMW (overwrites the oldest entry when full).
    pub fn push(&mut self, c: RmwCommit) {
        if self.ring.len() < COMMITTED_RING_DEPTH {
            self.ring.push(c);
        } else {
            // A session has one RMW outstanding at a time, so a newer entry
            // of the same session proves the owner retired the evicted op.
            // Without one, the owner may still be retrying it.
            let old = &self.ring[self.next];
            let retired = (self.ring.iter().chain([&c]))
                .any(|e| e.op.session == old.op.session && e.op.seq > old.op.seq);
            self.evicted_unretired += u64::from(!retired);
            self.ring[self.next] = c;
        }
        self.next = (self.next + 1) % COMMITTED_RING_DEPTH;
    }

    /// How many entries this ring evicted while holding no newer entry of
    /// the same session — the dedup evidence of an op whose owner (asleep,
    /// or backing off) may not have learned its outcome yet. ROADMAP
    /// direction 6 reads it to test the evicted-evidence hypothesis.
    pub fn evicted_unretired(&self) -> u64 {
        self.evicted_unretired
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
    /// non-commit slot-advancing path (anti-entropy repairs, the
    /// `AlreadyCommitted` catch-up).
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
    fn ring_evicts_oldest_beyond_depth() {
        let mut r = CommittedRing::new();
        for i in 0..(COMMITTED_RING_DEPTH as u64 + 3) {
            r.push(RmwCommit { op: op(0, i), slot: i, result: Val::EMPTY });
        }
        assert_eq!(r.len(), COMMITTED_RING_DEPTH);
        assert!(r.find(op(0, 0)).is_none(), "oldest evicted");
        assert!(r.find(op(0, 10)).is_some(), "newest kept");
        assert_eq!(r.evicted_unretired(), 0, "every evicted op has a newer one of its session");
    }

    #[test]
    fn eviction_of_a_sessions_latest_op_is_counted() {
        let mut r = CommittedRing::new();
        r.push(RmwCommit { op: op(4, 9), slot: 0, result: Val::EMPTY });
        for i in 0..COMMITTED_RING_DEPTH as u64 {
            r.push(RmwCommit { op: op(0, i), slot: i + 1, result: Val::EMPTY });
        }
        assert!(r.find(op(4, 9)).is_none(), "node 4's only entry is gone");
        assert_eq!(r.evicted_unretired(), 1, "nothing proved its owner had moved on");
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
