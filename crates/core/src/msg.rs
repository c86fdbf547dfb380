//! The wire protocol: every message exchanged by Kite workers.
//!
//! One enum carries all three protocols (ES §3.2, ABD §3.3, per-key Paxos
//! §3.4) plus the barrier-mechanism messages (§4.2): slow-release, reset-bit.
//! Batching works *across* protocols (§6.3) because envelopes are just
//! `Vec<Msg>`.
//!
//! Request/response pairs are matched by `rid`, a worker-local request id —
//! replies always return to the issuing worker because workers are peered
//! one-to-one across nodes (§6.3).
//!
//! # Wire layout: one cache line per message
//!
//! `size_of::<Msg>()` is pinned at **≤ 64 bytes** by a compile-time
//! assertion below. Every `Vec<Msg>` push, broadcast clone, channel hop and
//! dispatch memcpys a full `Msg`, so the hot variants must not pay for the
//! cold ones. The budget works out as follows:
//!
//! * [`Lc`] is a packed `u64` and [`Val`] is 33 bytes with alignment 1
//!   (see `kite-common`), so the hot value-carrying variants —
//!   [`Msg::EsWrite`], [`Msg::WriteMsg`], [`Msg::ReadRep`] — fit exactly:
//!   rid + key + clock + value + tag = 8+8+8+33+1 = 58 → 64 padded.
//! * The large, cold Paxos payloads are boxed:
//!   - [`Msg::Accept`] carries `Arc<Cmd>` (a `Cmd` is ~90 bytes: two
//!     values plus op id and stamp). `Arc` rather than `Box` so the N−1
//!     broadcast unicasts and every retransmission share one allocation —
//!     cloning the message is a refcount bump, not a deep copy.
//!   - [`Msg::Commit`] carries `Arc<CommitPayload>` for the same reason
//!     (the commit round broadcasts and retransmits from the same
//!     allocation).
//!   - [`PromiseOutcome`]'s two large variants are `Box`ed: they are
//!     unicast replies built once, and `Promised { accepted: None }` — the
//!     overwhelmingly common promise — allocates nothing.
//! * The anti-entropy digest plane is `Arc`-boxed end to end:
//!   [`Msg::Digest`] and [`Msg::MerkleSummary`] carry whole key-range
//!   advertisements (far over a cache line) and are broadcast, so the
//!   N−1 unicasts share one allocation; [`Msg::MerkleReq`]'s bucket list
//!   rides an `Arc<[u32]>` fat pointer for the same reason.
//! * The acquire-tagged ABD write-back rides its own boxed variant
//!   ([`Msg::WriteAcq`]): the acquire op id does not fit next to an inline
//!   value, and tagged write-backs only occur when round 1 found no value
//!   quorum. Untagged write-backs (releases, slow-path rounds) use the flat
//!   [`Msg::WriteMsg`].
//! * Plain acks carry nothing but the echoed rid. [`Msg::Ack`] is the
//!   single flavour; [`Msg::AckBatch`] coalesces every ack generated while
//!   draining one inbound envelope into one message (see
//!   `Worker::flush_acks`). The receiver resolves each rid through the
//!   in-flight slab, whose entry kind recovers what was acked — which is
//!   why one neutral ack type can answer ES writes, value broadcasts and
//!   commit rounds alike. [`Msg::SlowReleaseAck`] stays separate: a
//!   release/RMW's slow-release barrier reuses the *same* rid as its value
//!   or commit round, so a typeless ack would be ambiguous.
//! * [`Msg::WriteAck`] survives only for the delinquency verdict: a
//!   replica that judged the sender's machine delinquent answers a
//!   [`Msg::WriteAcq`] individually; verdict-free acks coalesce.

use std::sync::Arc;

use kite_common::{Key, Lc, NodeSet, OpId, Val};

/// A Paxos command: everything an acceptor stores for an accepted RMW and a
/// committer needs to finish it (§3.4; the dedup scheme is the per-key
/// committed ring in `kite_kvs::paxos_meta`).
///
/// ~90 bytes — always behind an `Arc`/`Box` on the wire (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cmd {
    /// Owning operation (used for helping + exactly-once completion).
    pub op: OpId,
    /// The value written if this command commits.
    pub new_val: Val,
    /// The RMW's return value (base value observed), carried so helpers can
    /// complete the owner's op with the right result.
    pub result: Val,
    /// The clock the committed value will be stamped with, fixed when the
    /// command is created and carried through accepts and helping, so that
    /// *every* committer of a slot broadcasts the same `(value, lc)` pair.
    /// If the owner and a helper each stamped their own clock instead, a
    /// successor slot's commit built on the lower-clock branch could lose
    /// the `apply_max` race at a replica holding the higher stamp of an
    /// *older* slot's value — that replica would advance its slot with a
    /// stale store and the next RMW would decide from a stale base (lost
    /// FAA increment; re-injected, it is caught by the fault swarm's
    /// `random_schedules_preserve_rclin` in `tests/chaos.rs`).
    pub lc: Lc,
}

/// The payload of a commit/learn broadcast, shared behind an `Arc` by the
/// broadcast unicasts and retransmissions.
#[derive(Clone, Debug)]
pub struct CommitPayload {
    /// Slot this commit decides (receivers advance past it).
    pub slot: u64,
    /// The committed value.
    pub val: Val,
    /// The decide-time commit stamp (see [`Cmd::lc`]).
    pub lc: Lc,
    /// `Some((op, result))` for real commits (ring entry); `None` for the
    /// visibility round a proposer runs over an `AlreadyCommitted` catch-up
    /// (the value summarizes a decided prefix, no single ring entry).
    pub meta: Option<(OpId, Val)>,
}

/// A key's decided state as one replica holds it — value, next undecided
/// slot and the committed ring behind that slot — boxed: anti-entropy pull
/// answers, digest-diff pushes and the proposer's answer to a `Lagging`
/// promise ride it as [`Msg::RepairVal`], and an acceptor's catch-up rides
/// it as [`PromiseOutcome::AlreadyCommitted`]. Built in one place and
/// applied in one place (`Repair::of` and `Repair::apply`, both in
/// `antientropy.rs`).
#[derive(Clone, Debug)]
pub struct Repair {
    /// Key being repaired.
    pub key: Key,
    /// The sender's current value for it.
    pub val: Val,
    /// Its stamp (receiver applies under LLC-max: stale repairs no-op).
    pub lc: Lc,
    /// The sender's next undecided Paxos slot for the key (0 = the key
    /// never carried an RMW); the receiver advances past `slot - 1`.
    pub slot: u64,
    /// The sender's committed ring for the key. **Slot advancement must
    /// always travel with its dedup evidence**: a replica whose slot (and
    /// value) advance ring-lessly can answer a plain promise for an
    /// operation that in fact committed, letting that operation's own
    /// strong CAS fail its comparison against its *own* committed value —
    /// the rare residual hang mode of `threaded_mutex_exact_under_message
    /// _loss`. The receiver merges these entries *before* advancing.
    pub ring: Vec<kite_kvs::RmwCommit>,
}

/// Payload of an anti-entropy digest message ([`Msg::Digest`]): the
/// sender's `(key, packed Lc)` pairs for one contiguous range of its store
/// slots. `Arc`-shared — a digest easily exceeds the cache-line budget and
/// is broadcast to every peer (so any single fresh replica can repair a
/// stale one within one sweep cycle); the N−1 unicast clones are refcount
/// bumps.
#[derive(Clone, Debug)]
pub struct DigestChunk {
    /// `(key, clock)` for every live slot in the swept range. Slot indices
    /// are replica-local, so only the keys travel; the receiver diffs each
    /// entry against its own store by key.
    pub entries: Vec<(Key, Lc)>,
}

/// Payload of a Merkle-range anti-entropy summary ([`Msg::MerkleSummary`]):
/// a run of range hashes at one level of the store's hash lattice.
/// `Arc`-shared — the sweep broadcasts the top-level summary to every peer
/// (drill-down child summaries are unicast, but share the type).
///
/// Geometry is implied, not carried: every replica derives the same leaf
/// count from the shared `ClusterConfig` (`keys` rounds to the same store
/// capacity; the leaf span and the drill-down fanout are constants), so
/// `(level, start)` names the same leaf range on both sides. A summary
/// whose level exceeds the local lattice depth is dropped as malformed.
#[derive(Clone, Debug)]
pub struct MerkleSummary {
    /// Lattice level: 0 = leaves; level `l` buckets cover `fanout^l`
    /// leaves each.
    pub level: u8,
    /// Index of the first bucket covered, at `level`.
    pub start: u32,
    /// One fold per consecutive bucket from `start`.
    pub hashes: Vec<u64>,
}

/// Payload of an acquire-tagged ABD write-back round ([`Msg::WriteAcq`]),
/// `Arc`-shared by the broadcast unicasts and retransmissions.
#[derive(Clone, Debug)]
pub struct WriteBack {
    /// Key being written.
    pub key: Key,
    /// Value to apply.
    pub val: Val,
    /// Stamp to apply it under (LLC-max rule).
    pub lc: Lc,
    /// The acquire whose round this is: the replica probes delinquency for
    /// the sender's machine (§5 Lemma 5.3 case a-2 relies on the second
    /// round's quorum intersecting the DM-set quorum).
    pub acq: OpId,
}

/// Acceptor's answer to a `Propose`.
#[derive(Clone, Debug)]
pub enum PromiseOutcome {
    /// Promised: will not accept lower ballots for this slot. Carries the
    /// previously accepted command, if any (the proposer must adopt the
    /// highest-ballot one — classic Paxos phase 1). Boxed: the common
    /// promise carries nothing.
    Promised {
        /// `(ballot, cmd)` previously accepted for this slot.
        accepted: Option<Box<(Lc, Cmd)>>,
    },
    /// A higher ballot was already promised.
    NackBallot {
        /// The ballot the acceptor has promised instead.
        promised: Lc,
    },
    /// The acceptor knows the proposer's command committed, or has already
    /// moved past the proposer's slot: the acceptor's [`Repair`] for the
    /// key. The proposer applies it as any repair, and finds its own op in
    /// the ring if it was helped to commit.
    AlreadyCommitted(Box<Repair>),
    /// The acceptor is *behind* the proposer's slot (missed a commit); the
    /// proposer answers with a [`Msg::RepairVal`] carrying its decided
    /// prefix.
    Lagging,
}

/// Protocol messages. `rid` is the sender's request id; replies echo it.
/// Layout budget: see the module docs — and keep the compile-time size
/// assertion below green when adding variants.
#[derive(Clone, Debug)]
pub enum Msg {
    // ------------------------------------------------------------------ ES
    /// Relaxed-write propagation (§3.2): apply iff `lc` beats the stored
    /// clock; always acknowledged (the release barrier counts acks).
    EsWrite {
        /// Sender's request id; the ack echoes it.
        rid: u64,
        /// Key being written.
        key: Key,
        /// New value.
        val: Val,
        /// The write's Lamport stamp (LLC-max apply rule).
        lc: Lc,
    },

    // ---------------------------------------------------------- plain acks
    /// A single plain ack: answers an [`Msg::EsWrite`], an untagged
    /// [`Msg::WriteMsg`], a non-delinquent [`Msg::WriteAcq`] or an
    /// [`Msg::Commit`] — the receiver's in-flight entry kind disambiguates.
    Ack {
        /// Echoed request id.
        rid: u64,
    },
    /// Every plain ack generated while draining one inbound envelope,
    /// coalesced into a single message back to its source. Stale rids
    /// inside the batch are dropped individually by the receiver's
    /// generation check.
    AckBatch {
        /// Echoed request ids (buffer recycled through the workers' ack
        /// pools, like envelope buffers).
        rids: Vec<u64>,
    },

    // ----------------------------------------------------------- ABD rounds
    /// Read-the-stamp: fetch the key's current LLC (ABD write round 1;
    /// also the slow-path relaxed write's first round, §4.3).
    RtsReq {
        /// Sender's request id.
        rid: u64,
        /// Key whose clock is requested.
        key: Key,
    },
    /// Reply to [`Msg::RtsReq`].
    RtsRep {
        /// Echoed request id.
        rid: u64,
        /// The key's current clock at the replying replica.
        lc: Lc,
    },

    /// ABD read round 1 (acquires and slow-path relaxed reads). When `acq`
    /// is set this probe performs the delinquency check for the sender's
    /// machine and the Set→Transient transition (§4.2.1), tagged by the
    /// acquire's unique `op` id.
    ReadReq {
        /// Sender's request id.
        rid: u64,
        /// Key being read.
        key: Key,
        /// `Some(op)` iff this is an acquire's round: probe delinquency.
        acq: Option<OpId>,
    },
    /// Reply to [`Msg::ReadReq`].
    ReadRep {
        /// Echoed request id.
        rid: u64,
        /// The key's value at the replying replica.
        val: Val,
        /// Its clock (the reader keeps the highest).
        lc: Lc,
        /// Delinquency verdict for the *sender's* machine (§4.2).
        delinquent: bool,
    },

    /// ABD value broadcast without an acquire tag: release round 2,
    /// slow-path rounds, and acquire write-backs that need no probe.
    /// Applied under the LLC-max rule; answered with a plain ack.
    WriteMsg {
        /// Sender's request id.
        rid: u64,
        /// Key being written.
        key: Key,
        /// Value to apply.
        val: Val,
        /// Stamp to apply it under (LLC-max rule).
        lc: Lc,
    },
    /// Acquire-tagged ABD write-back (§3.3 + §4.2): like [`Msg::WriteMsg`]
    /// but the replica also probes delinquency for the sender under the
    /// acquire's op id. Boxed payload — see the module docs.
    WriteAcq {
        /// Sender's request id.
        rid: u64,
        /// Key, value, stamp and acquire tag (`Arc`-shared across the
        /// broadcast).
        wb: Arc<WriteBack>,
    },
    /// Individual ack for a [`Msg::WriteAcq`] whose probe judged the
    /// sender's machine delinquent. Non-delinquent verdicts ride the plain
    /// ack path.
    WriteAck {
        /// Echoed request id.
        rid: u64,
        /// Delinquency verdict for the sender's machine.
        delinquent: bool,
    },

    // ------------------------------------------------------------- barrier
    /// Slow-path release barrier (§4.2): "these machines are delinquent".
    /// The release executes only after a quorum acks this.
    SlowRelease {
        /// The owning release/RMW's request id.
        rid: u64,
        /// The DM-set: machines suspected to have missed barrier writes.
        dm: NodeSet,
    },
    /// Ack for [`Msg::SlowRelease`]. Never coalesced: the barrier reuses
    /// its owning release/RMW's rid, so this ack must stay distinguishable
    /// from that rid's value/commit-round acks.
    SlowReleaseAck {
        /// Echoed request id.
        rid: u64,
    },
    /// Best-effort delinquency reset, sent *after* the acquirer incremented
    /// its machine epoch (§4.2.1, Lemma 5.6). Fire-and-forget.
    ResetBit {
        /// The acquire whose probe transitioned the bit to Transient.
        acq: OpId,
    },

    // --------------------------------------------------------------- Paxos
    /// Phase-1 propose for `(key, slot)` at `ballot`. Carries the
    /// proposer's op id (ring lookup for helped commands) and performs the
    /// acquire-side delinquency probe (RMWs have acquire semantics, §4.2).
    Propose {
        /// Proposer's request id.
        rid: u64,
        /// Key whose per-key Paxos instance this round belongs to.
        key: Key,
        /// Slot (index in the key's commit sequence) being proposed for.
        slot: u64,
        /// Proposal ballot (an LLC: unique, totally ordered).
        ballot: Lc,
        /// The proposer's RMW op id (committed-ring dedup lookup).
        op: OpId,
    },
    /// Reply to `Propose`. Echoes the ballot so replies from a superseded
    /// proposal round are recognized and discarded by the proposer.
    PromiseRep {
        /// Echoed request id.
        rid: u64,
        /// Echoed ballot (stale-round filter).
        ballot: Lc,
        /// Promise / nack / already-committed / lagging (see
        /// [`PromiseOutcome`]).
        outcome: PromiseOutcome,
        /// Delinquency verdict for the proposer's machine.
        delinquent: bool,
    },

    /// Phase-2 accept. The command is `Arc`-shared across the broadcast
    /// unicasts and retransmissions (one allocation per round).
    Accept {
        /// Proposer's request id.
        rid: u64,
        /// Key of the per-key instance.
        key: Key,
        /// Slot being decided.
        slot: u64,
        /// Ballot this accept runs under.
        ballot: Lc,
        /// The command to accept (op id + value + result + commit stamp).
        cmd: Arc<Cmd>,
    },
    /// Reply to `Accept` (ballot echoed, as in `PromiseRep`).
    AcceptRep {
        /// Echoed request id.
        rid: u64,
        /// Echoed ballot (stale-round filter).
        ballot: Lc,
        /// Whether the acceptor accepted.
        ok: bool,
        /// On a nack: the higher ballot the acceptor has promised.
        promised: Lc,
        /// Delinquency verdict for the proposer's machine.
        delinquent: bool,
    },

    /// Commit/learn broadcast. Idempotent. Acked (plain): an RMW completes
    /// only once its commit is visible at a quorum of stores (the third of
    /// the paper's "three broadcast rounds", §3.4 — without it a
    /// linearizable read could miss a completed RMW). Replicas *outside*
    /// the round catch up through the anti-entropy sweep
    /// ([`Msg::RepairVal`]); no untracked `Commit` is ever sent.
    Commit {
        /// Committer's request id.
        rid: u64,
        /// Key of the per-key instance.
        key: Key,
        /// Slot, value, stamp and ring metadata (`Arc`-shared across the
        /// broadcast and retransmissions).
        c: Arc<CommitPayload>,
    },

    // ------------------------------------------------- anti-entropy repair
    /// Periodic anti-entropy digest: the sender's `(key, Lc)` pairs for one
    /// range of its store slots, broadcast to every peer. Unsolicited and
    /// unacked — liveness comes from the next sweep, not from
    /// retransmission. The receiver pulls keys where the sender is fresher
    /// ([`Msg::RepairReq`]) and pushes back keys where the *sender* is
    /// stale ([`Msg::RepairVal`]). An **empty** digest is the post-wake
    /// resync ping (ordinary sweeps skip empty ranges): it re-arms the
    /// receiver's sweep so a full cycle of its digests reaches a replica
    /// that may hold no slot for the keys it slept through.
    Digest {
        /// The digest body (`Arc`: shared by the broadcast unicasts).
        d: Arc<DigestChunk>,
    },
    /// Merkle-mode anti-entropy summary: a run of range hashes folded from
    /// the sender's leaf lattice. The sweep broadcasts the **top-level**
    /// summary (whole store in O(fanout) hashes) once per interval;
    /// drill-down answers to a [`Msg::MerkleReq`] carry child-level
    /// summaries. Receivers compare each hash against their own fold of
    /// the same range and answer mismatches with a [`Msg::MerkleReq`] —
    /// matching ranges generate **no** traffic, which is the whole point.
    /// Unsolicited and unacked, like [`Msg::Digest`].
    MerkleSummary {
        /// The summary body (`Arc`: shared by the broadcast unicasts).
        s: Arc<MerkleSummary>,
    },
    /// Merkle drill-down: "your summary's buckets `buckets` (at `level`)
    /// hash differently here — show me more". The receiver answers each
    /// bucket with its child-level [`Msg::MerkleSummary`], or — at level
    /// 0 — with a flat [`Msg::Digest`] of the leaf's `(key, Lc)` entries,
    /// bottoming out in the per-key diff/pull/push machinery unchanged.
    /// Fire-and-forget: a lost request is re-triggered by the next sweep's
    /// summary.
    MerkleReq {
        /// Lattice level the buckets index into (0 = leaves).
        level: u8,
        /// Mismatched bucket indices at that level.
        buckets: Arc<[u32]>,
    },
    /// Repair pull: "send me your current values for these keys" —
    /// answered with one [`Msg::RepairVal`] per key. Fire-and-forget.
    RepairReq {
        /// Keys the digest showed the requester to be behind on.
        keys: Box<[Key]>,
    },
    /// One repaired key: applied under the LLC-max rule, never acked, and
    /// never touches the key's epoch (an out-of-epoch key still needs a
    /// §4.2 quorum read — one peer's value is not a quorum). Also carries
    /// the sender's next undecided Paxos slot — with the committed-ring
    /// evidence backing it (see [`Repair`]) — so a replica that slept
    /// through a key's last RMW commit catches its consensus state up too.
    /// Sent as pull answers, digest-diff pushes, and the proposer's answer
    /// to a `Lagging` promise. No finished round pushes one: a replica
    /// outside a round's quorum converges through the sweep.
    RepairVal {
        /// The boxed payload (value + slot + ring: well over a cache line).
        r: Box<Repair>,
    },
}

// The tentpole invariant: one cache line per message. Everything bigger
// must go behind a Box/Arc (see the module docs for the budget).
const _: () = assert!(std::mem::size_of::<Msg>() <= 64);

impl Msg {
    /// Short tag for trace/debug output.
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::EsWrite { .. } => "es-write",
            Msg::Ack { .. } => "ack",
            Msg::AckBatch { .. } => "ack-batch",
            Msg::RtsReq { .. } => "rts-req",
            Msg::RtsRep { .. } => "rts-rep",
            Msg::ReadReq { .. } => "read-req",
            Msg::ReadRep { .. } => "read-rep",
            Msg::WriteMsg { .. } => "write",
            Msg::WriteAcq { .. } => "write-acq",
            Msg::WriteAck { .. } => "write-ack",
            Msg::SlowRelease { .. } => "slow-release",
            Msg::SlowReleaseAck { .. } => "slow-release-ack",
            Msg::ResetBit { .. } => "reset-bit",
            Msg::Propose { .. } => "propose",
            Msg::PromiseRep { .. } => "promise",
            Msg::Accept { .. } => "accept",
            Msg::AcceptRep { .. } => "accept-rep",
            Msg::Commit { .. } => "commit",
            Msg::Digest { .. } => "digest",
            Msg::MerkleSummary { .. } => "merkle-summary",
            Msg::MerkleReq { .. } => "merkle-req",
            Msg::RepairReq { .. } => "repair-req",
            Msg::RepairVal { .. } => "repair-val",
        }
    }

    /// The key a replica looks up in its store to serve this request, when
    /// the message carries it inline — what [`crate::Worker`]'s look-ahead
    /// hints the store with. `None` for replies (resolved by rid), for
    /// messages without a single key, and for those whose key sits behind
    /// a pointer (chasing it would be the very miss the hint exists to
    /// hide). Exhaustive on purpose: a new variant has to decide.
    #[inline]
    pub fn store_key(&self) -> Option<Key> {
        match self {
            Msg::EsWrite { key, .. }
            | Msg::RtsReq { key, .. }
            | Msg::ReadReq { key, .. }
            | Msg::WriteMsg { key, .. }
            | Msg::Propose { key, .. }
            | Msg::Accept { key, .. }
            | Msg::Commit { key, .. } => Some(*key),
            // Keyed, but the key is behind an `Arc`/`Box`.
            Msg::WriteAcq { .. } | Msg::RepairVal { .. } => None,
            // Replies, and messages about no single key.
            Msg::Ack { .. }
            | Msg::AckBatch { .. }
            | Msg::RtsRep { .. }
            | Msg::ReadRep { .. }
            | Msg::WriteAck { .. }
            | Msg::SlowRelease { .. }
            | Msg::SlowReleaseAck { .. }
            | Msg::ResetBit { .. }
            | Msg::PromiseRep { .. }
            | Msg::AcceptRep { .. }
            | Msg::Digest { .. }
            | Msg::MerkleSummary { .. }
            | Msg::MerkleReq { .. }
            | Msg::RepairReq { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::{NodeId, SessionId};

    #[test]
    fn tags_cover_all_variants() {
        let op = OpId::new(SessionId::new(NodeId(0), 0), 0);
        let msgs = vec![
            Msg::EsWrite { rid: 0, key: Key(1), val: Val::EMPTY, lc: Lc::ZERO },
            Msg::Ack { rid: 0 },
            Msg::AckBatch { rids: vec![1, 2] },
            Msg::RtsReq { rid: 0, key: Key(1) },
            Msg::RtsRep { rid: 0, lc: Lc::ZERO },
            Msg::ReadReq { rid: 0, key: Key(1), acq: Some(op) },
            Msg::ReadRep { rid: 0, val: Val::EMPTY, lc: Lc::ZERO, delinquent: false },
            Msg::WriteMsg { rid: 0, key: Key(1), val: Val::EMPTY, lc: Lc::ZERO },
            Msg::WriteAcq {
                rid: 0,
                wb: Arc::new(WriteBack { key: Key(1), val: Val::EMPTY, lc: Lc::ZERO, acq: op }),
            },
            Msg::WriteAck { rid: 0, delinquent: true },
            Msg::SlowRelease { rid: 0, dm: NodeSet::EMPTY },
            Msg::SlowReleaseAck { rid: 0 },
            Msg::ResetBit { acq: op },
            Msg::Propose { rid: 0, key: Key(1), slot: 0, ballot: Lc::ZERO, op },
            Msg::PromiseRep {
                rid: 0,
                ballot: Lc::ZERO,
                outcome: PromiseOutcome::Promised { accepted: None },
                delinquent: false,
            },
            Msg::Accept {
                rid: 0,
                key: Key(1),
                slot: 0,
                ballot: Lc::ZERO,
                cmd: Arc::new(Cmd { op, new_val: Val::EMPTY, result: Val::EMPTY, lc: Lc::ZERO }),
            },
            Msg::AcceptRep { rid: 0, ballot: Lc::ZERO, ok: true, promised: Lc::ZERO, delinquent: false },
            Msg::Commit {
                rid: 0,
                key: Key(1),
                c: Arc::new(CommitPayload { slot: 0, val: Val::EMPTY, lc: Lc::ZERO, meta: None }),
            },
            Msg::Digest { d: Arc::new(DigestChunk { entries: vec![(Key(1), Lc::ZERO)] }) },
            Msg::MerkleSummary {
                s: Arc::new(MerkleSummary { level: 1, start: 0, hashes: vec![7, 8] }),
            },
            Msg::MerkleReq { level: 1, buckets: vec![0u32, 3].into() },
            Msg::RepairReq { keys: vec![Key(1)].into_boxed_slice() },
            Msg::RepairVal {
                r: Box::new(Repair { key: Key(1), val: Val::EMPTY, lc: Lc::ZERO, slot: 0, ring: vec![] }),
            },
        ];
        let tags: std::collections::HashSet<_> = msgs.iter().map(|m| m.tag()).collect();
        assert_eq!(tags.len(), msgs.len(), "tags must be distinct");
        // The look-ahead key: exactly the requests that carry their key
        // inline (every keyed message above names Key(1)).
        let keyed: Vec<_> = msgs.iter().filter(|m| m.store_key().is_some()).map(Msg::tag).collect();
        assert_eq!(keyed, ["es-write", "rts-req", "read-req", "write", "propose", "accept", "commit"]);
        assert!(msgs.iter().all(|m| m.store_key().is_none_or(|k| k == Key(1))));
    }

    #[test]
    fn msg_fits_one_cache_line() {
        // The const assertion pins ≤ 64; this records the exact numbers so
        // a layout regression is visible in test output (run with
        // `--nocapture` for the full report).
        use std::mem::{align_of, size_of};
        let report = [
            ("Msg", size_of::<Msg>(), align_of::<Msg>()),
            ("PromiseOutcome", size_of::<PromiseOutcome>(), align_of::<PromiseOutcome>()),
            ("Val", size_of::<Val>(), align_of::<Val>()),
            ("Lc", size_of::<Lc>(), align_of::<Lc>()),
            ("Cmd", size_of::<Cmd>(), align_of::<Cmd>()),
            ("CommitPayload", size_of::<CommitPayload>(), align_of::<CommitPayload>()),
        ];
        for (name, size, align) in report {
            println!("{name:<16} size {size:>3}  align {align}");
        }
        assert!(size_of::<Msg>() <= 64, "Msg = {}", size_of::<Msg>());
        assert!(size_of::<PromiseOutcome>() <= 24);
        assert_eq!(size_of::<Val>(), 33);
        assert_eq!(size_of::<Lc>(), 8);
    }

    #[test]
    fn arc_payload_clone_is_shallow() {
        let op = OpId::new(SessionId::new(NodeId(0), 0), 0);
        let m = Msg::Accept {
            rid: 1,
            key: Key(2),
            slot: 3,
            ballot: Lc::ZERO,
            cmd: Arc::new(Cmd {
                op,
                new_val: Val::from_bytes(&[9u8; 32]),
                result: Val::EMPTY,
                lc: Lc::ZERO,
            }),
        };
        let m2 = m.clone();
        let (Msg::Accept { cmd: a, .. }, Msg::Accept { cmd: b, .. }) = (&m, &m2) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b), "broadcast clones must share the boxed payload");
    }
}
