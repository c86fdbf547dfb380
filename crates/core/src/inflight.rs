//! In-flight operation state: one entry per outstanding protocol
//! operation, held in a generational slab ([`InFlightTable`]) indexed by
//! the worker-local request id (`rid`).
//!
//! # rid encoding
//!
//! A rid packs a slab slot and that slot's generation:
//!
//! ```text
//! bit 63           bits 62..32          bits 31..0
//! +---+--------------------------+--------------------+
//! | U |        generation        |        slot        |
//! +---+--------------------------+--------------------+
//! ```
//!
//! * **slot** — dense index into the worker's slab. Replies resolve their
//!   entry with one bounds check and one generation compare: no hashing.
//! * **generation** — starts at 1 and is bumped every time the slot is
//!   freed, so a retransmitted reply carrying a *recycled* slot's old rid
//!   fails the compare and is dropped (no ABA completion of an unrelated
//!   op). Generations wrap after 2³¹−1 reuses of a single slot, skipping 0;
//!   a stale reply would additionally have to survive in the network across
//!   that entire wrap to alias, which the retransmit timeout makes
//!   impossible in practice.
//! * **U (bit 63)** — set on *untracked* rids: fire-and-forget broadcasts
//!   (e.g. ES writes in modes without ack tracking) draw ids from a plain
//!   counter with this bit set. They can never alias a slab entry, and the
//!   slab never issues them.
//!
//! rid 0 is never issued (generation ≥ 1), so a stray ack carrying rid 0
//! can never resolve an entry (anti-entropy repair traffic is entirely
//! rid-less instead of borrowing a sentinel).

use std::sync::Arc;

use kite_common::{Epoch, Key, Lc, NodeId, NodeSet, OpId, Val};
use kite_simnet::Outbox;

use crate::api::Op;
use crate::msg::{Cmd, CommitPayload, Msg, WriteBack};

/// Common fields shared by all in-flight entries.
#[derive(Clone, Debug)]
pub struct Meta {
    /// Owning session's local index within the worker.
    pub sess: usize,
    /// Globally unique operation id (session id + session sequence).
    pub op_id: OpId,
    /// Key the operation targets.
    pub key: Key,
    /// The originating API operation (returned in the completion record).
    pub op: Op,
    /// When the op was invoked (for completions and timeouts); for an `EsWrite`,
    /// its lateness origin: when first seen quorum-acked (`u64::MAX` before).
    pub invoked_at: u64,
    /// Last (re)transmission time — drives retransmission.
    pub last_sent: u64,
}

/// One quorum round as its initiator sees it: the request, and who has
/// answered it. Every in-flight state describes the round it is waiting on
/// in one place — its `round(rid)` — and both transmissions come from
/// there: a retransmission is the first transmission, resent to whoever has
/// not answered (Hermes recovers from loss the same way: replay the message).
#[derive(Clone, Debug)]
pub struct Round {
    /// Voters whose answer has been counted (includes self).
    pub replied: NodeSet,
    /// The request.
    pub msg: Msg,
}

impl Round {
    /// Send the request to every voter that has not answered it — all of
    /// them the first time, when only the initiator has "replied".
    pub fn send(self, me: NodeId, voters: NodeSet, out: &mut Outbox<Msg>) {
        out.multicast(me, voters.minus(self.replied), self.msg);
    }
}

/// A relaxed write whose `EsWrite` broadcast is gathering acks (§3.2). It
/// completed from the client's perspective when issued; the entry exists so
/// the next release knows which machines acked (§4.2).
#[derive(Clone, Debug)]
pub struct EsWriteState {
    /// Common in-flight fields.
    pub meta: Meta,
    /// The written value (kept for retransmission).
    pub val: Val,
    /// The write's stamp.
    pub lc: Lc,
    /// Machines that acknowledged (includes self).
    pub acked: NodeSet,
}

impl EsWriteState {
    /// The value broadcast, awaited from every voter.
    pub fn round(&self, rid: u64) -> Round {
        let msg = Msg::EsWrite { rid, key: self.meta.key, val: self.val.clone(), lc: self.lc };
        Round { replied: self.acked, msg }
    }

    /// Invariants 1+2 of §4.2 for one barrier write: quorum-acked, and every
    /// voter still missing it is covered by the published DM-set.
    pub fn covered_by(&self, dm: NodeSet, voters: NodeSet, quorum: usize) -> bool {
        self.acked.len() >= quorum && voters.minus(self.acked).minus(dm).is_empty()
    }

    /// Dates the write's lateness from `now` the first time it is seen quorum-acked (true then).
    pub(crate) fn stamp_quorum(&mut self, quorum: usize, now: u64) -> bool {
        let first = self.meta.invoked_at == u64::MAX && self.acked.len() >= quorum;
        if first {
            self.meta.invoked_at = now;
        }
        first
    }
}

/// The ABD read fold (§3.3 round 1): the freshest value a growing set of
/// replicas reported, and who reported exactly it.
#[derive(Clone, Debug)]
pub struct ReadFold {
    /// Replicas that answered (includes self).
    pub reps: NodeSet,
    /// Freshest value seen so far.
    pub val: Val,
    /// Its clock.
    pub lc: Lc,
    /// Replicas that reported the current best value (a write-back is
    /// needed if they do not reach a quorum).
    pub holders: NodeSet,
}

impl ReadFold {
    /// A fold seeded with the local replica's own view.
    pub fn new(me: NodeId, val: Val, lc: Lc) -> Self {
        ReadFold { reps: NodeSet::singleton(me), val, lc, holders: NodeSet::singleton(me) }
    }

    /// Fold in `src`'s reply; returns how many replicas have answered.
    pub fn offer(&mut self, src: NodeId, val: Val, lc: Lc) -> usize {
        self.reps.insert(src);
        if lc > self.lc {
            self.lc = lc;
            self.val = val;
            self.holders = NodeSet::singleton(src);
        } else if lc == self.lc {
            self.holders.insert(src);
        }
        self.reps.len()
    }

    /// The write-back of the fold's value: an acquire's carries its tag (in
    /// the boxed `WriteAcq` flavour) so the round's quorum also performs
    /// delinquency discovery (Lemma 5.3).
    fn write_back(&self, rid: u64, key: Key, acq: Option<OpId>) -> Msg {
        let (val, lc) = (self.val.clone(), self.lc);
        match acq {
            Some(acq) => Msg::WriteAcq { rid, wb: Arc::new(WriteBack { key, val, lc, acq }) },
            None => Msg::WriteMsg { rid, key, val, lc },
        }
    }
}

/// Slow-path relaxed read (§4.1 "On a relaxed access"): one quorum round,
/// then restore the key in-epoch. With `stripped_slow_path` off (ablation),
/// a full-ABD write-back round runs when the freshest value was not already
/// held by a quorum.
#[derive(Clone, Debug)]
pub struct SlowReadState {
    /// Common in-flight fields.
    pub meta: Meta,
    /// Machine-epoch snapshot taken at op start (§4.2 fine print).
    pub snapshot: Epoch,
    /// Round 1's replies (`holders` matters to the ablation only: the
    /// stripped slow path never needs a write-back, §4.3).
    pub fold: ReadFold,
    /// Write-back round progress; `None` until started (ablation only).
    pub w2: Option<NodeSet>,
}

impl SlowReadState {
    /// The read round, then (ablation) the write-back of what it found.
    pub fn round(&self, rid: u64) -> Round {
        let key = self.meta.key;
        match self.w2 {
            Some(acked) => Round { replied: acked, msg: self.fold.write_back(rid, key, None) },
            None => Round { replied: self.fold.reps, msg: Msg::ReadReq { rid, key, acq: None } },
        }
    }
}

/// Slow-path relaxed write (§4.3): one LLC-read quorum round so the fresh
/// write dominates anything missed, then an ES-style value broadcast that
/// completes without waiting for acks. With `stripped_slow_path` off
/// (ablation), completion instead waits for a quorum of value-round acks,
/// as a full ABD write would.
#[derive(Clone, Debug)]
pub struct SlowWriteState {
    /// Common in-flight fields.
    pub meta: Meta,
    /// Machine-epoch snapshot taken at op start.
    pub snapshot: Epoch,
    /// The value to write.
    pub val: Val,
    /// Highest clock seen in the stamp round.
    pub max_lc: Lc,
    /// Replicas that answered the stamp round (includes self).
    pub reps: NodeSet,
    /// Value-round `(stamp, acks)` progress; `None` until started
    /// (ablation only).
    pub w2: Option<(Lc, NodeSet)>,
}

impl SlowWriteState {
    /// The stamp round, then (ablation) the awaited value round.
    pub fn round(&self, rid: u64) -> Round {
        let key = self.meta.key;
        match self.w2 {
            Some((lc, acked)) => {
                Round { replied: acked, msg: Msg::WriteMsg { rid, key, val: self.val.clone(), lc } }
            }
            None => Round { replied: self.reps, msg: Msg::RtsReq { rid, key } },
        }
    }
}

/// The slow-path release barrier sub-round (§4.2): DM-set broadcast.
#[derive(Clone, Debug)]
pub struct SlowReleaseSub {
    /// The published DM-set.
    pub dm: NodeSet,
    /// Machines that acked the DM broadcast (includes self).
    pub acked: NodeSet,
}

/// Release barrier progress, shared by releases and RMWs (§4.2 "RMWs").
#[derive(Clone, Debug)]
pub struct Barrier {
    /// rids of the session's relaxed writes outstanding when the barrier
    /// started (the "writes before the release in session order").
    pub writes: Vec<u64>,
    /// Slow-path sub-round, if the timeout fired.
    pub slow: Option<SlowReleaseSub>,
    /// Barrier resolved: either all writes acked by all machines (fast
    /// path) or quorum-acked writes + quorum-acked DM broadcast (slow path).
    pub done: bool,
}

impl Barrier {
    /// A barrier over the given outstanding write rids (resolved
    /// immediately when there are none).
    pub fn new(writes: Vec<u64>) -> Self {
        let done = writes.is_empty();
        Barrier { writes, slow: None, done }
    }

    /// A pre-resolved barrier (modes without barrier semantics).
    pub fn resolved() -> Self {
        Barrier { writes: Vec::new(), slow: None, done: true }
    }

    /// The slow-release DM round, while the barrier is still waiting on it.
    /// `rid` is the owning release/RMW's (message types disambiguate the
    /// replies).
    pub fn round(&self, rid: u64) -> Option<Round> {
        let sub = self.slow.as_ref().filter(|_| !self.done)?;
        Some(Round { replied: sub.acked, msg: Msg::SlowRelease { rid, dm: sub.dm } })
    }
}

/// A release in flight: overlapped barrier + ABD write (§4.3 optimization:
/// the LLC-read round runs while waiting for acks).
#[derive(Clone, Debug)]
pub struct ReleaseState {
    /// Common in-flight fields.
    pub meta: Meta,
    /// The released value.
    pub val: Val,
    /// Barrier progress over the session's prior writes (§4.2).
    pub barrier: Barrier,
    /// Whether the LLC-read round has been broadcast. Always true with
    /// `overlap_release` (the §4.3 default); with the ablation the round
    /// is deferred until the barrier resolves.
    pub rts_sent: bool,
    /// Round 1 (read-the-stamps) progress.
    pub rts_reps: NodeSet,
    /// Highest stamp seen in round 1.
    pub rts_max: Lc,
    /// Round 2 (value broadcast) progress; `None` until started.
    pub w2: Option<(Lc, NodeSet)>,
}

impl ReleaseState {
    /// The LLC-read round, then the value round; `None` while round 1 is
    /// deferred behind the barrier (nothing sent yet).
    pub fn round(&self, rid: u64) -> Option<Round> {
        let key = self.meta.key;
        match self.w2 {
            Some((lc, acked)) => Some(Round {
                replied: acked,
                msg: Msg::WriteMsg { rid, key, val: self.val.clone(), lc },
            }),
            None if self.rts_sent => {
                Some(Round { replied: self.rts_reps, msg: Msg::RtsReq { rid, key } })
            }
            None => None,
        }
    }
}

/// An acquire in flight: ABD read + delinquency discovery (§4.2).
#[derive(Clone, Debug)]
pub struct AcquireState {
    /// Common in-flight fields.
    pub meta: Meta,
    /// The acquire's tag on both rounds: its op id when the round also
    /// probes delinquency (a Kite `Op::Acquire`), `None` for the plain ABD
    /// reads of the other modes.
    pub acq: Option<OpId>,
    /// Round 1's replies.
    pub fold: ReadFold,
    /// OR of delinquency verdicts across rounds.
    pub delinquent: bool,
    /// Write-back round progress.
    pub w2: Option<NodeSet>,
    /// True once round 1 has acted (quorum reached) — late replies ignored.
    pub decided: bool,
}

impl AcquireState {
    /// The read round, then the write-back (§3.3) of what it found.
    pub fn round(&self, rid: u64) -> Round {
        let key = self.meta.key;
        match self.w2 {
            Some(acked) => Round { replied: acked, msg: self.fold.write_back(rid, key, self.acq) },
            None => {
                Round { replied: self.fold.reps, msg: Msg::ReadReq { rid, key, acq: self.acq } }
            }
        }
    }
}

/// What an RMW computes, once its base value is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwKind {
    /// fetch-and-add on a LE u64.
    Faa {
        /// The addend.
        delta: u64,
    },
    /// compare-and-swap (weak already passed its local check).
    Cas {
        /// `true` for the strong flavor (§6.1); the weak flavor reaching
        /// here has already passed its local comparison.
        strong: bool,
    },
    /// unconditional consensus write (the PaxosOnly mode's write).
    Put,
}

/// Paxos proposer phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmwPhase {
    /// Nothing broadcast yet: waiting for the release barrier before even
    /// proposing (the `overlap_release = false` ablation; the §4.3 default
    /// overlaps the propose phase with the barrier wait).
    WaitBarrierPropose,
    /// Phase 1 in progress.
    Propose,
    /// Phase 1 done, waiting for the release barrier before accepting.
    WaitBarrier,
    /// Phase 2 in progress.
    Accept,
    /// Decided; commit broadcast gathering a visibility quorum (the third
    /// broadcast round of §3.4).
    Commit,
}

/// An RMW in flight (§3.4): per-key leaderless Basic Paxos with the
/// release/acquire barrier semantics of §4.2.
#[derive(Clone, Debug)]
pub struct RmwState {
    /// Common in-flight fields.
    pub meta: Meta,
    /// What the RMW computes (FAA / CAS / unconditional put).
    pub kind: RmwKind,
    /// CAS expect (unused for FAA/Put).
    pub expect: Val,
    /// CAS/Put new value (unused for FAA).
    pub new: Val,
    /// Release-barrier progress (§4.2 "RMWs").
    pub barrier: Barrier,
    /// Proposer phase for the current round.
    pub phase: RmwPhase,
    /// Slot the current round proposes for.
    pub slot: u64,
    /// Ballot of the current round.
    pub ballot: Lc,
    /// Phase-1 promises gathered (includes self).
    pub promises: NodeSet,
    /// Highest accepted command seen in phase 1 (to adopt).
    pub best_accepted: Option<(Lc, Cmd)>,
    /// The command being accepted in phase 2 — `Arc`-shared with the
    /// `Accept` broadcast and its retransmissions (one allocation per
    /// round, refcount bumps per unicast).
    pub cmd: Option<Arc<Cmd>>,
    /// True if `cmd` belongs to another proposer (helping): on commit we
    /// restart our own RMW instead of completing.
    pub helping: bool,
    /// Phase-2 accepts gathered (includes self).
    pub accepts: NodeSet,
    /// Commit-round visibility acks.
    pub commits: NodeSet,
    /// The commit being broadcast — the same `Arc` the `Commit` unicasts
    /// and their retransmissions carry.
    pub commit_bcast: Option<Arc<CommitPayload>>,
    /// Output to deliver when the commit round completes (None while
    /// helping: a new round starts instead).
    pub pending_output: Option<crate::api::OpOutput>,
    /// OR of delinquency verdicts (acquire semantics, §4.2 "RMWs").
    pub delinquent: bool,
    /// Earliest time a nacked round may retry (0 = no retry scheduled).
    pub retry_at: u64,
    /// Consecutive nacked rounds (drives exponential backoff).
    pub backoff_exp: u8,
    /// Lower bound for the next round's ballot version (from nacks).
    pub ballot_floor: u64,
}

impl RmwState {
    /// The current phase's broadcast; `None` while waiting for the barrier.
    /// `Accept` and `Commit` clone the `Arc` the first transmission made.
    pub fn round(&self, rid: u64) -> Option<Round> {
        let (key, slot, ballot) = (self.meta.key, self.slot, self.ballot);
        match self.phase {
            RmwPhase::Propose => Some(Round {
                replied: self.promises,
                msg: Msg::Propose { rid, key, slot, ballot, op: self.meta.op_id },
            }),
            RmwPhase::Accept => self.cmd.as_ref().map(|cmd| Round {
                replied: self.accepts,
                msg: Msg::Accept { rid, key, slot, ballot, cmd: Arc::clone(cmd) },
            }),
            RmwPhase::Commit => self.commit_bcast.as_ref().map(|c| Round {
                replied: self.commits,
                msg: Msg::Commit { rid, key, c: Arc::clone(c) },
            }),
            RmwPhase::WaitBarrier | RmwPhase::WaitBarrierPropose => None,
        }
    }
}

/// Write-window relief (see `initiator.rs`): when a session's write window
/// fills with writes that only unresponsive replicas haven't acked, the
/// worker publishes their delinquency to a quorum (a value-less slow
/// release) and then retires the quorum-acked writes — the session resumes
/// instead of stalling for the whole outage. Ordering matters: the DM-set
/// reaches a quorum *before* tracking is dropped, so the §4.2 release
/// invariant is preserved for every later release.
///
/// Not the barrier's slow path on purpose: that one resends every write and waits for all of them;
/// relief as a release or as a barrier waiter cost `sim_sleep_heal` ~4 % `avail_ratio` (aim 2).
#[derive(Clone, Debug)]
pub struct WindowReliefState {
    /// Common in-flight fields (synthetic op id; no completion).
    pub meta: Meta,
    /// The published DM-set.
    pub dm: NodeSet,
    /// Machines that acked the DM broadcast (includes self).
    pub acked: NodeSet,
    /// The window snapshot this relief covers.
    pub writes: Vec<u64>,
}

impl WindowReliefState {
    /// The value-less slow release.
    pub fn round(&self, rid: u64) -> Round {
        Round { replied: self.acked, msg: Msg::SlowRelease { rid, dm: self.dm } }
    }
}

/// The in-flight table entry.
///
/// Variant sizes differ (an `RmwState` carries Paxos round state) but the
/// table holds few entries per session, so boxing would cost more in
/// indirection than it saves in padding.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum InFlight {
    /// Tracked relaxed write gathering acks (§3.2 / §4.2).
    EsWrite(EsWriteState),
    /// Slow-path relaxed read (§4.1).
    SlowRead(SlowReadState),
    /// Slow-path relaxed write (§4.3).
    SlowWrite(SlowWriteState),
    /// Release: barrier + ABD write (§4.2).
    Release(ReleaseState),
    /// Acquire: ABD read + delinquency discovery (§4.2).
    Acquire(AcquireState),
    /// RMW: per-key Paxos round (§3.4).
    Rmw(RmwState),
    /// Write-window relief round (see `initiator.rs`).
    WindowRelief(WindowReliefState),
}

impl InFlight {
    /// The entry's common fields.
    pub fn meta(&self) -> &Meta {
        match self {
            InFlight::EsWrite(s) => &s.meta,
            InFlight::SlowRead(s) => &s.meta,
            InFlight::SlowWrite(s) => &s.meta,
            InFlight::Release(s) => &s.meta,
            InFlight::Acquire(s) => &s.meta,
            InFlight::Rmw(s) => &s.meta,
            InFlight::WindowRelief(s) => &s.meta,
        }
    }

    /// Mutable access to the entry's common fields.
    pub fn meta_mut(&mut self) -> &mut Meta {
        match self {
            InFlight::EsWrite(s) => &mut s.meta,
            InFlight::SlowRead(s) => &mut s.meta,
            InFlight::SlowWrite(s) => &mut s.meta,
            InFlight::Release(s) => &mut s.meta,
            InFlight::Acquire(s) => &mut s.meta,
            InFlight::Rmw(s) => &mut s.meta,
            InFlight::WindowRelief(s) => &mut s.meta,
        }
    }

    /// The release barrier of a release or an RMW.
    pub fn barrier_mut(&mut self) -> Option<&mut Barrier> {
        match self {
            InFlight::Release(ReleaseState { barrier, .. })
            | InFlight::Rmw(RmwState { barrier, .. }) => Some(barrier),
            _ => None,
        }
    }

    /// The ack set of the entry's value round (`w2`), once it has started.
    pub fn value_acks(&mut self) -> Option<&mut NodeSet> {
        match self {
            InFlight::SlowRead(SlowReadState { w2, .. })
            | InFlight::Acquire(AcquireState { w2, .. }) => w2.as_mut(),
            InFlight::SlowWrite(SlowWriteState { w2, .. })
            | InFlight::Release(ReleaseState { w2, .. }) => w2.as_mut().map(|(_, acked)| acked),
            _ => None,
        }
    }

    /// What the entry is waiting for: its barrier's slow-release round (if
    /// one is open), then its own round — the order they are retransmitted.
    pub fn rounds(&self, rid: u64) -> [Option<Round>; 2] {
        match self {
            InFlight::EsWrite(s) => [None, Some(s.round(rid))],
            InFlight::SlowRead(s) => [None, Some(s.round(rid))],
            InFlight::SlowWrite(s) => [None, Some(s.round(rid))],
            InFlight::Release(s) => [s.barrier.round(rid), s.round(rid)],
            InFlight::Acquire(s) => [None, Some(s.round(rid))],
            InFlight::Rmw(s) => [s.barrier.round(rid), s.round(rid)],
            InFlight::WindowRelief(s) => [None, Some(s.round(rid))],
        }
    }

    /// Does this entry block its session?
    pub fn blocks_session(&self) -> bool {
        !matches!(self, InFlight::EsWrite(_) | InFlight::WindowRelief(_))
    }

    /// Short tag for trace/diagnostic output.
    pub fn tag(&self) -> &'static str {
        match self {
            InFlight::EsWrite(_) => "es-write",
            InFlight::SlowRead(_) => "slow-read",
            InFlight::SlowWrite(_) => "slow-write",
            InFlight::Release(_) => "release",
            InFlight::Acquire(_) => "acquire",
            InFlight::Rmw(_) => "rmw",
            InFlight::WindowRelief(_) => "window-relief",
        }
    }
}

// ===========================================================================
// The generational slab
// ===========================================================================

/// Number of low bits holding the slot index.
const SLOT_BITS: u32 = 32;
/// Mask extracting the slot index from a rid.
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Generations live in bits 62..32; bit 63 is the untracked-rid flag, so a
/// slab rid never collides with the untracked id space.
const GEN_MASK: u32 = 0x7FFF_FFFF;

/// Marks rids drawn from the untracked (fire-and-forget) counter.
pub const UNTRACKED_RID_BIT: u64 = 1 << 63;

/// The in-flight table: a generational slab (see the module docs for the
/// rid layout).
///
/// Replaces the seed's `HashMap<u64, InFlight>` on the reply hot path:
/// lookups are an array index plus a generation compare, entries are
/// mutated **in place** (reply handlers never remove-and-reinsert), freed
/// slots are recycled LIFO so the table stays dense, and the retransmit
/// scan walks the slab in slot order without collecting/sorting keys.
pub struct InFlightTable {
    slots: Vec<TableSlot>,
    /// Freed slot indices, reused LIFO (keeps the occupied prefix dense).
    free: Vec<u32>,
    live: usize,
}

struct TableSlot {
    /// Generation of the current (or, when vacant, the next) occupant.
    /// Always ≥ 1 and ≤ [`GEN_MASK`].
    generation: u32,
    entry: Option<InFlight>,
}

impl Default for InFlightTable {
    fn default() -> Self {
        Self::new()
    }
}

impl InFlightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty table with room for `cap` entries before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        InFlightTable { slots: Vec::with_capacity(cap), free: Vec::with_capacity(cap), live: 0 }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn rid_of(slot: u32, generation: u32) -> u64 {
        ((generation as u64) << SLOT_BITS) | slot as u64
    }

    /// Insert `entry`, returning its freshly minted rid.
    pub fn insert(&mut self, entry: InFlight) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                assert!(self.slots.len() < SLOT_MASK as usize, "in-flight table overflow");
                self.slots.push(TableSlot { generation: 1, entry: None });
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.entry.is_none(), "free list pointed at an occupied slot");
        s.entry = Some(entry);
        self.live += 1;
        Self::rid_of(slot, s.generation)
    }

    /// Resolve `rid` to its slot index iff its generation is current.
    #[inline]
    // kite-lint: no-alloc
    fn slot_of(&self, rid: u64) -> Option<usize> {
        if rid & UNTRACKED_RID_BIT != 0 {
            return None;
        }
        let slot = (rid & SLOT_MASK) as usize;
        let generation = (rid >> SLOT_BITS) as u32;
        match self.slots.get(slot) {
            Some(s) if s.generation == generation && s.entry.is_some() => Some(slot),
            _ => None,
        }
    }

    /// Whether `rid` names a live entry.
    #[inline]
    pub fn contains(&self, rid: u64) -> bool {
        self.slot_of(rid).is_some()
    }

    /// Shared access to the entry for `rid`. Stale rids (freed or recycled
    /// slots) resolve to `None`.
    #[inline]
    // kite-lint: no-alloc
    pub fn get(&self, rid: u64) -> Option<&InFlight> {
        self.slot_of(rid).and_then(|s| self.slots[s].entry.as_ref())
    }

    /// In-place mutable access to the entry for `rid`.
    #[inline]
    // kite-lint: no-alloc
    pub fn get_mut(&mut self, rid: u64) -> Option<&mut InFlight> {
        self.slot_of(rid).and_then(|s| self.slots[s].entry.as_mut())
    }

    /// Remove and return the entry for `rid`, bumping the slot's generation
    /// so the rid (and any copies of it still in the network) goes stale.
    // kite-lint: no-alloc
    pub fn remove(&mut self, rid: u64) -> Option<InFlight> {
        let slot = self.slot_of(rid)?;
        let s = &mut self.slots[slot];
        let entry = s.entry.take();
        debug_assert!(entry.is_some());
        s.generation = if s.generation >= GEN_MASK { 1 } else { s.generation + 1 };
        self.free.push(slot as u32);
        self.live -= 1;
        entry
    }

    /// Iterate live entries in slot order (deterministic), yielding
    /// `(rid, &mut entry)`. This is a dense slab walk: no key collection,
    /// no sort, no hashing.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut InFlight)> + '_ {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let generation = s.generation;
            s.entry.as_mut().map(move |e| (Self::rid_of(i as u32, generation), e))
        })
    }

    /// Iterate live entries in slot order, yielding `(rid, &entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &InFlight)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.entry.as_ref().map(|e| (Self::rid_of(i as u32, s.generation), e))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::SessionId;

    fn meta() -> Meta {
        Meta {
            sess: 0,
            op_id: OpId::new(SessionId::new(NodeId(0), 0), 0),
            key: Key(1),
            op: Op::Read { key: Key(1) },
            invoked_at: 0,
            last_sent: 0,
        }
    }

    #[test]
    fn barrier_with_no_writes_is_immediately_done() {
        assert!(Barrier::new(vec![]).done);
        assert!(!Barrier::new(vec![1, 2]).done);
        assert!(Barrier::resolved().done);
    }

    #[test]
    fn blocking_classification() {
        let es = InFlight::EsWrite(EsWriteState {
            meta: meta(),
            val: Val::EMPTY,
            lc: Lc::ZERO,
            acked: NodeSet::EMPTY,
        });
        assert!(!es.blocks_session(), "relaxed writes don't block (§3.2)");
        let acq = InFlight::Acquire(AcquireState {
            meta: meta(),
            acq: None,
            fold: ReadFold::new(NodeId(0), Val::EMPTY, Lc::ZERO),
            delinquent: false,
            w2: None,
            decided: false,
        });
        assert!(acq.blocks_session(), "acquires block the session (§4.2)");
    }

    fn es_entry(tag: u64) -> InFlight {
        let mut m = meta();
        m.invoked_at = tag; // marker to tell entries apart
        InFlight::EsWrite(EsWriteState {
            meta: m,
            val: Val::EMPTY,
            lc: Lc::ZERO,
            acked: NodeSet::EMPTY,
        })
    }

    #[test]
    fn slab_insert_get_remove_round_trip() {
        let mut t = InFlightTable::new();
        assert!(t.is_empty());
        let a = t.insert(es_entry(1));
        let b = t.insert(es_entry(2));
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().meta().invoked_at, 1);
        assert_eq!(t.get_mut(b).unwrap().meta().invoked_at, 2);
        assert_eq!(t.remove(a).unwrap().meta().invoked_at, 1);
        assert!(t.get(a).is_none());
        assert!(t.remove(a).is_none(), "double remove is a no-op");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn recycled_slot_rejects_stale_rid() {
        let mut t = InFlightTable::new();
        let old = t.insert(es_entry(1));
        t.remove(old);
        let new = t.insert(es_entry(2));
        // Same slot, new generation: the old rid must not resolve.
        assert_eq!(old & 0xFFFF_FFFF, new & 0xFFFF_FFFF, "LIFO slot reuse");
        assert_ne!(old, new);
        assert!(t.get(old).is_none(), "stale rid must be rejected");
        assert!(!t.contains(old));
        assert_eq!(t.get(new).unwrap().meta().invoked_at, 2);
    }

    #[test]
    fn rids_are_never_zero_or_untracked() {
        let mut t = InFlightTable::new();
        for i in 0..100 {
            let rid = t.insert(es_entry(i));
            assert_ne!(rid, 0, "rid 0 is the discard sentinel");
            assert_eq!(rid & UNTRACKED_RID_BIT, 0, "slab rids never set the untracked bit");
            t.remove(rid);
        }
    }

    #[test]
    fn untracked_rids_never_resolve() {
        let mut t = InFlightTable::new();
        let rid = t.insert(es_entry(1));
        let fake = UNTRACKED_RID_BIT | rid;
        assert!(t.get(fake).is_none());
        assert!(!t.contains(fake));
        assert!(t.remove(fake).is_none());
        assert!(t.contains(rid), "live entry unaffected");
    }

    #[test]
    fn iteration_is_dense_and_slot_ordered() {
        let mut t = InFlightTable::new();
        let rids: Vec<u64> = (0..8).map(|i| t.insert(es_entry(i))).collect();
        t.remove(rids[3]);
        t.remove(rids[6]);
        let walked: Vec<u64> = t.iter_mut().map(|(rid, _)| rid).collect();
        let expected: Vec<u64> =
            rids.iter().enumerate().filter(|(i, _)| *i != 3 && *i != 6).map(|(_, r)| *r).collect();
        assert_eq!(walked, expected, "slot order, holes skipped");
        assert_eq!(t.iter().count(), 6);
    }

    #[test]
    fn meta_accessors() {
        let mut e = InFlight::SlowRead(SlowReadState {
            meta: meta(),
            snapshot: Epoch(0),
            fold: ReadFold::new(NodeId(0), Val::EMPTY, Lc::ZERO),
            w2: None,
        });
        assert_eq!(e.meta().key, Key(1));
        e.meta_mut().last_sent = 99;
        assert_eq!(e.meta().last_sent, 99);
    }
}
