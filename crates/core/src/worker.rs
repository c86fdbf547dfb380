//! The Kite worker: the protocol execution engine (§6.1).
//!
//! A worker owns a set of sessions and executes their operations by running
//! the three protocols and the RC barrier machinery. It is written as a
//! sans-io [`Actor`] so the same code runs over the epoll fabric
//! (`kite-net`) and the deterministic simulator.
//!
//! This file holds the scheduling skeleton: session pumping, dispatch,
//! completion plumbing, and the tick. The protocol logic lives in two
//! sibling `impl Worker` blocks:
//!
//! * [`crate::replica`] — the acceptor/replica side (requests from peers);
//! * [`crate::initiator`] — the proposer/initiator side (starting client
//!   ops, handling replies, retransmission).
//!
//! In-flight state lives in a generational slab ([`InFlightTable`]): reply
//! dispatch resolves entries by slot index + generation compare (no
//! hashing), and handlers mutate entries in place.
//!
//! # A step costs O(due), not O(pending)
//!
//! The worker takes a step per inbound batch, so `on_tick` may only touch
//! what has something to do:
//!
//! * **Sessions** — [`Sessions`] keeps the set of sessions that can start
//!   an op; a blocked, stalled or exhausted session — whatever its driver —
//!   is not visited until a completion, a retired write, a timer or (for a
//!   client session) a submitted op makes it runnable again.
//! * **Barriers** — every pending release/RMW barrier is a function of a
//!   few inputs (its writes' ack sets, its slow-release acks, the node's
//!   suspected set and membership epoch, and the release timeout). The
//!   handlers that move an input mark `barriers_dirty`; the earliest
//!   timeout any waiter can hit is `barrier_deadline`. `check_barriers`
//!   runs when one of the two says so and at no other time.
//! * **Timers** — RMW back-offs, the retransmission scan and the
//!   anti-entropy sweep each have a due-time; the tick returns their
//!   minimum as the [`Wakeup`] deadline, and the runtimes sleep until then.

use std::sync::Arc;

use kite_common::{ClusterConfig, NodeId, NodeSet, OpId, SessionId, MEMBERSHIP_KEY};
use kite_simnet::{Actor, Outbox, Wakeup};

use crate::antientropy::{send_repair, AeState};
use crate::api::{Completion, CompletionHook, Op, OpOutput};
use crate::inflight::{InFlight, InFlightTable, Meta, UNTRACKED_RID_BIT};
use crate::msg::Msg;
use crate::nodestate::NodeShared;
use crate::session::{ProtocolMode, Session, SessionDriver};

/// Spare `AckBatch` buffers retained per worker. Like the outbox's envelope
/// pool: drained batch buffers circulate between the workers' pools instead
/// of being freed and reallocated per envelope.
const ACK_POOL_CAP: usize = 16;

/// Outcome of attempting to start an operation.
pub(crate) enum StartResult {
    /// Completed inline (fast-path relaxed ops; any ack gathering continues
    /// in the background without blocking the session).
    Inline,
    /// In flight; the session is blocked on `rid`.
    Blocked(u64),
    /// Could not start (write window full); op goes back to the front of the
    /// staged ops.
    Stall(Op),
}

/// A worker's sessions, plus the set of those that can start an operation.
///
/// Bit `si` of `runnable` is set while session `si` is free and may have an
/// op to hand over. It is cleared when the session blocks, stalls behind a
/// full write window or runs out of ops — whatever its driver — and set
/// again by whatever can change that: a completion delivered to it, a write
/// leaving its window, a barrier-input change (a stalled session's relief
/// round may now be possible), an op submitted to a client session.
/// Iterating set bits in index order visits the runnable sessions in the
/// order a full scan would.
pub(crate) struct Sessions {
    all: Vec<Session>,
    runnable: Vec<u64>,
    /// Completions of client sessions (`SessionDriver::Client`), in
    /// completion order, until the runtime takes them
    /// ([`Worker::completions`]).
    done: Vec<Completion>,
}

impl Sessions {
    fn new(all: Vec<Session>) -> Self {
        let runnable = vec![0; all.len().div_ceil(64)];
        let mut sessions = Sessions { runnable, all, done: Vec::new() };
        for si in 0..sessions.all.len() {
            sessions.wake(si);
        }
        sessions
    }

    /// Session `si` may be able to start an op: visit it next tick.
    #[inline]
    pub(crate) fn wake(&mut self, si: usize) {
        self.runnable[si / 64] |= 1 << (si % 64);
    }

    #[inline]
    fn park(&mut self, si: usize) {
        self.runnable[si / 64] &= !(1 << (si % 64));
    }

    /// Whether any session is waiting for a pump.
    fn any_runnable(&self) -> bool {
        self.runnable.iter().any(|&word| word != 0)
    }
}

impl std::ops::Deref for Sessions {
    type Target = [Session];

    fn deref(&self) -> &[Session] {
        &self.all
    }
}

impl std::ops::DerefMut for Sessions {
    fn deref_mut(&mut self) -> &mut [Session] {
        &mut self.all
    }
}

/// The protocol execution engine (§6.1): owns a set of sessions, runs the
/// three protocols and the RC barrier machinery for them. See the module
/// docs for the division of labour with `replica`/`initiator`.
pub struct Worker {
    pub(crate) me: NodeId,
    pub(crate) shared: Arc<NodeShared>,
    pub(crate) mode: ProtocolMode,
    pub(crate) sessions: Sessions,
    pub(crate) inflight: InFlightTable,
    /// rids of releases/RMWs whose barrier is not yet resolved.
    pub(crate) barrier_waiters: Vec<u64>,
    /// A barrier input moved since the last `check_barriers` (an ack on a
    /// write some barrier waits for, a slow-release ack, a new waiter, a
    /// slow-path transition): the next tick must evaluate. Stalled sessions
    /// share the signal — their relief decision reads the same inputs.
    pub(crate) barriers_dirty: bool,
    /// Earliest time a pending barrier or a stalled session's window can
    /// cross the release timeout; `check_barriers` is due then even with
    /// nothing dirty. A lower bound, recomputed by every full evaluation.
    pub(crate) barrier_deadline: u64,
    /// Acks that leave a write short of "acked by all" matter to barriers
    /// only on the slow path: a waiter already published a DM-set, or some
    /// replica is suspected. Refreshed by every `check_barriers`.
    pub(crate) slow_mode: bool,
    /// `NodeShared::suspect_gen` / membership epoch as of the last tick:
    /// both are shared with sibling workers and move under this one.
    suspect_seen: u64,
    mepoch_seen: u32,
    /// This worker changed one of them since its last tick: the siblings'
    /// deadlines were computed from the old value (`Wakeup::kick_siblings`).
    kick_siblings: bool,
    /// `check_barriers` evaluations made (diagnostics).
    pub(crate) barrier_passes: u64,
    /// `(rid, due)` for nacked Paxos rounds awaiting their backoff — fired
    /// from the tick path (the retransmit scan is far too coarse for
    /// contention backoffs).
    pub(crate) rmw_retries: Vec<(u64, u64)>,
    /// Scratch for the rids `fire_rmw_retries` finds due; empty between
    /// calls, its capacity kept.
    pub(crate) rmw_due: Vec<u64>,
    /// Counter for fire-and-forget broadcast ids (untracked: bit 63 set, so
    /// they can never alias a slab rid — see `inflight`'s module docs).
    next_untracked: u64,
    last_scan: u64,
    /// Plain-ack rids staged while draining the current inbound envelope;
    /// flushed as one `AckBatch` per envelope (see `Worker::flush_acks`).
    pending_acks: Vec<u64>,
    /// Spare batch buffers recycled from drained `AckBatch`es.
    ack_pool: Vec<Vec<u64>>,
    /// Cached `cfg.coalesce_acks` (false = one ack message per request).
    coalesce_acks: bool,
    /// Debug guard: the node every currently staged ack targets — staging
    /// only stores rids, so all acks of one envelope MUST share a source.
    #[cfg(debug_assertions)]
    ack_src: Option<NodeId>,
    /// Anti-entropy sweep/repair state (see `crate::antientropy`).
    pub(crate) ae: AeState,
    pub(crate) hook: Option<CompletionHook>,
    // cached config (membership-independent only — quorum/voters/members are
    // *methods* reading the live cell; see the stale-quorum note on them)
    pub(crate) release_timeout: u64,
    pub(crate) retransmit: u64,
    pub(crate) overlap_release: bool,
    pub(crate) stripped_slow: bool,
}

/// Everything of a [`Worker`] except its in-flight table, borrowed beside it
/// by [`Worker::split`]: a reply handler mutates its entry **in place** and
/// completes ops, starts Paxos rounds and schedules back-offs through this,
/// without removing the entry first. The protocol steps that run with an
/// entry in hand are its methods (`crate::initiator`).
pub(crate) struct Cx<'a> {
    pub(crate) me: NodeId,
    pub(crate) mode: ProtocolMode,
    pub(crate) shared: &'a NodeShared,
    pub(crate) hook: &'a Option<CompletionHook>,
    pub(crate) sessions: &'a mut Sessions,
    pub(crate) rmw_retries: &'a mut Vec<(u64, u64)>,
}

impl Cx<'_> {
    /// Deliver a completion for session `si` and unblock it if needed.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        si: usize,
        op_id: OpId,
        op: Op,
        output: OpOutput,
        invoked_at: u64,
        now: u64,
    ) {
        self.shared.counters.completed.incr();
        // Session retire is the one point every op funnels through exactly
        // once, so per-class latency is recorded here: invoke-to-completion
        // in scheduler ns. Lock-free, allocation-free (three fetch_adds).
        self.shared.op_latency.for_op(&op).record(now.saturating_sub(invoked_at));
        let c = Completion { op_id, op, output, invoked_at, completed_at: now };
        if let Some(hook) = self.hook {
            hook(&c);
        }
        if let SessionDriver::Client(_) = self.sessions[si].driver {
            self.sessions.done.push(c);
        } else {
            self.sessions[si].deliver(c);
        }
        let sess = &mut self.sessions[si];
        sess.blocked_on = None;
        sess.awaiting_barrier = false;
        self.sessions.wake(si);
    }

    /// Complete the op of an in-flight entry (the caller removes the entry).
    pub(crate) fn complete(&mut self, meta: &Meta, output: OpOutput, now: u64) {
        self.deliver(meta.sess, meta.op_id, meta.op.clone(), output, meta.invoked_at, now);
    }
}

impl Worker {
    /// Build a worker for node `shared.me`, serving `sessions`.
    pub fn new(
        wid: usize,
        shared: Arc<NodeShared>,
        mode: ProtocolMode,
        mut sessions: Vec<Session>,
        hook: Option<CompletionHook>,
    ) -> Self {
        let cfg = &shared.cfg;
        // Size each session's write window up front: the window is bounded
        // by `WRITE_WINDOW`, so steady-state pushes never reallocate.
        for sess in &mut sessions {
            sess.write_window.reserve(ClusterConfig::WRITE_WINDOW);
        }
        // The slab's steady-state occupancy is bounded by the sessions'
        // windows plus their single blocking ops.
        let inflight_cap = sessions.len() * (ClusterConfig::WRITE_WINDOW + 1);
        Worker {
            me: shared.me,
            mode,
            sessions: Sessions::new(sessions),
            inflight: InFlightTable::with_capacity(inflight_cap),
            barrier_waiters: Vec::new(),
            barriers_dirty: false,
            barrier_deadline: Wakeup::NEVER,
            slow_mode: false,
            suspect_seen: shared.suspect_gen(),
            mepoch_seen: shared.mepoch(),
            kick_siblings: false,
            barrier_passes: 0,
            rmw_retries: Vec::new(),
            rmw_due: Vec::new(),
            next_untracked: 0,
            last_scan: 0,
            pending_acks: Vec::with_capacity(64),
            ack_pool: Vec::new(),
            coalesce_acks: cfg.coalesce_acks,
            #[cfg(debug_assertions)]
            ack_src: None,
            ae: AeState::new(cfg, wid, &shared.store),
            hook,
            release_timeout: cfg.release_timeout_ns,
            retransmit: cfg.retransmit_ns,
            overlap_release: cfg.overlap_release,
            stripped_slow: cfg.stripped_slow_path,
            shared,
        }
    }

    /// An id for a fire-and-forget broadcast that tracks no in-flight
    /// entry. Never resolves against the slab (bit 63).
    #[inline]
    pub(crate) fn untracked_rid(&mut self) -> u64 {
        self.next_untracked += 1;
        UNTRACKED_RID_BIT | self.next_untracked
    }

    /// Majority-quorum size over the **live** voter set. Never cached in a
    /// field: a round started before a reconfiguration must count its
    /// replies against the membership in force when each reply is judged,
    /// or an epoch bump strands it against the old majority.
    #[inline]
    pub(crate) fn quorum(&self) -> usize {
        self.shared.quorum()
    }

    /// The live voter set: protocol rounds (ES writes, ABD, Paxos phases,
    /// barriers) target voters only — learners' acks are never awaited, so
    /// reply-set arithmetic stays sound while a learner bulk-syncs.
    #[inline]
    pub(crate) fn voters(&self) -> NodeSet {
        self.shared.voters()
    }

    /// Voters ∪ learners (anti-entropy sweeps reach everyone).
    #[inline]
    pub(crate) fn members(&self) -> NodeSet {
        self.shared.members()
    }

    /// Number of operations currently in flight (diagnostics).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// How many times this worker has evaluated its pending barriers
    /// (diagnostics: against ops completed it says what a step costs).
    pub fn barrier_passes(&self) -> u64 {
        self.barrier_passes
    }

    // ---- client port -----------------------------------------------------

    /// Queue `op` on client session `session` (a `SessionDriver::Client`
    /// of this worker) and make the session runnable, unless it is blocked
    /// or stalled: what unblocks it wakes it. The op starts at the next
    /// tick; its completion comes back through [`Worker::completions`]. An
    /// op for a session this worker does not feed from a queue is dropped.
    pub fn submit(&mut self, session: SessionId, op: Op) {
        let first = self.sessions.first().map_or(0, |s| s.id.slot);
        let si = session.slot.wrapping_sub(first) as usize;
        let Some(sess) = self.sessions.get_mut(si).filter(|s| s.id == session) else { return };
        if let SessionDriver::Client(ops) = &mut sess.driver {
            ops.push_back(op);
            if sess.is_free() && sess.staged.is_empty() {
                self.sessions.wake(si);
            }
        }
    }

    /// Take the client sessions' completions buffered since the last call,
    /// in completion order. A runtime drains them after every call into the
    /// worker; the buffer keeps its capacity.
    pub fn completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.sessions.done.drain(..)
    }

    // ---- completion plumbing -------------------------------------------

    /// The in-flight table, and the rest of the worker a handler needs while
    /// it holds one of the table's entries (see [`Cx`]). Plain disjoint
    /// field borrows: nothing is moved, taken or put back.
    #[inline]
    pub(crate) fn split(&mut self) -> (&mut InFlightTable, Cx<'_>) {
        let cx = Cx {
            me: self.me,
            mode: self.mode,
            shared: &self.shared,
            hook: &self.hook,
            sessions: &mut self.sessions,
            rmw_retries: &mut self.rmw_retries,
        };
        (&mut self.inflight, cx)
    }

    /// Complete an op that never had an in-flight entry (fast-path relaxed
    /// ops, a locally failed weak CAS).
    #[inline]
    pub(crate) fn complete(
        &mut self,
        si: usize,
        op_id: OpId,
        op: Op,
        output: OpOutput,
        invoked_at: u64,
        now: u64,
    ) {
        self.split().1.deliver(si, op_id, op, output, invoked_at, now);
    }

    /// Remove `rid` from its owning session's write window. O(1): ordering
    /// within the window carries no protocol meaning — barriers and window
    /// relief snapshot the window as a *set* of rids — so swap removal is
    /// safe. A write leaving the window is a barrier input of the session's
    /// pending release/RMW, and room for a session stalled on a full window.
    pub(crate) fn remove_from_window(&mut self, si: usize, rid: u64) {
        let sess = &mut self.sessions[si];
        if let Some(pos) = sess.write_window.iter().position(|&r| r == rid) {
            sess.write_window.swap_remove_back(pos);
        }
        self.barriers_dirty |= sess.awaiting_barrier;
        if !sess.staged.is_empty() {
            self.sessions.wake(si);
        }
    }

    /// Suspect every node of `dm` (a barrier or a stalled window timed out
    /// on them). The suspected set is a barrier input.
    pub(crate) fn suspect_all(&mut self, dm: NodeSet) {
        for n in dm {
            self.shared.suspect(n);
        }
        self.barriers_dirty = true;
        self.slow_mode = true;
        // A sibling's barrier may be waiting on exactly these replicas.
        self.kick_siblings = true;
    }

    // ---- session pumping -------------------------------------------------

    /// Let every runnable session start the ops its budget allows: a client
    /// session everything its client has submitted, a self-issuing session
    /// (script, state machine) up to `OPS_PER_TICK`. Returns whether a
    /// self-issuing session stopped at that budget still free with its next
    /// op staged — the only case in which another tick right now would
    /// start more.
    fn pump_sessions(&mut self, now: u64, out: &mut Outbox<Msg>) -> bool {
        let mut more_now = false;
        for word in 0..self.sessions.runnable.len() {
            // A snapshot is exact: pumping one session never makes another
            // runnable (that takes a completion, an ack or a timer).
            let mut bits = self.sessions.runnable[word];
            while bits != 0 {
                let si = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                more_now |= self.pump_session(si, now, out);
            }
        }
        more_now
    }

    fn pump_session(&mut self, si: usize, now: u64, out: &mut Outbox<Msg>) -> bool {
        // A client's submitted ops are already waiting on the runtime that
        // serves it: holding them back for another pass costs that runtime
        // a wait, a flush and a client write per two ops. Only the ops that
        // sessions issue themselves are paced (the simulator's issue rate).
        let sess = &self.sessions[si];
        let mut budget = match &sess.driver {
            SessionDriver::Client(ops) => ops.len() + sess.staged.len(),
            _ => ClusterConfig::OPS_PER_TICK,
        };
        while budget > 0 && self.sessions[si].is_free() {
            // Out of ops: a script is finished for good, a client state
            // machine speaks again after its next completion, and a client
            // session's next op comes with `submit`, which wakes it.
            let Some(op) = self.sessions[si].next_op() else {
                self.sessions.park(si);
                return false;
            };
            budget -= 1;
            let seq = self.sessions[si].seq;
            self.sessions[si].seq += 1;
            let op_id = OpId::new(self.sessions[si].id, seq);
            match self.start_op(si, op_id, op, now, out) {
                StartResult::Inline => {}
                StartResult::Blocked(rid) => self.sessions[si].blocked_on = Some(rid),
                StartResult::Stall(op) => {
                    // Window full: the op did not start and keeps its seq
                    // slot by restoring the counter. If the window is stuck
                    // on unresponsive replicas, start a relief round so the
                    // session doesn't stall for the whole outage. The
                    // session is retried when a write leaves its window or
                    // a barrier input moves (see `Sessions`).
                    self.sessions[si].seq -= 1;
                    self.sessions[si].staged.push_front(op);
                    self.maybe_window_relief(si, now, out);
                    self.sessions.park(si);
                    return false;
                }
            }
        }
        if !self.sessions[si].is_free() {
            self.sessions.park(si);
            return false;
        }
        // Stopped at the budget, still free, nothing left staged (each of
        // the budget's starts took one). A client session has started its
        // whole queue and parks below; a self-issuing one looks ahead: pull
        // what the next tick will start into the staged ops now — a
        // script's whole budget, a state machine's next op — and have the
        // store start loading each key, so the loads overlap whatever runs
        // before that tick instead of stalling it. The ops start exactly
        // where they would have; another tick right now would start more
        // iff one is staged.
        let sess = &mut self.sessions[si];
        let ahead = match sess.driver {
            SessionDriver::Script(_) => ClusterConfig::OPS_PER_TICK,
            _ => 1,
        };
        while sess.staged.len() < ahead {
            let Some(op) = sess.pull(sess.seq + sess.staged.len() as u64) else { break };
            self.shared.store.prefetch(op.key());
            sess.staged.push_back(op);
        }
        if sess.staged.is_empty() {
            self.sessions.park(si);
            return false;
        }
        true
    }

    // ---- ack coalescing ---------------------------------------------------

    /// Stage (or, with coalescing off, immediately send) a plain ack for
    /// `rid` back to `src`. Called by the replica-side handlers; staged
    /// rids are flushed per inbound envelope by [`Worker::flush_acks`].
    #[inline]
    pub(crate) fn ack(&mut self, src: NodeId, rid: u64, out: &mut Outbox<Msg>) {
        if self.coalesce_acks {
            // Staging stores only the rid: the batch goes to the envelope's
            // source, so every staged ack must target that same node.
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    self.pending_acks.is_empty() || self.ack_src == Some(src),
                    "coalesced ack for {src} staged while batching for {:?}",
                    self.ack_src
                );
                self.ack_src = Some(src);
            }
            self.pending_acks.push(rid);
        } else {
            self.shared.counters.acks_sent.incr();
            out.send(src, Msg::Ack { rid });
        }
    }

    /// Emit everything staged by [`Worker::ack`] while draining one inbound
    /// envelope: a single `Ack` if one rid, one `AckBatch` otherwise. The
    /// batch buffer is drawn from the worker's ack pool (refilled from
    /// drained inbound batches); with symmetric traffic the pools warm and
    /// the cycle allocates nothing. A worker that only ever *replies* (its
    /// pool never refills) pays one pre-sized allocation per batch — never
    /// growth copies.
    fn flush_acks(&mut self, src: NodeId, out: &mut Outbox<Msg>) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.pending_acks.is_empty() || self.ack_src == Some(src),
                "flushing acks staged for {:?} to {src}",
                self.ack_src
            );
            self.ack_src = None;
        }
        match self.pending_acks.len() {
            0 => {}
            1 => {
                let rid = self.pending_acks.pop().expect("len checked");
                self.shared.counters.acks_sent.incr();
                out.send(src, Msg::Ack { rid });
            }
            n => {
                let replacement =
                    self.ack_pool.pop().unwrap_or_else(|| Vec::with_capacity(64));
                let rids = std::mem::replace(&mut self.pending_acks, replacement);
                let c = &self.shared.counters;
                c.acks_sent.incr();
                c.msgs_batched.incr();
                c.acks_coalesced.add(n as u64);
                out.send(src, Msg::AckBatch { rids });
            }
        }
    }

    /// Resolve one plain ack: the in-flight entry's kind recovers what was
    /// acked (ES write / value broadcast / commit round). Stale rids fail
    /// the slab's generation check and are dropped individually.
    ///
    /// The kind probe here plus the handler's own `get_mut` is two slab
    /// resolves (~2 ns each) per ack — kept deliberately: folding the
    /// handlers under one borrow would entangle their disjoint-field
    /// borrow patterns for a win that is noise next to the handler body.
    fn on_plain_ack(&mut self, src: NodeId, rid: u64, now: u64, out: &mut Outbox<Msg>) {
        match self.inflight.get(rid) {
            Some(InFlight::EsWrite(_)) => self.on_es_ack(src, rid, now),
            Some(InFlight::Rmw(_)) => self.on_commit_ack(src, rid, now, out),
            Some(_) => self.on_write_ack(src, rid, false, now, out),
            None => {}
        }
    }

    /// Drain a coalesced ack batch with one walk over the slab, then feed
    /// the emptied buffer to this worker's ack pool (buffers circulate
    /// around the cluster, like envelope buffers).
    fn on_ack_batch(&mut self, src: NodeId, mut rids: Vec<u64>, now: u64, out: &mut Outbox<Msg>) {
        for rid in rids.drain(..) {
            self.on_plain_ack(src, rid, now, out);
        }
        if self.ack_pool.len() < ACK_POOL_CAP {
            self.ack_pool.push(rids);
        }
    }

    // ---- dispatch ---------------------------------------------------------

    fn dispatch(&mut self, src: NodeId, m: Msg, now: u64, out: &mut Outbox<Msg>) {
        match m {
            // replica side (requests)
            Msg::EsWrite { rid, key, val, lc } => self.on_es_write(src, rid, key, val, lc, out),
            Msg::RtsReq { rid, key } => self.on_rts_req(src, rid, key, out),
            Msg::ReadReq { rid, key, acq } => self.on_read_req(src, rid, key, acq, out),
            Msg::WriteMsg { rid, key, val, lc } => self.on_write_msg(src, rid, key, val, lc, out),
            Msg::WriteAcq { rid, wb } => self.on_write_acq(src, rid, wb, out),
            Msg::SlowRelease { rid, dm } => self.on_slow_release(src, rid, dm, out),
            Msg::ResetBit { acq } => self.on_reset_bit(acq),
            Msg::Propose { rid, key, slot, ballot, op } => {
                self.on_propose(src, rid, key, slot, ballot, op, out)
            }
            Msg::Accept { rid, key, slot, ballot, cmd } => {
                self.on_accept(src, rid, key, slot, ballot, cmd, out)
            }
            Msg::Commit { rid, key, c } => self.on_commit(src, rid, key, c, out),

            // anti-entropy (unsolicited, unacked — see `crate::antientropy`)
            Msg::Digest { d } => self.on_digest(src, d, out),
            Msg::MerkleSummary { s } => self.on_merkle_summary(src, s, out),
            Msg::MerkleReq { level, buckets } => self.on_merkle_req(src, level, buckets, out),
            Msg::RepairReq { keys } => self.on_repair_req(src, keys, out),
            Msg::RepairVal { r } => self.on_repair_val(r),

            // initiator side (replies)
            Msg::Ack { rid } => self.on_plain_ack(src, rid, now, out),
            Msg::AckBatch { rids } => self.on_ack_batch(src, rids, now, out),
            Msg::RtsRep { rid, lc } => self.on_rts_rep(src, rid, lc, now, out),
            Msg::ReadRep { rid, val, lc, delinquent } => {
                self.on_read_rep(src, rid, val, lc, delinquent, now, out)
            }
            Msg::WriteAck { rid, delinquent } => self.on_write_ack(src, rid, delinquent, now, out),
            Msg::SlowReleaseAck { rid } => self.on_slow_release_ack(src, rid),
            Msg::PromiseRep { rid, ballot, outcome, delinquent } => {
                self.on_promise_rep(src, rid, ballot, outcome, delinquent, now, out)
            }
            Msg::AcceptRep { rid, ballot, ok, promised, delinquent } => {
                self.on_accept_rep(src, rid, ballot, ok, promised, delinquent, now, out)
            }
        }
    }
}

impl Actor for Worker {
    type Msg = Msg;

    /// The membership-epoch gate comes first (the reconfiguration analogue
    /// of the committed-ring "evidence travels with advancement" rule): a
    /// batch stamped with an *older* epoch was composed against a
    /// membership we know to be superseded, so it is dropped whole and
    /// answered with a push-repair of the membership key — the stale sender
    /// converges in one round trip and retransmission re-drives whatever
    /// the drop cost. A *newer* stamp is processed normally (the sender's
    /// protocol state is fine; we are the stale one) while we pull the
    /// configuration we are missing. Our own batches pass unchecked.
    fn on_envelope(
        &mut self,
        src: NodeId,
        mepoch: u32,
        msgs: &mut Vec<Msg>,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let mine = self.shared.mepoch();
        if src != self.me && mepoch != mine {
            if mepoch < mine {
                self.shared.counters.stale_epoch_dropped.incr();
                msgs.clear();
                // Our epoch exceeds a valid stamp, so it is > 0, which
                // means it was installed from an applied store value — the
                // membership key is present and repairable.
                send_repair(&self.shared, src, MEMBERSHIP_KEY, out);
                out.set_stamp(mine);
                return;
            }
            self.shared.counters.membership_pulls.incr();
            out.send(src, Msg::RepairReq { keys: Box::new([MEMBERSHIP_KEY]) });
        }
        // A message from `src` proves it alive — clear any suspicion so
        // releases resume waiting for its acks (fast path).
        self.shared.clear_suspect(src);
        debug_assert!(self.pending_acks.is_empty(), "acks staged outside an envelope");
        for m in msgs.drain(..) {
            self.dispatch(src, m, now, out);
        }
        // One ack message per envelope, not per request: everything the
        // drain above staged goes back to `src` as a single batch.
        self.flush_acks(src, out);
        // The drain may have installed a newer membership.
        out.set_stamp(self.shared.mepoch());
    }

    /// Every keyed request of the coming batch will look its key up in the
    /// store: start those loads now (see [`kite_kvs::Store::prefetch`]).
    // kite-lint: no-alloc
    fn prefetch(&self, msgs: &[Msg]) {
        for key in msgs.iter().filter_map(Msg::store_key) {
            self.shared.store.prefetch(key);
        }
    }

    fn on_tick(&mut self, now: u64, out: &mut Outbox<Msg>) -> Wakeup {
        // The node-shared barrier inputs: sibling workers suspect and clear
        // replicas, and any store apply can install a membership.
        let (suspects, mepoch) = (self.shared.suspect_gen(), self.shared.mepoch());
        if (suspects, mepoch) != (self.suspect_seen, self.mepoch_seen) {
            // A membership install is found by whichever worker ticks
            // first after it; that one passes it on.
            self.kick_siblings |= mepoch != self.mepoch_seen;
            (self.suspect_seen, self.mepoch_seen) = (suspects, mepoch);
            self.barriers_dirty = true;
        }
        let barriers_due = self.barriers_dirty || now >= self.barrier_deadline;
        if barriers_due {
            // A stalled session's relief decision reads the barrier inputs
            // too: give each another attempt (this pump recomputes their
            // share of the deadline, `check_barriers` below the rest).
            self.barrier_deadline = Wakeup::NEVER;
            for si in 0..self.sessions.len() {
                if !self.sessions[si].staged.is_empty() {
                    self.sessions.wake(si);
                }
            }
        }
        let more_now = self.pump_sessions(now, out);
        // The pump may have added a waiter or suspected a replica.
        if barriers_due || self.barriers_dirty {
            self.check_barriers(now, out);
        }
        self.fire_rmw_retries(now, out);
        // The full retransmission scan runs every `retransmit / 2` ns.
        if now.saturating_sub(self.last_scan) >= self.retransmit / 2 {
            self.last_scan = now;
            self.scan_retransmits(now, out);
        }
        let mut next_deadline = self.ae_on_tick(now, out);
        // Refresh the outbox's membership-epoch stamp after the step's
        // sends were composed: the runtimes copy it into every flushed
        // envelope/frame.
        out.set_stamp(self.shared.mepoch());

        // What is left is waiting for an envelope or for one of these.
        if self.barriers_dirty {
            // A slow-path transition changed inputs of barriers already
            // evaluated this tick: they are looked at again next tick.
            next_deadline = now;
        }
        next_deadline = next_deadline.min(self.barrier_deadline);
        for &(_, due) in &self.rmw_retries {
            next_deadline = next_deadline.min(due);
        }
        if !self.inflight.is_empty() {
            next_deadline = next_deadline.min(self.last_scan + self.retransmit / 2);
        }
        // A completion delivered after the pump (an RMW retry, a barrier or
        // a retransmission scan finished the op) woke its session for the
        // next tick. If nothing else brings one, that tick is now: a worker
        // with a runnable session never sleeps for good.
        let more_now =
            more_now || (next_deadline == Wakeup::NEVER && self.sessions.any_runnable());
        let kick_siblings = std::mem::take(&mut self.kick_siblings);
        Wakeup { more_now, next_deadline, kick_siblings }
    }

    fn is_idle(&self) -> bool {
        // Idle also requires the anti-entropy sweep to have wound down
        // (cool-down lapsed): quiescence then implies the final writes have
        // been swept, i.e. replicas converged before the sim declares done.
        self.protocol_idle() && self.ae.quiescent()
    }

    /// Watchdog snapshot: sessions, every in-flight round with its gathered
    /// reply sets and timers, barrier waiters and RMW retry queue — enough
    /// to identify a stalled protocol round from a wedged run's stderr.
    fn describe(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "mode={:?} inflight={} barrier_waiters={:?} (dirty={} deadline={} passes={}) \
             rmw_retries={:?} last_scan={}",
            self.mode,
            self.inflight.len(),
            self.barrier_waiters,
            self.barriers_dirty,
            self.barrier_deadline,
            self.barrier_passes,
            self.rmw_retries,
            self.last_scan,
        );
        for (i, s) in self.sessions.iter().enumerate() {
            let _ = writeln!(
                out,
                "  session[{i}] {} seq={} blocked_on={:?} window={:?} staged={} relief={:?} idle={}",
                s.id,
                s.seq,
                s.blocked_on,
                s.write_window,
                s.staged.len(),
                s.relief,
                s.is_idle(),
            );
        }
        for (rid, e) in self.inflight.iter() {
            let m = e.meta();
            let origin = match (e, m.invoked_at) {
                (InFlight::EsWrite(_), u64::MAX) => "quorum_at=-".to_string(),
                (InFlight::EsWrite(_), at) => format!("quorum_at={at}"),
                (_, at) => format!("invoked_at={at}"),
            };
            let _ = write!(
                out,
                "  rid={rid:#x} {} key={} op_id={} {origin} last_sent={} ",
                e.tag(),
                m.key,
                m.op_id,
                m.last_sent
            );
            let _ = match e {
                InFlight::EsWrite(s) => writeln!(out, "acked={:?}", s.acked),
                InFlight::SlowRead(s) => {
                    let f = &s.fold;
                    writeln!(out, "reps={:?} holders={:?} w2={:?}", f.reps, f.holders, s.w2)
                }
                InFlight::SlowWrite(s) => writeln!(out, "reps={:?} w2={:?}", s.reps, s.w2),
                InFlight::Release(s) => writeln!(
                    out,
                    "barrier(done={} writes={:?} slow={:?}) rts_sent={} rts_reps={:?} w2={:?}",
                    s.barrier.done, s.barrier.writes, s.barrier.slow, s.rts_sent, s.rts_reps, s.w2
                ),
                InFlight::Acquire(s) => writeln!(
                    out,
                    "reps={:?} holders={:?} w2={:?} decided={} delinquent={}",
                    s.fold.reps, s.fold.holders, s.w2, s.decided, s.delinquent
                ),
                InFlight::Rmw(s) => writeln!(
                    out,
                    "phase={:?} slot={} ballot={} promises={:?} accepts={:?} commits={:?} \
                     retry_at={} backoff_exp={} helping={} barrier(done={} writes={:?} slow={:?})",
                    s.phase,
                    s.slot,
                    s.ballot,
                    s.promises,
                    s.accepts,
                    s.commits,
                    s.retry_at,
                    s.backoff_exp,
                    s.helping,
                    s.barrier.done,
                    s.barrier.writes,
                    s.barrier.slow
                ),
                InFlight::WindowRelief(s) => {
                    writeln!(out, "dm={:?} acked={:?} writes={:?}", s.dm, s.acked, s.writes)
                }
            };
        }
        // The store/Paxos state behind every in-flight key: a stalled round
        // usually means the *data* is in an unexpected state (e.g. a stale
        // base under a spinning CAS), which the round state alone can't
        // show.
        let mut keys: Vec<_> = self.inflight.iter().map(|(_, e)| e.meta().key).collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let v = self.shared.store.view(key);
            let (slot, promised, accepted, ring) = {
                let pax = self.shared.store.paxos(key);
                let pax = pax.lock();
                let ring: Vec<String> = pax
                    .committed
                    .iter()
                    .map(|c| format!("{}@s{}={}", c.op, c.slot, c.result.as_u64()))
                    .collect();
                (
                    pax.slot,
                    pax.promised,
                    pax.accepted.as_ref().map(|a| format!("{}@{}", a.op, a.ballot)),
                    ring,
                )
            };
            let _ = writeln!(
                out,
                "  store[{key}]: val={:?} lc={} epoch={} pax.slot={slot} \
                 pax.promised={promised} pax.accepted={accepted:?}\n    ring={ring:?}",
                v.val.as_u64(),
                v.lc,
                v.epoch,
            );
        }
        let _ = writeln!(out, "  ae: {}", self.ae.describe());
        let sh = &self.shared;
        let _ = writeln!(
            out,
            "  node: epoch={} membership=[{}] suspected={:?} store_len={} store_vals={} \
             completed={} ae_repairs_applied={}",
            sh.epoch(),
            sh.membership.load(),
            sh.suspected(),
            sh.store.len(),
            sh.store.values(),
            sh.counters.completed.get(),
            sh.counters.ae_repairs_applied.get(),
        );
    }
}
