//! Initiator-side protocol logic: starting client operations, folding
//! replies, the release barrier (§4.2), and the Paxos proposer (§3.4).
//!
//! Reply handlers resolve their in-flight entry **in place** through the
//! generational slab ([`crate::inflight::InFlightTable`]): a reply is one
//! O(1) slot lookup plus a generation compare, the entry is mutated where
//! it sits, and it is removed only when the operation's life ends. Replies
//! for unknown rids (stale rounds, duplicated acks, recycled slots) fail
//! the generation compare and are silently discarded — every protocol step
//! is idempotent at the replicas.
//!
//! A handler holds its entry and the rest of the worker at the same time:
//! [`Worker::split`] lends the table and a [`Cx`] (sessions, store, hook,
//! retry queue) side by side, and every step that runs with an entry in
//! hand — completing it, advancing a release, the Paxos proposer — is a
//! `Cx` method taking the entry's state.
//!
//! A quorum round is described once, by its state's `round(rid)`
//! ([`crate::inflight::Round`]): the first transmission sends it to every
//! voter, and [`Worker::scan_retransmits`] resends the same description to
//! whoever has not answered. The one request built in this file is the
//! `EsWrite` of [`Worker::broadcast_es_write`], because an untracked write
//! has no state to describe it. A round is timed once too: every send goes
//! through [`transmit`], which restarts its entry's retransmission clock.

#![allow(clippy::too_many_arguments)] // protocol handlers thread (now, cfg, outbox, ...) explicitly

use std::sync::Arc;

use kite_common::{ClusterConfig, Key, Lc, NodeId, NodeSet, OpId, Val};
use kite_kvs::paxos_meta::{AcceptedCmd, RmwCommit};
use kite_simnet::Outbox;

use crate::antientropy::send_repair;
use crate::api::{Op, OpOutput};
use crate::inflight::{
    AcquireState, Barrier, EsWriteState, InFlight, Meta, ReadFold, ReleaseState, RmwKind, RmwPhase,
    RmwState, Round, SlowReadState, SlowReleaseSub, SlowWriteState, WindowReliefState,
};
use crate::msg::{Cmd, CommitPayload, Msg, PromiseOutcome, Repair};
use crate::session::ProtocolMode;
use crate::worker::{Cx, StartResult, Worker};

/// Outcome of [`Worker::rmw_decide_cmd`] at a phase-1 quorum.
enum RmwDecision {
    /// A command was chosen (adopted or freshly evaluated): enter accept.
    Cmd,
    /// The operation completed inline (failed CAS against a stable base,
    /// or a command discovered to have already committed).
    Finished(OpOutput),
    /// The key's slot advanced *under* this round, so the local base may
    /// embody a commit this round knows nothing about — possibly our own
    /// command's (an anti-entropy repair can deliver a commit's value and
    /// slot before the commit message itself). Deciding against such a
    /// base is unsound; re-propose instead, which routes through the ring
    /// checks (local at round start, acceptor-side at every promise).
    Restart,
}

/// Base backoff before retrying a nacked Paxos round (dueling proposers):
/// roughly one commit latency, so the loser's next round usually lands on
/// the freshly advanced slot instead of re-dueling. Jittered per request id
/// to break symmetry deterministically.
const RMW_BACKOFF_NS: u64 = 10_000;

#[inline]
fn rmw_backoff(rid: u64, exp: u8) -> u64 {
    (RMW_BACKOFF_NS << exp.min(5)) + (rid % 8) * 2_500
}

/// Send `round` and restart its entry's retransmission clock: `last_sent` is
/// when any of the entry's rounds last went out, first or again.
fn transmit(
    round: Round,
    meta: &mut Meta,
    now: u64,
    me: NodeId,
    to: NodeSet,
    out: &mut Outbox<Msg>,
) {
    meta.last_sent = now;
    round.send(me, to, out);
}

impl Worker {
    fn meta(&self, si: usize, op_id: OpId, key: Key, op: Op, now: u64) -> Meta {
        Meta { sess: si, op_id, key, op, invoked_at: now, last_sent: now }
    }

    /// Track `entry` and make the first transmission of the round it opens
    /// (none, for a release whose first round waits for the barrier).
    fn launch(&mut self, entry: InFlight, now: u64, out: &mut Outbox<Msg>) -> u64 {
        let (me, voters) = (self.me, self.voters());
        let rid = self.inflight.insert(entry);
        let entry = self.inflight.get_mut(rid).expect("just inserted");
        for round in entry.rounds(rid).into_iter().flatten() {
            transmit(round, entry.meta_mut(), now, me, voters, out);
        }
        rid
    }

    // =====================================================================
    // Operation start
    // =====================================================================

    pub(crate) fn start_op(
        &mut self,
        si: usize,
        op_id: OpId,
        op: Op,
        now: u64,
        out: &mut Outbox<Msg>,
    ) -> StartResult {
        use ProtocolMode::*;
        match op.clone() {
            Op::Read { key } => match self.mode {
                Kite | EsOnly => self.start_relaxed_read(si, op_id, key, op, now, out),
                AbdOnly | PaxosOnly => self.start_acquire(si, op_id, key, op, now, out, false),
            },
            Op::Write { key, val } => match self.mode {
                Kite | EsOnly => self.start_relaxed_write(si, op_id, key, val, op, now, out),
                AbdOnly => self.start_release(si, op_id, key, val, op, now, out, false),
                PaxosOnly => {
                    self.start_rmw(si, op_id, key, RmwKind::Put, Val::EMPTY, val, op, now, out, false)
                }
            },
            Op::Release { key, val } => match self.mode {
                Kite => self.start_release(si, op_id, key, val, op, now, out, true),
                EsOnly => self.start_relaxed_write(si, op_id, key, val, op, now, out),
                AbdOnly => self.start_release(si, op_id, key, val, op, now, out, false),
                PaxosOnly => {
                    self.start_rmw(si, op_id, key, RmwKind::Put, Val::EMPTY, val, op, now, out, false)
                }
            },
            Op::Acquire { key } => match self.mode {
                Kite => self.start_acquire(si, op_id, key, op, now, out, true),
                EsOnly => self.start_relaxed_read(si, op_id, key, op, now, out),
                AbdOnly | PaxosOnly => self.start_acquire(si, op_id, key, op, now, out, false),
            },
            Op::Faa { key, delta } => {
                let sync = self.mode.has_barriers();
                self.start_rmw(si, op_id, key, RmwKind::Faa { delta }, Val::EMPTY, Val::EMPTY, op, now, out, sync)
            }
            Op::CasWeak { key, expect, new } => {
                // Weak CAS (§6.1): a comparison that fails *locally* completes
                // locally — this is what absorbs data-structure conflicts
                // cheaply in §8.3.
                let local = self.shared.store.view(key).val;
                if local != expect {
                    self.complete(si, op_id, op, OpOutput::Cas { ok: false, observed: local }, now, now);
                    return StartResult::Inline;
                }
                let sync = self.mode.has_barriers();
                self.start_rmw(si, op_id, key, RmwKind::Cas { strong: false }, expect, new, op, now, out, sync)
            }
            Op::CasStrong { key, expect, new } => {
                let sync = self.mode.has_barriers();
                self.start_rmw(si, op_id, key, RmwKind::Cas { strong: true }, expect, new, op, now, out, sync)
            }
        }
    }

    /// Relaxed read (§3.2): local if the key is in-epoch, slow-path quorum
    /// read otherwise (§4.1).
    fn start_relaxed_read(
        &mut self,
        si: usize,
        op_id: OpId,
        key: Key,
        op: Op,
        now: u64,
        out: &mut Outbox<Msg>,
    ) -> StartResult {
        let snapshot = self.shared.epoch();
        let view = self.shared.store.view(key);
        if view.epoch == snapshot {
            self.shared.counters.local_reads.incr();
            self.complete(si, op_id, op, OpOutput::Value(view.val), now, now);
            return StartResult::Inline;
        }
        // Out-of-epoch: one quorum round, no write-back (§4.3).
        self.shared.counters.slow_path_accesses.incr();
        let state = SlowReadState {
            meta: self.meta(si, op_id, key, op, now),
            snapshot,
            fold: ReadFold::new(self.me, view.val, view.lc),
            w2: None,
        };
        StartResult::Blocked(self.launch(InFlight::SlowRead(state), now, out))
    }

    /// Relaxed write (§3.2): stamp with the key's next clock, apply locally,
    /// broadcast; completes immediately. Out-of-epoch keys take the §4.3
    /// slow path (LLC quorum round first).
    fn start_relaxed_write(
        &mut self,
        si: usize,
        op_id: OpId,
        key: Key,
        val: Val,
        op: Op,
        now: u64,
        out: &mut Outbox<Msg>,
    ) -> StartResult {
        let window = self.sessions[si].write_window.len();
        if self.mode.has_barriers() && window >= ClusterConfig::WRITE_WINDOW {
            return StartResult::Stall(op);
        }
        let snapshot = self.shared.epoch();
        match self.shared.store.fast_write(key, &val, self.me, snapshot) {
            Some(lc) => {
                self.broadcast_es_write(si, op_id, key, &op, val, lc, now, out);
                self.complete(si, op_id, op, OpOutput::Done, now, now);
                StartResult::Inline
            }
            None => {
                // Out-of-epoch (Kite only): read LLCs from a quorum so the new
                // write dominates anything this machine may have missed (§4.3).
                self.shared.counters.slow_path_accesses.incr();
                let state = SlowWriteState {
                    meta: self.meta(si, op_id, key, op, now),
                    snapshot,
                    val,
                    max_lc: self.shared.store.read_lc(key),
                    reps: NodeSet::singleton(self.me),
                    w2: None,
                };
                StartResult::Blocked(self.launch(InFlight::SlowWrite(state), now, out))
            }
        }
    }

    /// Broadcast a relaxed write ES-style (§3.2). With barriers on, the
    /// write is tracked in the session's window so the next release knows
    /// which machines acked it (§4.2); otherwise it is fire-and-forget
    /// under an untracked rid.
    #[inline]
    fn broadcast_es_write(
        &mut self,
        si: usize,
        op_id: OpId,
        key: Key,
        op: &Op,
        val: Val,
        lc: Lc,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let rid = if self.mode.has_barriers() {
            let mut state = EsWriteState {
                meta: self.meta(si, op_id, key, op.clone(), now),
                val: val.clone(),
                lc,
                acked: NodeSet::singleton(self.me),
            };
            state.meta.invoked_at = u64::MAX; // dated at its quorum
            let rid = self.inflight.insert(InFlight::EsWrite(state));
            self.sessions[si].write_window.push_back(rid);
            rid
        } else {
            self.untracked_rid()
        };
        out.multicast(self.me, self.voters(), Msg::EsWrite { rid, key, val, lc });
    }

    /// The barrier a release/RMW of session `si` starts with: over the
    /// session's outstanding relaxed writes, or already resolved.
    fn barrier_for(&self, si: usize, with_barrier: bool) -> Barrier {
        Barrier::new(if with_barrier {
            self.sessions[si].write_window.iter().copied().collect()
        } else {
            Vec::new()
        })
    }

    /// Release (§4.2): the barrier (gather acks for all prior session
    /// writes) overlapped with ABD write round 1 (§4.3 optimization).
    fn start_release(
        &mut self,
        si: usize,
        op_id: OpId,
        key: Key,
        val: Val,
        op: Op,
        now: u64,
        out: &mut Outbox<Msg>,
        with_barrier: bool,
    ) -> StartResult {
        let barrier = self.barrier_for(si, with_barrier);
        let barrier_pending = !barrier.done;
        // §4.3 optimization: the LLC-read round is benign (it does not make
        // the release visible), so it normally overlaps the barrier wait.
        // The ablation defers it until the barrier resolves.
        let rts_sent = self.overlap_release || barrier.done;
        let state = ReleaseState {
            meta: self.meta(si, op_id, key, op, now),
            val,
            barrier,
            rts_sent,
            rts_reps: NodeSet::singleton(self.me),
            rts_max: self.shared.store.read_lc(key),
            w2: None,
        };
        let rid = self.launch(InFlight::Release(state), now, out);
        if barrier_pending {
            self.add_barrier_waiter(si, rid);
        }
        StartResult::Blocked(rid)
    }

    /// Acquire (§4.2): ABD read with delinquency discovery piggybacked on
    /// both rounds; blocks the session until complete.
    fn start_acquire(
        &mut self,
        si: usize,
        op_id: OpId,
        key: Key,
        op: Op,
        now: u64,
        out: &mut Outbox<Msg>,
        sync: bool,
    ) -> StartResult {
        let view = self.shared.store.view(key);
        // The local replica participates in the quorum; probe our own table
        // too (a slow-release may have told *us* that we are delinquent).
        let delinquent = if sync { self.shared.delinquency.probe(self.me, op_id) } else { false };
        let state = AcquireState {
            meta: self.meta(si, op_id, key, op, now),
            acq: sync.then_some(op_id),
            fold: ReadFold::new(self.me, view.val, view.lc),
            delinquent,
            w2: None,
            decided: false,
        };
        StartResult::Blocked(self.launch(InFlight::Acquire(state), now, out))
    }

    /// RMW (§3.4): leaderless per-key Paxos, with release-barrier semantics
    /// (accept gated on the barrier) and acquire semantics (delinquency
    /// piggybacked on phase replies).
    #[allow(clippy::too_many_arguments)]
    fn start_rmw(
        &mut self,
        si: usize,
        op_id: OpId,
        key: Key,
        kind: RmwKind,
        expect: Val,
        new: Val,
        op: Op,
        now: u64,
        out: &mut Outbox<Msg>,
        with_barrier: bool,
    ) -> StartResult {
        let barrier = self.barrier_for(si, with_barrier);
        let barrier_pending = !barrier.done;
        // §4.3 optimization: the propose phase carries no value, so it
        // normally overlaps the barrier wait (like the release's LLC-read
        // round). The ablation holds the whole Paxos exchange back until
        // the barrier resolves.
        let deferred = !self.overlap_release && barrier_pending;
        let state = RmwState {
            meta: self.meta(si, op_id, key, op, now),
            kind,
            expect,
            new,
            barrier,
            phase: if deferred { RmwPhase::WaitBarrierPropose } else { RmwPhase::Propose },
            slot: 0,
            ballot: Lc::ZERO,
            promises: NodeSet::EMPTY,
            best_accepted: None,
            cmd: None,
            helping: false,
            accepts: NodeSet::EMPTY,
            commits: NodeSet::EMPTY,
            commit_bcast: None,
            pending_output: None,
            delinquent: false,
            retry_at: 0,
            backoff_exp: 0,
            ballot_floor: 0,
        };
        let rid = self.inflight.insert(InFlight::Rmw(state));
        if barrier_pending {
            self.add_barrier_waiter(si, rid);
        }
        if deferred {
            return StartResult::Blocked(rid);
        }
        let (table, mut cx) = self.split();
        let Some(InFlight::Rmw(state)) = table.get_mut(rid) else { unreachable!() };
        if cx.rmw_restart(rid, state, now, out) {
            // Any stale barrier_waiters entry is swept by check_barriers.
            table.remove(rid);
            return StartResult::Inline;
        }
        StartResult::Blocked(rid)
    }

    /// Session `si`'s release/RMW `rid` waits on a barrier over the
    /// session's write window: from here on, acks for those writes are
    /// barrier inputs.
    fn add_barrier_waiter(&mut self, si: usize, rid: u64) {
        self.barrier_waiters.push(rid);
        self.sessions[si].awaiting_barrier = true;
        self.barriers_dirty = true;
    }


    // =====================================================================
    // Reply handlers
    // =====================================================================

    /// Ack for a tracked relaxed write: when *all* machines acked, the write
    /// stops being a barrier obligation (§4.2 fast path).
    pub(crate) fn on_es_ack(&mut self, src: kite_common::NodeId, rid: u64, now: u64) {
        let (voters, quorum) = (self.voters(), self.quorum());
        let Some(InFlight::EsWrite(state)) = self.inflight.get_mut(rid) else { return };
        state.acked.insert(src);
        let si = state.meta.sess;
        if voters.minus(state.acked).is_empty() {
            self.inflight.remove(rid);
            self.remove_from_window(si, rid);
        } else if state.stamp_quorum(quorum, now) || self.slow_mode {
            // Short of "acked by all", an ack moves a barrier (or a stalled
            // session's relief decision) when it dates the write's quorum,
            // or on the slow path when it leaves only suspected replicas missing.
            let sess = &self.sessions[si];
            self.barriers_dirty |= sess.awaiting_barrier || sess.staged.is_some();
        }
    }

    pub(crate) fn on_rts_rep(
        &mut self,
        src: kite_common::NodeId,
        rid: u64,
        lc: Lc,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let quorum = self.quorum();
        let voters = self.voters();
        let stripped = self.stripped_slow;
        let (table, mut cx) = self.split();
        match table.get_mut(rid) {
            Some(InFlight::Release(state)) => {
                state.rts_reps.insert(src);
                state.rts_max = state.rts_max.max(lc);
                cx.try_advance_release(quorum, rid, state, now, out);
            }
            Some(InFlight::SlowWrite(state)) => {
                if state.w2.is_some() {
                    // Value round already started (full-ABD ablation); this
                    // is a late stamp reply.
                    return;
                }
                state.reps.insert(src);
                state.max_lc = state.max_lc.max(lc);
                if state.reps.len() < quorum {
                    return;
                }
                // Quorum of stamps: the write now dominates anything this
                // machine missed. Mint + apply + restore in-epoch under
                // one lock — a `succ` of the gathered max computed outside
                // the key's seqlock can collide with a concurrent sibling
                // session's fast-write stamp (same `(version, mid)`, two
                // values), a divergence no LLC-max repair can ever heal.
                let wlc = cx.shared.store.stamp_apply(
                    state.meta.key,
                    &state.val,
                    state.max_lc,
                    cx.me,
                    Some(state.snapshot),
                );
                if !stripped {
                    // Full-ABD ablation: the value round must be
                    // quorum-acked before the write completes.
                    state.w2 = Some((wlc, NodeSet::singleton(cx.me)));
                    transmit(state.round(rid), &mut state.meta, now, cx.me, voters, out);
                    return;
                }
                // §4.3 default: broadcast the value ES-style under a fresh
                // rid; completion does not wait for acks — the next release
                // in session order is responsible for quorum visibility.
                let Some(InFlight::SlowWrite(s)) = table.remove(rid) else {
                    unreachable!("entry matched above")
                };
                let Meta { sess, op_id, key, op, invoked_at, .. } = s.meta;
                self.broadcast_es_write(sess, op_id, key, &op, s.val, wlc, now, out);
                self.complete(sess, op_id, op, OpOutput::Done, invoked_at, now);
            }
            _ => {}
        }
    }

    pub(crate) fn on_read_rep(
        &mut self,
        src: kite_common::NodeId,
        rid: u64,
        val: Val,
        lc: Lc,
        delinquent: bool,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let quorum = self.quorum();
        let voters = self.voters();
        let stripped = self.stripped_slow;
        let (table, mut cx) = self.split();
        match table.get_mut(rid) {
            Some(InFlight::SlowRead(state)) => {
                if state.w2.is_some() {
                    // Write-back round already started (full-ABD ablation);
                    // this is a late round-1 reply.
                    return;
                }
                if state.fold.offer(src, val, lc) < quorum {
                    return;
                }
                // Freshest of a quorum; restore the key in-epoch at the
                // snapshot taken when the access started (§4.2).
                cx.shared.store.apply_max_restore(
                    state.meta.key,
                    &state.fold.val,
                    state.fold.lc,
                    state.snapshot,
                );
                state.fold.holders.insert(cx.me);
                if !stripped && state.fold.holders.len() < quorum {
                    // Full-ABD ablation: make the value quorum-visible
                    // before returning it (the §4.3 default skips this —
                    // RC only needs the read to observe missed writes).
                    state.w2 = Some(NodeSet::singleton(cx.me));
                    transmit(state.round(rid), &mut state.meta, now, cx.me, voters, out);
                    return;
                }
                cx.complete(&state.meta, OpOutput::Value(state.fold.val.clone()), now);
                table.remove(rid);
            }
            Some(InFlight::Acquire(state)) => {
                state.delinquent |= delinquent;
                if state.decided {
                    // Round 1 already acted; this is a late replica.
                    return;
                }
                if state.fold.offer(src, val, lc) < quorum {
                    return;
                }
                state.decided = true;
                // Apply the freshest value locally either way.
                cx.shared.store.apply_max(state.meta.key, &state.fold.val, state.fold.lc);
                if state.fold.holders.len() >= quorum {
                    let value = OpOutput::Value(state.fold.val.clone());
                    cx.complete_sync(&state.meta, state.delinquent, value, now, out);
                    table.remove(rid); // acquire complete
                    return;
                }
                // Write-back round (§3.3): make the value quorum-visible
                // before returning it.
                state.w2 = Some(NodeSet::singleton(cx.me));
                transmit(state.round(rid), &mut state.meta, now, cx.me, voters, out);
            }
            _ => {}
        }
    }

    /// An ack of a value round (`w2`): count it once, then finish whatever
    /// the round belonged to when a quorum holds the value.
    pub(crate) fn on_write_ack(
        &mut self,
        src: kite_common::NodeId,
        rid: u64,
        delinquent: bool,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let quorum = self.quorum();
        let voters = self.voters();
        let (table, mut cx) = self.split();
        let Some(entry) = table.get_mut(rid) else { return };
        if let InFlight::Acquire(state) = entry {
            state.delinquent |= delinquent;
        }
        let Some(acked) = entry.value_acks() else { return };
        acked.insert(src);
        if acked.len() < quorum {
            return;
        }
        let acked = *acked;
        match entry {
            InFlight::Release(state) => {
                if state.barrier.slow.is_some() {
                    cx.shared.counters.slow_releases.incr();
                } else {
                    cx.shared.counters.fast_releases.incr();
                }
                cx.complete(&state.meta, OpOutput::Done, now);
                // The value round stops retransmitting here; a replica
                // outside its quorum converges through the anti-entropy
                // sweep, like every other divergence.
                table.remove(rid);
            }
            InFlight::Acquire(state) => {
                let value = OpOutput::Value(state.fold.val.clone());
                cx.complete_sync(&state.meta, state.delinquent, value, now, out);
                table.remove(rid);
            }
            InFlight::SlowRead(state) => {
                // Write-back round of the full-ABD ablation.
                cx.complete(&state.meta, OpOutput::Value(state.fold.val.clone()), now);
                table.remove(rid);
            }
            InFlight::SlowWrite(state) => {
                // Value round of the full-ABD ablation: complete at a
                // quorum, then keep the entry alive as a tracked relaxed
                // write so later release barriers see its remaining acks.
                let (wlc, _) = state.w2.expect("value round acked");
                cx.complete(&state.meta, OpOutput::Done, now);
                if cx.mode.has_barriers() && !voters.minus(acked).is_empty() {
                    // Convert the entry in place (same rid, same slot):
                    // late replica acks to the original WriteMsg keep
                    // counting toward the relaxed write's ack set.
                    let si = state.meta.sess;
                    let es = EsWriteState {
                        meta: Meta { invoked_at: now, last_sent: now, ..state.meta.clone() },
                        val: state.val.clone(),
                        lc: wlc,
                        acked,
                    };
                    *entry = InFlight::EsWrite(es);
                    cx.sessions[si].write_window.push_back(rid);
                } else {
                    table.remove(rid);
                }
            }
            // EsWrite entries never reach here: plain acks (including a
            // converted slow write's late WriteMsg acks) are routed to
            // `on_es_ack` by the worker's kind dispatch, and `WriteAck`
            // itself is only sent for acquire-tagged rounds.
            _ => {}
        }
    }


    pub(crate) fn on_slow_release_ack(&mut self, src: kite_common::NodeId, rid: u64) {
        match self.inflight.get_mut(rid) {
            Some(InFlight::WindowRelief(s)) => {
                s.acked.insert(src);
                if s.acked.len() >= self.shared.quorum() {
                    let Some(InFlight::WindowRelief(state)) = self.inflight.remove(rid) else {
                        unreachable!("entry matched above")
                    };
                    self.finish_window_relief(state);
                }
            }
            // Release/RMW barrier resolution is evaluated by
            // `check_barriers`, which the ack makes due.
            Some(entry) => {
                if let Some(Barrier { slow: Some(sub), .. }) = entry.barrier_mut() {
                    sub.acked.insert(src);
                    self.barriers_dirty = true;
                }
            }
            None => {}
        }
    }

    // =====================================================================
    // Barrier machinery (§4.2)
    // =====================================================================

    /// Evaluate all unresolved barriers: fast-path resolution, timeout →
    /// slow-release, slow-path resolution.
    ///
    /// Called by the tick only when it can find something: a barrier input
    /// moved (`barriers_dirty`) or a waiter reached the release timeout
    /// (`barrier_deadline`). An evaluation with neither is a no-op — a
    /// barrier's verdict is a function of its writes' ack sets, its
    /// slow-release acks, the suspected set, the membership and which
    /// timeouts have passed — so skipping it changes nothing. It leaves
    /// `barriers_dirty` set only if a slow-path transition changed the
    /// inputs of waiters it had already looked at, and folds every waiter's
    /// next timeout into `barrier_deadline`.
    ///
    /// Each waiter's barrier is *taken out* of its entry for the duration
    /// of the evaluation (a move, no allocation) so the rest of the table
    /// stays readable — the fast-path check peeks at the sibling EsWrite
    /// entries — and then put back. Entries are never removed and
    /// reinserted.
    pub(crate) fn check_barriers(&mut self, now: u64, out: &mut Outbox<Msg>) {
        self.barriers_dirty = false;
        self.barrier_passes += 1;
        // Refreshed below: a waiter on the slow path keeps it set.
        self.slow_mode = !self.shared.suspected().is_empty();
        if self.barrier_waiters.is_empty() {
            return;
        }
        let mut any_resolved = false;
        for i in 0..self.barrier_waiters.len() {
            let rid = self.barrier_waiters[i];
            let taken = self.inflight.get_mut(rid).map(|e| {
                let barrier = e.barrier_mut().expect("barrier waiter must be release or rmw");
                std::mem::replace(barrier, Barrier::resolved())
            });
            let Some(mut barrier) = taken else {
                // Entry already gone (op completed): drop the waiter.
                self.barrier_waiters[i] = u64::MAX;
                any_resolved = true;
                continue;
            };
            let done = self.evaluate_barrier(rid, &mut barrier, now, out);
            if !done {
                self.slow_mode |= barrier.slow.is_some();
                let entry = self.inflight.get_mut(rid).expect("entry checked above");
                *entry.barrier_mut().expect("entry checked above") = barrier;
                continue;
            }
            self.barrier_waiters[i] = u64::MAX;
            any_resolved = true;
            // Slow-path resolution subsumes the writes: delinquency is
            // published, so tracking (and retransmitting) them can stop.
            // (Each removal is an input of the waiters evaluated before
            // this one: `remove_from_window` marks the table dirty.)
            if barrier.slow.is_some() {
                for wi in 0..barrier.writes.len() {
                    let wrid = barrier.writes[wi];
                    if let Some(InFlight::EsWrite(w)) = self.inflight.remove(wrid) {
                        self.remove_from_window(w.meta.sess, wrid);
                    }
                }
            }
            // Put the resolved barrier back and run the deferred rounds.
            let quorum = self.quorum();
            let voters = self.voters();
            let (table, mut cx) = self.split();
            let consumed = match table.get_mut(rid) {
                Some(InFlight::Release(state)) => {
                    cx.sessions[state.meta.sess].awaiting_barrier = false;
                    state.barrier = barrier;
                    if !state.rts_sent {
                        // Deferred LLC-read round (overlap ablation).
                        state.rts_sent = true;
                        let round = state.round(rid).expect("round 1 just opened");
                        transmit(round, &mut state.meta, now, cx.me, voters, out);
                    }
                    cx.try_advance_release(quorum, rid, state, now, out);
                    false
                }
                Some(InFlight::Rmw(state)) => {
                    cx.sessions[state.meta.sess].awaiting_barrier = false;
                    state.barrier = barrier;
                    match state.phase {
                        RmwPhase::WaitBarrier => cx.rmw_accept(rid, state, now, out),
                        // Deferred propose phase (overlap ablation).
                        RmwPhase::WaitBarrierPropose => cx.rmw_restart(rid, state, now, out),
                        _ => false,
                    }
                }
                _ => unreachable!("entry checked above"),
            };
            if consumed {
                table.remove(rid);
            }
        }
        if any_resolved {
            self.barrier_waiters.retain(|&r| r != u64::MAX);
        }
    }

    /// One barrier's state transition. Returns whether it is now resolved.
    /// `rid` is the owning release/RMW's request id — the slow-release
    /// broadcast reuses it (message types disambiguate the replies). The
    /// barrier is passed detached from its entry (see `check_barriers`).
    fn evaluate_barrier(
        &mut self,
        rid: u64,
        barrier: &mut Barrier,
        now: u64,
        out: &mut Outbox<Msg>,
    ) -> bool {
        if barrier.done {
            return true;
        }
        // Fast path: every prior write acked by all machines — its in-flight
        // entry is removed on the final ack, so "gone" means "acked by all".
        let all_gone = barrier.writes.iter().all(|w| !self.inflight.contains(*w));
        if all_gone && barrier.slow.is_none() {
            barrier.done = true;
            return true;
        }
        // Who is past due? A node joins the DM-set only for writes that
        // have waited out the timeout since they reached their quorum (not
        // since their send, which counts queueing behind a busy worker; a release
        // behind a long-stuck write goes slow at once — the §8.4 timeline
        // depends on it) or whose missing ackers are all already suspected.
        // Acks merely in flight for young writes must NOT mark healthy
        // replicas delinquent — that would cascade needless epoch bumps.
        let (dm_due, next_overdue) = self.barrier_overdue_missing(&barrier.writes, now);
        self.barrier_deadline = self.barrier_deadline.min(next_overdue);
        match &mut barrier.slow {
            None => {
                if dm_due.is_empty() {
                    return false; // keep waiting for (young) acks
                }
                // §4.2 slow-path release: publish the DM-set, retransmit
                // the writes so they reach a quorum under loss.
                self.suspect_all(dm_due);
                for wi in 0..barrier.writes.len() {
                    self.retransmit_es_write(barrier.writes[wi], now, out);
                }
                self.shared.delinquency.mark_delinquent(dm_due);
                barrier.slow =
                    Some(SlowReleaseSub { dm: dm_due, acked: NodeSet::singleton(self.me) });
                self.shared.counters.slow_releases.incr();
            }
            Some(sub) => {
                // More writes may have aged out since the DM broadcast:
                // extend it (the published set must cover every machine that
                // may miss a barrier write — Lemma 5.2).
                let extra = dm_due.minus(sub.dm);
                if extra.is_empty() {
                    // Slow path resolves when the DM broadcast is
                    // quorum-acked and every prior write is quorum-acked
                    // with its remaining non-ackers covered by the published
                    // DM (invariants 1+2 of §4.2).
                    let (quorum, voters, dm) = (self.quorum(), self.voters(), sub.dm);
                    let dm_ok = sub.acked.len() >= quorum;
                    let writes_ok = barrier.writes.iter().all(|w| match self.inflight.get(*w) {
                        Some(InFlight::EsWrite(es)) => es.covered_by(dm, voters, quorum),
                        _ => true,
                    });
                    barrier.done = dm_ok && writes_ok;
                    return barrier.done;
                }
                self.barriers_dirty = true;
                sub.dm = sub.dm.union(extra);
                sub.acked = NodeSet::singleton(self.me);
                self.shared.delinquency.mark_delinquent(extra);
            }
        }
        // The DM round opened or grew (its detached barrier's owner is in the table).
        let (me, voters) = (self.me, self.voters());
        let round = barrier.round(rid).expect("slow round open");
        let owner = self.inflight.get_mut(rid).expect("a barrier's owner is in flight");
        transmit(round, owner.meta_mut(), now, me, voters, out);
        false
    }

    /// Nodes missing acks for barrier writes that are past due: the release
    /// timeout passed since the write reached its quorum (dated here if no
    /// ack did: a membership change can lower the quorum under a write), or
    /// everyone the write is missing is already suspected. Second: the
    /// earliest time a write that is *not* yet due becomes so by age alone
    /// (`u64::MAX` if none can) — when the verdict can next change.
    fn barrier_overdue_missing(&mut self, writes: &[u64], now: u64) -> (NodeSet, u64) {
        let (all, quorum) = (self.voters(), self.quorum());
        let suspected = self.shared.suspected();
        let mut dm = NodeSet::EMPTY;
        let mut next_overdue = u64::MAX;
        for w in writes {
            if let Some(InFlight::EsWrite(es)) = self.inflight.get_mut(*w) {
                let missing = all.minus(es.acked);
                if missing.is_empty() {
                    continue;
                }
                es.stamp_quorum(quorum, now);
                let due = es.meta.invoked_at.saturating_add(self.release_timeout);
                if now >= due || missing.minus(suspected).is_empty() {
                    dm = dm.union(missing);
                } else {
                    next_overdue = next_overdue.min(due);
                }
            }
        }
        (dm, next_overdue)
    }

    /// Start a write-window relief round for session `si` if its window is
    /// stuck: publish the missing ackers' delinquency to a quorum, then
    /// retire quorum-acked writes (see `WindowReliefState`). At most one
    /// relief per session.
    pub(crate) fn maybe_window_relief(&mut self, si: usize, now: u64, out: &mut Outbox<Msg>) {
        if !self.mode.has_barriers() || self.sessions[si].relief.is_some() {
            return;
        }
        let writes: Vec<u64> = self.sessions[si].write_window.iter().copied().collect();
        // Only *overdue* missing ackers are published — acks in flight for
        // young writes are not delinquency.
        let (dm, next_overdue) = self.barrier_overdue_missing(&writes, now);
        if dm.is_empty() {
            // Acks are simply in flight: the session is retried when a
            // write leaves its window, when an input of this decision moves,
            // or when a quorum-acked write has waited out the timeout.
            self.barrier_deadline = self.barrier_deadline.min(next_overdue);
            return;
        }
        self.suspect_all(dm);
        self.shared.delinquency.mark_delinquent(dm);
        self.shared.counters.slow_releases.incr();
        let op_id = OpId::new(self.sessions[si].id, u64::MAX); // synthetic
        let meta = self.meta(si, op_id, Key(0), Op::Read { key: Key(0) }, now);
        let relief = WindowReliefState { meta, dm, acked: NodeSet::singleton(self.me), writes };
        self.sessions[si].relief = Some(self.launch(InFlight::WindowRelief(relief), now, out));
    }

    /// Relief's DM broadcast is quorum-acked: retire every covered write
    /// that reached a quorum; the session's window drains and it resumes.
    fn finish_window_relief(&mut self, state: WindowReliefState) {
        let (quorum, voters) = (self.quorum(), self.voters());
        for w in &state.writes {
            let retire = matches!(self.inflight.get(*w),
                Some(InFlight::EsWrite(es)) if es.covered_by(state.dm, voters, quorum));
            if retire {
                if let Some(InFlight::EsWrite(es)) = self.inflight.remove(*w) {
                    self.remove_from_window(es.meta.sess, *w);
                }
            }
        }
        // The session may still be stalled (nothing was quorum-acked yet):
        // its next attempt can start another round.
        self.sessions[state.meta.sess].relief = None;
        self.barriers_dirty = true;
    }

    fn retransmit_es_write(&mut self, rid: u64, now: u64, out: &mut Outbox<Msg>) {
        let (me, voters) = (self.me, self.voters());
        if let Some(InFlight::EsWrite(es)) = self.inflight.get_mut(rid) {
            transmit(es.round(rid), &mut es.meta, now, me, voters, out);
        }
    }

    // =====================================================================
    // Paxos proposer (§3.4): replies
    // =====================================================================

    pub(crate) fn on_promise_rep(
        &mut self,
        src: kite_common::NodeId,
        rid: u64,
        ballot: Lc,
        outcome: PromiseOutcome,
        delinquent: bool,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let quorum = self.quorum();
        let (table, mut cx) = self.split();
        let Some(InFlight::Rmw(state)) = table.get_mut(rid) else { return };
        state.delinquent |= delinquent;
        if state.phase != RmwPhase::Propose || ballot != state.ballot {
            return; // stale round
        }
        let finished = match outcome {
            PromiseOutcome::Promised { accepted } => {
                state.promises.insert(src);
                if let Some(boxed) = accepted {
                    let (b, cmd) = *boxed;
                    if state.best_accepted.as_ref().is_none_or(|(bb, _)| b > *bb) {
                        state.best_accepted = Some((b, cmd));
                    }
                }
                if state.promises.len() < quorum {
                    return;
                }
                // Phase-1 quorum reached: pick the command (adopt the
                // highest accepted, else evaluate our own RMW on the local
                // base value) and move to the accept phase, gated on the
                // release barrier (§4.2 "RMWs").
                match cx.rmw_decide_cmd(state) {
                    RmwDecision::Finished(output) => {
                        // Comparison failed against a stable base (or the
                        // op turned out already committed): done without
                        // running consensus.
                        cx.complete_sync(&state.meta, state.delinquent, output, now, out);
                        true
                    }
                    RmwDecision::Restart => cx.rmw_restart(rid, state, now, out),
                    RmwDecision::Cmd if state.barrier.done => cx.rmw_accept(rid, state, now, out),
                    RmwDecision::Cmd => {
                        state.phase = RmwPhase::WaitBarrier;
                        false
                    }
                }
            }
            PromiseOutcome::NackBallot { promised } => {
                cx.rmw_back_off(rid, state, promised.version(), now);
                false
            }
            PromiseOutcome::AlreadyCommitted(r) => {
                cx.shared.counters.rmw_already_committed.incr();
                // Catch up to the decided prefix: the acceptor's repair
                // merges its ring evidence and advances the slot before it
                // applies the value (evidence travels with advancement —
                // see `crate::msg::Repair`).
                r.apply(&cx.shared.store);
                let op = state.meta.op_id;
                if let Some(c) = r.ring.iter().find(|c| c.op == op) {
                    // Our command was helped to commit by another proposer:
                    // complete exactly once with its recorded result — after
                    // making the caught-up value (which subsumes our commit)
                    // quorum-visible.
                    state.pending_output = Some(rmw_output(state.kind, &c.result));
                    let Repair { slot, val, lc, .. } = *r;
                    let slot = slot.saturating_sub(1);
                    cx.rmw_start_commit_round(rid, state, slot, val, lc, None, now, out);
                    return;
                }
                // Retry at the new slot with a fresh evaluation.
                cx.rmw_restart(rid, state, now, out)
            }
            PromiseOutcome::Lagging => {
                // The replica missed a commit: repair it with the decided
                // prefix (the key's current value summarizes it, the ring
                // evidence travels along) and let the retransmission logic
                // re-propose. Paxos liveness depends on lagging acceptors
                // catching up, so this solicited repair does not wait for
                // the sweep.
                send_repair(cx.shared, src, state.meta.key, out);
                false
            }
        };
        if finished {
            table.remove(rid);
        }
    }

    pub(crate) fn on_accept_rep(
        &mut self,
        src: kite_common::NodeId,
        rid: u64,
        ballot: Lc,
        ok: bool,
        promised: Lc,
        delinquent: bool,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let quorum = self.quorum();
        let (table, mut cx) = self.split();
        let Some(InFlight::Rmw(state)) = table.get_mut(rid) else { return };
        state.delinquent |= delinquent;
        if state.phase != RmwPhase::Accept || ballot != state.ballot {
            return;
        }
        if !ok {
            cx.rmw_back_off(rid, state, promised.version(), now);
            return;
        }
        state.accepts.insert(src);
        if state.accepts.len() >= quorum {
            cx.rmw_commit(rid, state, now, out);
        }
    }

    /// Commit visibility acks: when a quorum holds the committed value, the
    /// RMW completes (or, when helping, our own command goes again).
    pub(crate) fn on_commit_ack(
        &mut self,
        src: kite_common::NodeId,
        rid: u64,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        let quorum = self.quorum();
        let (table, mut cx) = self.split();
        let Some(InFlight::Rmw(state)) = table.get_mut(rid) else { return };
        if state.phase != RmwPhase::Commit {
            return;
        }
        state.commits.insert(src);
        if state.commits.len() < quorum {
            return;
        }
        // The round ends here (the entry is removed or restarted below);
        // replicas outside the visibility quorum converge through the
        // anti-entropy sweep or the key's next consensus round.
        match state.pending_output.take() {
            Some(output) => {
                cx.complete_sync(&state.meta, state.delinquent, output, now, out);
                table.remove(rid);
            }
            None => {
                // We were helping: our own command goes next — in a fresh
                // round under a *re-keyed* rid. Removing and reinserting the
                // entry bumps the slot generation, so any straggler ack from
                // the just-finished commit round goes stale and can never be
                // counted toward the new round's visibility quorum (commit
                // acks are plain rids — unlike `PromiseRep`/`AcceptRep`
                // there is no echoed ballot to filter stale rounds on).
                let si = state.meta.sess;
                let entry = table.remove(rid).expect("entry borrowed above");
                let new_rid = table.insert(entry);
                let Some(InFlight::Rmw(state)) = table.get_mut(new_rid) else {
                    unreachable!("just inserted")
                };
                if cx.rmw_restart(new_rid, state, now, out) {
                    table.remove(new_rid);
                } else if cx.sessions[si].blocked_on == Some(rid) {
                    cx.sessions[si].blocked_on = Some(new_rid);
                }
            }
        }
    }

    // =====================================================================
    // Retransmission / timers
    // =====================================================================

    /// Periodic scan: resend every due entry's open rounds (its barrier's,
    /// then its own) to the voters that have not answered. A dense walk over
    /// the slab in slot order (deterministic) — no key collection, no
    /// sorting, no hashing.
    pub(crate) fn scan_retransmits(&mut self, now: u64, out: &mut Outbox<Msg>) {
        let (me, quorum, voters) = (self.me, self.quorum(), self.voters());
        let suspected = self.shared.suspected();
        for (rid, entry) in self.inflight.iter_mut() {
            if now.saturating_sub(entry.meta().last_sent) < self.retransmit {
                continue;
            }
            // The one rule that is not mechanical: never chase *suspected*
            // replicas once a quorum holds a relaxed write — recovery for
            // those is the delinquency mechanism's job, and blind
            // retransmission toward a dead node is a traffic storm.
            let spared = match entry {
                InFlight::EsWrite(es) if es.acked.len() >= quorum => suspected,
                _ => NodeSet::EMPTY,
            };
            for round in entry.rounds(rid).into_iter().flatten() {
                transmit(round, entry.meta_mut(), now, me, voters.minus(spared), out);
            }
        }
    }

    /// Fire due RMW conflict backoffs (called every tick).
    pub(crate) fn fire_rmw_retries(&mut self, now: u64, out: &mut Outbox<Msg>) {
        if self.rmw_retries.is_empty() {
            return;
        }
        // Drain the due ones into the worker's scratch buffer (taken, so a
        // restart below may schedule a new back-off), in scheduling order.
        let mut due = std::mem::take(&mut self.rmw_due);
        self.rmw_retries.retain(|&(rid, at)| {
            let waiting = now < at;
            if !waiting {
                due.push(rid);
            }
            waiting
        });
        for &rid in &due {
            let (table, mut cx) = self.split();
            let Some(InFlight::Rmw(state)) = table.get_mut(rid) else { continue };
            // Only restart if the round is still stuck (a quorum may have
            // arrived after the nack; phase transitions clear retry_at).
            if state.retry_at == 0 || now < state.retry_at {
                continue;
            }
            cx.shared.counters.rmw_backoffs.incr();
            if cx.rmw_restart(rid, state, now, out) {
                table.remove(rid);
            }
        }
        due.clear();
        self.rmw_due = due;
    }
}

/// The protocol steps that run while a handler holds an in-flight entry.
impl Cx<'_> {
    /// Complete an op with acquire semantics — an acquire, or an RMW (§4.2
    /// "RMWs"); the caller removes the entry afterwards. (An RMW's stale
    /// entry in `barrier_waiters` is cleaned up by the next `check_barriers`
    /// pass.)
    fn complete_sync(
        &mut self,
        meta: &Meta,
        delinquent: bool,
        output: OpOutput,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        if delinquent && self.mode.has_barriers() {
            // Transition to the slow path *before* completing the acquire:
            // bump the machine epoch (all keys fall out-of-epoch), then
            // broadcast the reset so later acquires are not re-notified
            // (§4.2.1; Lemmas 5.4, 5.6). The bump is elided if a concurrent
            // acquire already bumped after this one began.
            self.shared.bump_epoch_once(meta.invoked_at, now);
            self.shared.delinquency.reset(self.me, meta.op_id);
            out.multicast(self.me, self.shared.voters(), Msg::ResetBit { acq: meta.op_id });
        }
        self.complete(meta, output, now);
    }

    /// Start the release's value round once the barrier is resolved and a
    /// quorum of stamps has been read.
    fn try_advance_release(
        &mut self,
        quorum: usize,
        rid: u64,
        state: &mut ReleaseState,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        if !state.barrier.done || state.w2.is_some() || state.rts_reps.len() < quorum {
            return;
        }
        // Mint + apply atomically (see `Store::stamp_apply`): the stamp
        // must rise above the round-1 quorum max *and* whatever a racing
        // local fast write stamped since — outside the lock the two mints
        // can collide on one `(version, mid)` with different values.
        let lc =
            self.shared.store.stamp_apply(state.meta.key, &state.val, state.rts_max, self.me, None);
        state.w2 = Some((lc, NodeSet::singleton(self.me)));
        let round = state.round(rid).expect("round 2 just opened");
        transmit(round, &mut state.meta, now, self.me, self.shared.voters(), out);
    }

    // =====================================================================
    // Paxos proposer (§3.4): rounds
    // =====================================================================

    /// Begin a fresh proposal round: self-promise under the key's Paxos
    /// lock, then broadcast `Propose`.
    ///
    /// Returns `Some(output)` if the operation's command turns out to have
    /// already committed (another proposer *helped* it while we were backing
    /// off — the commit's ring entry proves it). The op must then finish
    /// with that output instead of proposing: re-proposing would execute
    /// the RMW a second time ([`Cx::rmw_restart`] does both).
    #[must_use]
    fn rmw_new_round(
        &mut self,
        rid: u64,
        state: &mut RmwState,
        now: u64,
        out: &mut Outbox<Msg>,
    ) -> Option<OpOutput> {
        let (shared, me) = (self.shared, self.me);
        let key = state.meta.key;
        let (slot, ballot, accepted) = {
            let pax = shared.store.paxos(key);
            let mut pax = pax.lock();
            if let Some(done) = pax.committed.find(state.meta.op_id) {
                return Some(rmw_output(state.kind, &done.result));
            }
            // Strictly above every ballot THIS request ever used, not just
            // the acceptor floor: `advance_past` resets `promised` to ZERO
            // at a slot transition, so without the `state.ballot` term the
            // new slot's first ballot can collide exactly with the old
            // slot's last one — and since promise/accept replies echo only
            // the ballot (no slot), a stale reply from the previous slot's
            // round then passes the stale-round filter and hands this
            // round a *previous slot's* accepted command to adopt. That
            // command re-commits at the new slot: duplicate RMW execution
            // (two FAAs observing the same base — re-injected,
            // `tests/chaos.rs::random_schedules_preserve_rclin` catches it
            // at its default seed). Per-rid ballot monotonicity makes every
            // stale reply unmistakable.
            let version =
                pax.promised.version().max(state.ballot_floor).max(state.ballot.version()) + 1;
            let ballot = Lc::new(version, me);
            pax.promised = ballot;
            let accepted = pax.accepted.as_ref().map(|a| {
                (
                    a.ballot,
                    Cmd { op: a.op, new_val: a.new_val.clone(), result: a.result.clone(), lc: a.lc },
                )
            });
            (pax.slot, ballot, accepted)
        };
        state.slot = slot;
        state.ballot = ballot;
        state.phase = RmwPhase::Propose;
        state.promises = NodeSet::singleton(me);
        state.best_accepted = accepted;
        state.cmd = None;
        state.helping = false;
        state.accepts = NodeSet::EMPTY;
        state.commits = NodeSet::EMPTY;
        state.commit_bcast = None;
        state.pending_output = None;
        state.retry_at = 0;
        shared.counters.rmw_rounds.incr();
        let round = state.round(rid).expect("propose phase");
        transmit(round, &mut state.meta, now, me, shared.voters(), out);
        None
    }

    /// [`Cx::rmw_new_round`], finishing the op instead when it turns out to
    /// have committed already. True: finished — remove the entry.
    #[must_use]
    fn rmw_restart(
        &mut self,
        rid: u64,
        state: &mut RmwState,
        now: u64,
        out: &mut Outbox<Msg>,
    ) -> bool {
        match self.rmw_new_round(rid, state, now, out) {
            Some(output) => {
                self.complete_sync(&state.meta, state.delinquent, output, now, out);
                true
            }
            None => false,
        }
    }

    /// A higher ballot is promised somewhere (an acceptor's nack, or a lost
    /// local duel): rise above it next round, which waits out the
    /// exponential backoff unless a retry is already scheduled.
    fn rmw_back_off(&mut self, rid: u64, state: &mut RmwState, promised_version: u64, now: u64) {
        self.shared.counters.rmw_nacks.incr();
        state.ballot_floor = state.ballot_floor.max(promised_version);
        if state.retry_at == 0 {
            state.retry_at = now + rmw_backoff(rid, state.backoff_exp);
            state.backoff_exp = state.backoff_exp.saturating_add(1);
            self.rmw_retries.push((rid, state.retry_at));
        }
    }

    /// Pick the command for a phase-1 quorum: adopt the highest accepted,
    /// else evaluate our own RMW on the local base value. See
    /// [`RmwDecision`] for the outcomes.
    fn rmw_decide_cmd(&self, state: &mut RmwState) -> RmwDecision {
        let (shared, me) = (self.shared, self.me);
        if let Some((_, cmd)) = state.best_accepted.take() {
            state.helping = cmd.op != state.meta.op_id;
            if state.helping {
                shared.counters.rmw_helped.incr();
            }
            state.cmd = Some(Arc::new(cmd));
            return RmwDecision::Cmd;
        }
        let base = shared.store.view(state.meta.key).val;
        // The commit stamp is fixed here, at decide time, and travels
        // with the command (msg::Cmd::lc): it must rise above everything
        // this proposer has seen — in particular the previous slot's
        // commit, which it applied before advancing — so commit clocks
        // grow monotonically along each key's slot chain at *every*
        // committer, owner or helper.
        //
        // Minted *outside* the key's seqlock (the gather happens here, the
        // apply at commit time), so it lives in the RMW half of the stamp
        // space (`Lc::succ_rmw`): a concurrent fast write that observed the
        // same clock mints `succ` with an untagged mid byte, which can
        // never equal this stamp — without the partition the two could tie
        // on `(version, mid)` with different values, a divergence LLC-max
        // treats as converged and no repair can heal (pinned by the kvs
        // race test `rmw_mints_never_collide_with_relaxed_mints`).
        let clc = shared.store.read_lc(state.meta.key).succ_rmw(me);
        let cmd = match state.kind {
            RmwKind::Faa { delta } => Cmd {
                op: state.meta.op_id,
                new_val: Val::from_u64(base.as_u64().wrapping_add(delta)),
                result: base,
                lc: clc,
            },
            RmwKind::Cas { .. } => {
                if base == state.expect {
                    Cmd { op: state.meta.op_id, new_val: state.new.clone(), result: base, lc: clc }
                } else {
                    // The failed comparison is the one completion that
                    // bypasses consensus, so it must be certain the
                    // non-EMPTY base is not *our own command's* work.
                    // While this round's promises were in flight, a
                    // dueling proposer may have adopted our accepted
                    // command from an earlier round and committed it — and
                    // that commit's arrival is precisely what made `base`
                    // non-EMPTY. Two guards, under one lock:
                    //   * the committed ring knows the op → complete with
                    //     its recorded result (the commit reached us);
                    //   * the slot moved under the round → Restart: the
                    //     base embodies a commit this round hasn't
                    //     reasoned about — possibly ours arriving
                    //     *ring-lessly* via an anti-entropy repair that
                    //     outran the commit message. The re-propose hits
                    //     acceptors whose rings hold the commit (an
                    //     `AlreadyCommitted` ring naming our op),
                    //     recovering the true result.
                    // Without these, a strong CAS could report `ok: false`
                    // to a caller that actually holds the lock — the
                    // second, rarer hang mode of `threaded_mutex_exact_
                    // under_message_loss` (the watchdog's ring dump showed
                    // the spinning session's own winning entry).
                    let (committed, slot_moved) = {
                        let pax = shared.store.paxos(state.meta.key);
                        let pax = pax.lock();
                        (
                            pax.committed.find(state.meta.op_id).map(|c| c.result.clone()),
                            pax.slot != state.slot,
                        )
                    };
                    if let Some(result) = committed {
                        return RmwDecision::Finished(rmw_output(state.kind, &result));
                    }
                    if slot_moved {
                        return RmwDecision::Restart;
                    }
                    return RmwDecision::Finished(OpOutput::Cas { ok: false, observed: base });
                }
            }
            RmwKind::Put => Cmd {
                op: state.meta.op_id,
                new_val: state.new.clone(),
                result: base,
                lc: clc,
            },
        };
        state.helping = false;
        state.cmd = Some(Arc::new(cmd));
        RmwDecision::Cmd
    }

    /// Start phase 2: self-accept under the key's Paxos lock, broadcast.
    /// If the **slot** moved under the round (a commit landed), a fresh
    /// round starts immediately — retrying is productive and propagates an
    /// already-committed result exactly like `rmw_restart`. If only
    /// the **ballot** was outrun (a dueling proposer raised the shared
    /// promise — with several sessions per worker the duel is usually a
    /// *sibling on this very node*), the round parks behind the same
    /// exponential backoff a remote nack gets: re-proposing immediately
    /// would raise the promise right back over the sibling, and two
    /// same-node proposers then phase-lock at wire latency — observed
    /// livelocking the TCP loopback bench at ~24k ballots/s while both
    /// sessions sat in Propose with only their self-promise.
    /// True: the op finished instead (see `rmw_restart`) — remove the entry.
    #[must_use]
    fn rmw_accept(
        &mut self,
        rid: u64,
        state: &mut RmwState,
        now: u64,
        out: &mut Outbox<Msg>,
    ) -> bool {
        let me = self.me;
        enum Gate {
            Ok,
            SlotMoved,
            BallotLost(u64),
        }
        let gate = {
            let cmd = state.cmd.as_deref().expect("accept without command");
            let pax = self.shared.store.paxos(state.meta.key);
            let mut pax = pax.lock();
            if pax.slot != state.slot {
                Gate::SlotMoved
            } else if state.ballot < pax.promised {
                Gate::BallotLost(pax.promised.version())
            } else {
                pax.promised = state.ballot;
                pax.accepted = Some(AcceptedCmd {
                    op: cmd.op,
                    ballot: state.ballot,
                    new_val: cmd.new_val.clone(),
                    result: cmd.result.clone(),
                    lc: cmd.lc,
                });
                Gate::Ok
            }
        };
        match gate {
            Gate::Ok => {}
            Gate::SlotMoved => return self.rmw_restart(rid, state, now, out),
            Gate::BallotLost(promised_version) => {
                self.rmw_back_off(rid, state, promised_version, now);
                return false;
            }
        }
        state.phase = RmwPhase::Accept;
        state.retry_at = 0;
        state.backoff_exp = 0;
        state.accepts = NodeSet::singleton(me);
        let round = state.round(rid).expect("accept phase with a command");
        transmit(round, &mut state.meta, now, me, self.shared.voters(), out);
        false
    }

    /// Phase-2 quorum: the command is decided. Apply, record, learn, then
    /// run the commit round — the RMW completes (or, when helping, our own
    /// round restarts) only once the commit is visible at a quorum (§3.4's
    /// third broadcast round).
    fn rmw_commit(&mut self, rid: u64, state: &mut RmwState, now: u64, out: &mut Outbox<Msg>) {
        let shared = self.shared;
        let cmd = state.cmd.clone().expect("commit without command");
        let key = state.meta.key;
        // The committed value is stamped with the clock fixed at decide
        // time (cmd.lc) — identical for every committer of this slot, so
        // the per-key commit-clock chain is unique (see msg::Cmd::lc).
        let lc = cmd.lc;
        shared.store.apply_max(key, &cmd.new_val, lc);
        {
            let pax = shared.store.paxos(key);
            let mut pax = pax.lock();
            if pax.committed.find(cmd.op).is_none() {
                pax.committed.push(RmwCommit { op: cmd.op, slot: state.slot, result: cmd.result.clone() });
            }
            pax.advance_past(state.slot);
        }
        state.pending_output =
            (!state.helping).then(|| rmw_output(state.kind, &cmd.result));
        let slot = state.slot;
        let meta = Some((cmd.op, cmd.result.clone()));
        let val = cmd.new_val.clone();
        self.rmw_start_commit_round(rid, state, slot, val, lc, meta, now, out);
    }

    /// Broadcast the commit and wait for a visibility quorum.
    fn rmw_start_commit_round(
        &mut self,
        rid: u64,
        state: &mut RmwState,
        slot: u64,
        val: Val,
        lc: Lc,
        meta: Option<(OpId, Val)>,
        now: u64,
        out: &mut Outbox<Msg>,
    ) {
        self.shared.store.apply_max(state.meta.key, &val, lc);
        state.phase = RmwPhase::Commit;
        state.retry_at = 0;
        state.commits = NodeSet::singleton(self.me);
        // One allocation for the whole round: the broadcast unicasts and
        // their retransmissions all clone this Arc.
        state.commit_bcast = Some(Arc::new(CommitPayload { slot, val, lc, meta }));
        let round = state.round(rid).expect("commit phase");
        transmit(round, &mut state.meta, now, self.me, self.shared.voters(), out);
    }
}

/// Map an RMW result value to its API output.
fn rmw_output(kind: RmwKind, result: &Val) -> OpOutput {
    match kind {
        RmwKind::Faa { .. } => OpOutput::Faa(result.as_u64()),
        RmwKind::Cas { .. } => OpOutput::Cas { ok: true, observed: result.clone() },
        RmwKind::Put => OpOutput::Done,
    }
}
