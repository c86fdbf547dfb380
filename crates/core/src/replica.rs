//! Replica-side protocol handlers: how a Kite node reacts to requests from
//! peers. These are the passive halves of ES (§3.2), ABD (§3.3), Paxos
//! (§3.4) and the barrier machinery (§4.2).
//!
//! Plain acks (ES writes, value broadcasts, commit visibility) are not sent
//! eagerly: [`Worker::ack`] stages the rid and `Worker::flush_acks` folds
//! everything staged while draining one inbound envelope into a single
//! [`Msg::AckBatch`] back to the source — the ack path is sub-linear in
//! messages. Replies that carry data (`ReadRep`, `PromiseRep`, …) and acks
//! that carry a delinquency verdict are sent individually as before.

#![allow(clippy::too_many_arguments)] // protocol handlers thread (now, cfg, outbox, ...) explicitly

use std::sync::Arc;

use kite_common::{Key, Lc, NodeId, NodeSet, OpId, Val};
use kite_kvs::paxos_meta::AcceptedCmd;
use kite_simnet::Outbox;

use crate::msg::{Cmd, CommitPayload, Msg, PromiseOutcome, Repair, WriteBack};
use crate::worker::Worker;

impl Worker {
    /// Delinquency probe on behalf of an acquire-type request from machine
    /// `src` (§4.2.1): reports whether `src` is deemed delinquent and
    /// performs the Set→Transient transition tagged with the acquire id.
    /// Disabled outside full-Kite mode.
    #[inline]
    fn probe(&self, src: NodeId, acq: Option<OpId>) -> bool {
        match acq {
            Some(op) if self.mode.has_barriers() => self.shared.delinquency.probe(src, op),
            _ => false,
        }
    }

    /// ES write propagation (§3.2): apply iff the clock wins; ack always —
    /// the sender's release barrier counts acks, not applications. In
    /// ES-only mode no one tracks acks, so none are sent.
    pub(crate) fn on_es_write(
        &mut self,
        src: NodeId,
        rid: u64,
        key: Key,
        val: Val,
        lc: Lc,
        out: &mut Outbox<Msg>,
    ) {
        self.shared.store.apply_max(key, &val, lc);
        if self.mode.has_barriers() {
            self.ack(src, rid, out);
        }
    }

    /// ABD write round 1: read the key's clock (§3.3).
    pub(crate) fn on_rts_req(&mut self, src: NodeId, rid: u64, key: Key, out: &mut Outbox<Msg>) {
        out.send(src, Msg::RtsRep { rid, lc: self.shared.store.read_lc(key) });
    }

    /// ABD read round 1 (§3.3) + the acquire's delinquency discovery (§4.2).
    pub(crate) fn on_read_req(
        &mut self,
        src: NodeId,
        rid: u64,
        key: Key,
        acq: Option<OpId>,
        out: &mut Outbox<Msg>,
    ) {
        let delinquent = self.probe(src, acq);
        let view = self.shared.store.view(key);
        out.send(src, Msg::ReadRep { rid, val: view.val, lc: view.lc, delinquent });
    }

    /// Untagged ABD value broadcast (release round 2, slow-path rounds):
    /// apply under the LLC-max rule and ack (plain — no probe, no verdict).
    pub(crate) fn on_write_msg(
        &mut self,
        src: NodeId,
        rid: u64,
        key: Key,
        val: Val,
        lc: Lc,
        out: &mut Outbox<Msg>,
    ) {
        self.shared.store.apply_max(key, &val, lc);
        self.ack(src, rid, out);
    }

    /// Acquire-tagged write-back: like [`Worker::on_write_msg`] but probes
    /// too — Lemma 5.3 needs the *second* round's quorum to intersect the
    /// DM-set quorum when the value was seen by fewer than a quorum in
    /// round 1. A delinquent verdict must reach the acquirer, so it is
    /// acked individually; the common clean verdict coalesces.
    pub(crate) fn on_write_acq(
        &mut self,
        src: NodeId,
        rid: u64,
        wb: Arc<WriteBack>,
        out: &mut Outbox<Msg>,
    ) {
        let delinquent = self.probe(src, Some(wb.acq));
        self.shared.store.apply_max(wb.key, &wb.val, wb.lc);
        if delinquent {
            self.shared.counters.acks_sent.incr();
            out.send(src, Msg::WriteAck { rid, delinquent: true });
        } else {
            self.ack(src, rid, out);
        }
    }

    /// Slow-release (§4.2): record the DM-set, ack. The release at `src`
    /// executes only once a quorum has acked.
    pub(crate) fn on_slow_release(
        &mut self,
        src: NodeId,
        rid: u64,
        dm: NodeSet,
        out: &mut Outbox<Msg>,
    ) {
        self.shared.delinquency.mark_delinquent(dm);
        out.send(src, Msg::SlowReleaseAck { rid });
    }

    /// Best-effort delinquency reset (§4.2.1): clears iff the bit is still
    /// transient under this acquire's tag.
    pub(crate) fn on_reset_bit(&mut self, acq: OpId) {
        self.shared.delinquency.reset(acq.session.node, acq);
    }

    /// Paxos phase 1 (acceptor): promise, nack, or redirect (§3.4). Also
    /// the acquire-side delinquency probe for RMWs (§4.2 "RMWs").
    pub(crate) fn on_propose(
        &mut self,
        src: NodeId,
        rid: u64,
        key: Key,
        slot: u64,
        ballot: Lc,
        op: OpId,
        out: &mut Outbox<Msg>,
    ) {
        let delinquent = self.probe(src, Some(op));
        let outcome = {
            let meta = self.shared.store.paxos(key);
            let mut meta = meta.lock();
            if meta.committed.find(op).is_some() || slot < meta.slot {
                // The proposer's command already committed and we saw it,
                // or its slot is already decided here: catch it up (below,
                // once the lock is dropped). Surfacing a commit on *every*
                // propose — not only on slot mismatches — is what makes
                // RMWs exactly-once: the commit reached a quorum of rings,
                // every promise quorum intersects that quorum, and replicas
                // answering this way also deny the proposer a plain promise
                // quorum — so a completed command can never be re-decided
                // at a fresh slot. The catch-up is our repair for the key,
                // so the proposer's slot advance keeps the evidence with it
                // (see `crate::msg::Repair`).
                None
            } else if slot > meta.slot {
                // We missed a commit; the proposer answers with a repair.
                Some(PromiseOutcome::Lagging)
            } else if ballot >= meta.promised {
                // `>=` admits retransmissions of the same proposer's ballot
                // (ballots embed the machine id, so equality ⇒ same proposer).
                meta.promised = ballot;
                let accepted = meta.accepted.as_ref().map(|a| {
                    Box::new((
                        a.ballot,
                        Cmd { op: a.op, new_val: a.new_val.clone(), result: a.result.clone(), lc: a.lc },
                    ))
                });
                Some(PromiseOutcome::Promised { accepted })
            } else {
                Some(PromiseOutcome::NackBallot { promised: meta.promised })
            }
        };
        let outcome = outcome.unwrap_or_else(|| {
            PromiseOutcome::AlreadyCommitted(Repair::of(&self.shared.store, key))
        });
        out.send(src, Msg::PromiseRep { rid, ballot, outcome, delinquent });
    }

    /// Paxos phase 2 (acceptor): accept iff nothing higher was promised for
    /// the same live slot.
    pub(crate) fn on_accept(
        &mut self,
        src: NodeId,
        rid: u64,
        key: Key,
        slot: u64,
        ballot: Lc,
        cmd: Arc<Cmd>,
        out: &mut Outbox<Msg>,
    ) {
        let delinquent = self.probe(src, Some(cmd.op));
        let (ok, promised) = {
            let meta = self.shared.store.paxos(key);
            let mut meta = meta.lock();
            if slot == meta.slot && ballot >= meta.promised {
                meta.promised = ballot;
                meta.accepted = Some(AcceptedCmd {
                    op: cmd.op,
                    ballot,
                    new_val: cmd.new_val.clone(),
                    result: cmd.result.clone(),
                    lc: cmd.lc,
                });
                (true, ballot)
            } else {
                (false, meta.promised)
            }
        };
        out.send(src, Msg::AcceptRep { rid, ballot, ok, promised, delinquent });
    }

    /// Commit/learn (§3.4): apply the decided value (LLC-max keeps this
    /// idempotent and correctly ordered against relaxed writes), record the
    /// command for dedup, advance the slot. Always acked: replicas outside
    /// the round catch up through the anti-entropy sweep (`Msg::RepairVal`),
    /// so every `Commit` on the wire belongs to a live visibility round.
    pub(crate) fn on_commit(
        &mut self,
        src: NodeId,
        rid: u64,
        key: Key,
        c: Arc<CommitPayload>,
        out: &mut Outbox<Msg>,
    ) {
        self.ack(src, rid, out);
        self.shared.store.apply_max(key, &c.val, c.lc);
        let pax = self.shared.store.paxos(key);
        let mut pax = pax.lock();
        if let Some((op, result)) = &c.meta {
            if pax.committed.find(*op).is_none() {
                pax.committed.push(kite_kvs::paxos_meta::RmwCommit {
                    op: *op,
                    slot: c.slot,
                    result: result.clone(),
                });
            }
        }
        pax.advance_past(c.slot);
    }
}
