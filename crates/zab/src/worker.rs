//! The ZAB worker: leader sequencing, quorum commit, in-order apply.
//!
//! Reuses Kite's session machinery ([`kite::session`]) and API types so the
//! workload generators drive both systems identically.

use std::collections::HashMap;
use std::sync::Arc;

use kite::api::{CompletionHook, Op, OpOutput};
use kite::session::Session;
use kite_common::{ClusterConfig, Key, NodeId, NodeSet, OpId, Val};
use kite_simnet::{Actor, Outbox, Wakeup};

use crate::shared::ZabShared;
use crate::LEADER;

/// ZAB wire protocol.
#[derive(Clone, Debug)]
pub enum ZabMsg {
    /// Follower → leader: please order this write. `rid` is the follower
    /// worker's request id for the completion round-trip.
    WriteReq {
        /// Sender's request id (completion routing).
        rid: u64,
        /// Key to write.
        key: Key,
        /// New value.
        val: Val,
    },
    /// Leader → all: proposal at `zxid`.
    Proposal {
        /// Global total-order id assigned by the leader.
        zxid: u64,
        /// Key to write.
        key: Key,
        /// New value.
        val: Val,
    },
    /// Follower → leader: proposal received and logged.
    PropAck {
        /// The acknowledged proposal.
        zxid: u64,
    },
    /// Leader → all: `zxid` is committed (quorum of acks).
    CommitMsg {
        /// Apply everything up to and including this zxid, in order.
        zxid: u64,
    },
    /// Leader → origin worker: your write committed.
    WriteDone {
        /// The originating request id.
        rid: u64,
    },
}

/// Leader-side bookkeeping for an in-flight proposal.
struct Pending {
    acked: NodeSet,
    committed: bool,
    /// Who to notify on commit: a remote worker's rid, or a local session.
    origin: Origin,
}

enum Origin {
    Local { si: usize, op_id: OpId, op: Op, invoked_at: u64 },
    Remote { node: NodeId, rid: u64 },
}

/// Follower-side bookkeeping for a forwarded write.
struct Forwarded {
    si: usize,
    op_id: OpId,
    op: Op,
    invoked_at: u64,
    last_sent: u64,
    key: Key,
    val: Val,
}

/// A ZAB protocol worker (leader or follower role decided by node id).
pub struct ZabWorker {
    me: NodeId,
    #[allow(dead_code)]
    wid: usize,
    pub(crate) shared: Arc<ZabShared>,
    sessions: Vec<Session>,
    /// Leader: zxid → pending proposal state.
    pending: HashMap<u64, Pending>,
    /// Follower: rid → forwarded write awaiting `WriteDone`.
    forwarded: HashMap<u64, Forwarded>,
    next_rid: u64,
    hook: Option<CompletionHook>,
    quorum: usize,
    retransmit: u64,
    last_scan: u64,
}

impl ZabWorker {
    /// Build one ZAB worker.
    pub fn new(
        wid: usize,
        shared: Arc<ZabShared>,
        sessions: Vec<Session>,
        hook: Option<CompletionHook>,
    ) -> Self {
        let cfg = &shared.cfg;
        ZabWorker {
            me: shared.me,
            wid,
            sessions,
            pending: HashMap::new(),
            forwarded: HashMap::new(),
            next_rid: 1,
            hook,
            quorum: cfg.quorum(),
            retransmit: cfg.retransmit_ns,
            last_scan: 0,
            shared,
        }
    }

    fn is_leader(&self) -> bool {
        self.me == LEADER
    }

    fn complete(&mut self, si: usize, op_id: OpId, op: Op, output: OpOutput, invoked_at: u64, now: u64) {
        self.shared.counters.completed.incr();
        let c = kite::api::Completion { op_id, op, output, invoked_at, completed_at: now };
        if let Some(hook) = &self.hook {
            hook(&c);
        }
        let sess = &mut self.sessions[si];
        sess.deliver(c);
        sess.blocked_on = None;
    }

    /// Translate an API op into (key, value-to-write) for write-class ops,
    /// or complete it locally for read-class ops. ZAB gives every write
    /// RMW-strength ordering, so RMWs are just writes whose value was
    /// computed at the origin (see crate docs for the caveat).
    fn start_op(&mut self, si: usize, op_id: OpId, op: Op, now: u64, out: &mut Outbox<ZabMsg>) -> bool {
        let (key, val) = match op.clone() {
            Op::Read { key } | Op::Acquire { key } => {
                // Local SC read (§7: "this approach allows ZAB to perform SC
                // reads locally").
                self.shared.counters.local_reads.incr();
                let v = self.shared.store.view(key).val;
                self.complete(si, op_id, op, OpOutput::Value(v), now, now);
                return false;
            }
            Op::Write { key, val } | Op::Release { key, val } => (key, val),
            Op::Faa { key, delta } => {
                let base = self.shared.store.view(key).val.as_u64();
                (key, Val::from_u64(base.wrapping_add(delta)))
            }
            Op::CasWeak { key, new, .. } | Op::CasStrong { key, new, .. } => (key, new),
        };
        if self.is_leader() {
            let zxid = self.shared.next_zxid();
            self.pending.insert(
                zxid,
                Pending {
                    acked: NodeSet::singleton(self.me),
                    committed: false,
                    origin: Origin::Local { si, op_id, op, invoked_at: now },
                },
            );
            {
                let mut buf = self.shared.apply.lock();
                buf.propose(zxid, key, val.clone());
            }
            out.broadcast(self.me, ZabMsg::Proposal { zxid, key, val });
        } else {
            let rid = self.next_rid;
            self.next_rid += 1;
            self.forwarded.insert(
                rid,
                Forwarded { si, op_id, op, invoked_at: now, last_sent: now, key, val: val.clone() },
            );
            out.send(LEADER, ZabMsg::WriteReq { rid, key, val });
        }
        true // blocks the session until commit
    }

    fn handle(&mut self, src: NodeId, m: ZabMsg, now: u64, out: &mut Outbox<ZabMsg>) {
        match m {
            ZabMsg::WriteReq { rid, key, val } => {
                debug_assert!(self.is_leader(), "WriteReq must target the leader");
                let zxid = self.shared.next_zxid();
                self.pending.insert(
                    zxid,
                    Pending {
                        acked: NodeSet::singleton(self.me),
                        committed: false,
                        origin: Origin::Remote { node: src, rid },
                    },
                );
                {
                    let mut buf = self.shared.apply.lock();
                    buf.propose(zxid, key, val.clone());
                }
                out.broadcast(self.me, ZabMsg::Proposal { zxid, key, val });
            }
            ZabMsg::Proposal { zxid, key, val } => {
                {
                    let mut buf = self.shared.apply.lock();
                    buf.propose(zxid, key, val);
                }
                out.send(src, ZabMsg::PropAck { zxid });
            }
            ZabMsg::PropAck { zxid } => {
                let Some(p) = self.pending.get_mut(&zxid) else { return };
                p.acked.insert(src);
                if !p.committed && p.acked.len() >= self.quorum {
                    p.committed = true;
                    {
                        let mut buf = self.shared.apply.lock();
                        buf.commit(zxid);
                        buf.drain(&self.shared.store);
                    }
                    out.broadcast(self.me, ZabMsg::CommitMsg { zxid });
                    let p = self.pending.remove(&zxid).unwrap();
                    match p.origin {
                        Origin::Local { si, op_id, op, invoked_at } => {
                            let output = write_output(&op);
                            self.complete(si, op_id, op, output, invoked_at, now);
                        }
                        Origin::Remote { node, rid } => {
                            out.send(node, ZabMsg::WriteDone { rid });
                        }
                    }
                }
            }
            ZabMsg::CommitMsg { zxid } => {
                let mut buf = self.shared.apply.lock();
                buf.commit(zxid);
                buf.drain(&self.shared.store);
            }
            ZabMsg::WriteDone { rid } => {
                if let Some(f) = self.forwarded.remove(&rid) {
                    let output = write_output(&f.op);
                    self.complete(f.si, f.op_id, f.op, output, f.invoked_at, now);
                }
            }
        }
    }
}

/// Output for a committed ZAB write given its originating op.
fn write_output(op: &Op) -> OpOutput {
    match op {
        Op::Faa { .. } => OpOutput::Faa(0),
        Op::CasWeak { expect, .. } | Op::CasStrong { expect, .. } => {
            OpOutput::Cas { ok: true, observed: expect.clone() }
        }
        _ => OpOutput::Done,
    }
}

impl Actor for ZabWorker {
    type Msg = ZabMsg;

    fn on_envelope(
        &mut self,
        src: NodeId,
        _mepoch: u32,
        msgs: &mut Vec<ZabMsg>,
        now: u64,
        out: &mut Outbox<ZabMsg>,
    ) {
        for m in msgs.drain(..) {
            self.handle(src, m, now, out);
        }
    }

    fn on_tick(&mut self, now: u64, out: &mut Outbox<ZabMsg>) -> Wakeup {
        // An op pulled from a session always starts (ZAB has no write
        // window to stall behind), so the only reason to go round again is
        // a session that stopped at its budget while still free.
        let mut more_now = false;
        for si in 0..self.sessions.len() {
            let mut budget = ClusterConfig::OPS_PER_TICK;
            while budget > 0 && self.sessions[si].is_free() {
                let Some(op) = self.sessions[si].next_op() else { break };
                budget -= 1;
                let seq = self.sessions[si].seq;
                self.sessions[si].seq += 1;
                let op_id = OpId::new(self.sessions[si].id, seq);
                if self.start_op(si, op_id, op, now, out) {
                    self.sessions[si].blocked_on = Some(u64::MAX); // blocked on commit
                }
            }
            more_now |= budget == 0 && self.sessions[si].is_free();
        }
        // Retransmit forwarded writes whose WriteDone seems lost. (The
        // leader dedups by… nothing — WriteReq retransmission can double-
        // order a write; ZAB over TCP does not need this. We retransmit only
        // when the fabric is lossy, which the ZAB benchmarks never enable;
        // correctness tests for loss target Kite.)
        if now.saturating_sub(self.last_scan) >= self.retransmit {
            self.last_scan = now;
            let mut resend: Vec<(u64, Key, Val)> = self
                .forwarded
                .iter()
                .filter(|(_, f)| now.saturating_sub(f.last_sent) >= self.retransmit * 4)
                .map(|(rid, f)| (*rid, f.key, f.val.clone()))
                .collect();
            resend.sort_unstable_by_key(|(rid, _, _)| *rid); // deterministic order
            for (rid, key, val) in resend {
                if let Some(f) = self.forwarded.get_mut(&rid) {
                    f.last_sent = now;
                }
                out.send(LEADER, ZabMsg::WriteReq { rid, key, val });
            }
        }
        // The scan is the only timer, and only forwarded writes need it.
        let next_deadline = match self.forwarded.is_empty() {
            true => Wakeup::NEVER,
            false => self.last_scan + self.retransmit,
        };
        Wakeup { more_now, ..Wakeup::at(next_deadline) }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.forwarded.is_empty()
            && self.sessions.iter().all(|s| s.is_idle())
    }
}
