//! The Derecho-like group: single-threaded nodes, atomic multicast with
//! ordered (round-robin) or unordered delivery.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kite::api::{CompletionHook, Op, OpOutput};
use kite::session::{sessions_for, Session, SessionDriver};
use kite::SimCluster;
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, Lc, NodeId, NodeSet, OpId, SessionId, Val};
use kite_kvs::Store;
use kite_simnet::{Actor, Outbox, SimCfg, Wakeup};

/// Delivery discipline (the two flavors of Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DerechoMode {
    /// Total order: messages deliver in round-robin sender order (SST-style
    /// token ordering). A quiet sender stalls the round until its null
    /// message arrives.
    Ordered,
    /// Reliable multicast without ordering: deliver on receipt.
    Unordered,
}

/// Wire protocol: multicast writes and stability acks.
#[derive(Clone, Debug)]
pub enum DrcMsg {
    /// Multicast slot `seq` from the sender. `payload == None` is a null
    /// message (keeps ordered rounds advancing when a sender is idle).
    Wmc {
        /// Sender-local multicast sequence number.
        seq: u64,
        /// The write carried, if the batch slot is occupied.
        payload: Option<(Key, Val)>,
    },
    /// Receiver → sender: slot `seq` received (stability).
    Ack {
        /// The acknowledged multicast sequence number.
        seq: u64,
    },
}

/// Per-sender receive log.
#[derive(Default)]
struct RecvLog {
    slots: BTreeMap<u64, Option<(Key, Val)>>,
    next: u64,
}

/// One Derecho node: exactly one worker (single-threaded by design).
/// Acks gathered for a sent multicast slot, plus the originating session's
/// completion info when the slot carries a client write.
type OutstandingSlot = (NodeSet, Option<(usize, OpId, Op, u64)>);

/// One Derecho-like group member: single-threaded, multicasting
/// fixed-size write batches (see module docs).
pub struct DerechoWorker {
    me: NodeId,
    mode: DerechoMode,
    store: Arc<Store>,
    counters: Arc<ProtoCounters>,
    sessions: Vec<Session>,
    /// Multicast slots this node has sent, awaiting stability.
    outstanding: HashMap<u64, OutstandingSlot>,
    next_seq: u64,
    /// Receive logs per sender (self included — self-delivery is immediate
    /// insertion).
    recv: Vec<RecvLog>,
    /// Ordered mode: global round-robin delivery cursor.
    cursor: (u64, usize), // (round, sender)
    delivered: u64,
    nodes: usize,
    hook: Option<CompletionHook>,
}

impl DerechoWorker {
    /// Build one group member.
    pub fn new(
        me: NodeId,
        mode: DerechoMode,
        cfg: &ClusterConfig,
        store: Arc<Store>,
        counters: Arc<ProtoCounters>,
        sessions: Vec<Session>,
        hook: Option<CompletionHook>,
    ) -> Self {
        DerechoWorker {
            me,
            mode,
            store,
            counters,
            sessions,
            outstanding: HashMap::new(),
            next_seq: 0,
            recv: (0..cfg.nodes).map(|_| RecvLog::default()).collect(),
            cursor: (0, 0),
            delivered: 0,
            nodes: cfg.nodes,
            hook,
        }
    }

    /// Is any real (non-null) message waiting for delivery at this node?
    fn real_pending(&self) -> bool {
        self.recv.iter().any(|log| log.slots.values().any(|p| p.is_some()))
            || self.outstanding.values().any(|(_, origin)| origin.is_some())
    }

    fn multicast(&mut self, payload: Option<(Key, Val)>, origin: Option<(usize, OpId, Op, u64)>, out: &mut Outbox<DrcMsg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.recv[self.me.idx()].slots.insert(seq, payload.clone());
        self.outstanding.insert(seq, (NodeSet::singleton(self.me), origin));
        out.broadcast(self.me, DrcMsg::Wmc { seq, payload });
        self.try_deliver();
    }

    /// Apply every message that is deliverable under the mode's discipline.
    fn try_deliver(&mut self) {
        match self.mode {
            DerechoMode::Unordered => {
                for (s, log) in self.recv.iter_mut().enumerate() {
                    while let Some(payload) = log.slots.remove(&log.next) {
                        if let Some((key, val)) = payload {
                            // Convergent apply: LLC of (slot, sender).
                            self.store.apply_max(key, &val, Lc::new(log.next + 1, NodeId(s as u8)));
                            self.delivered += 1;
                        }
                        log.next += 1;
                    }
                }
            }
            DerechoMode::Ordered => {
                loop {
                    let (round, sender) = self.cursor;
                    let log = &mut self.recv[sender];
                    let Some(payload) = log.slots.remove(&round) else { break };
                    log.next = round + 1;
                    if let Some((key, val)) = payload {
                        // Total delivery order ⇒ ordered overwrite.
                        self.delivered += 1;
                        self.store.apply_ordered(key, &val, Lc::new(self.delivered, NodeId(0)));
                    }
                    self.cursor = if sender + 1 == self.nodes { (round + 1, 0) } else { (round, sender + 1) };
                }
            }
        }
    }

    fn complete(&mut self, si: usize, op_id: OpId, op: Op, output: OpOutput, invoked_at: u64, now: u64) {
        self.counters.completed.incr();
        let c = kite::api::Completion { op_id, op, output, invoked_at, completed_at: now };
        if let Some(hook) = &self.hook {
            hook(&c);
        }
        self.sessions[si].deliver(c);
        self.sessions[si].blocked_on = None;
    }
}

impl Actor for DerechoWorker {
    type Msg = DrcMsg;

    fn on_envelope(
        &mut self,
        src: NodeId,
        _mepoch: u32,
        msgs: &mut Vec<DrcMsg>,
        now: u64,
        out: &mut Outbox<DrcMsg>,
    ) {
        for m in msgs.drain(..) {
            match m {
                DrcMsg::Wmc { seq, payload } => {
                    self.recv[src.idx()].slots.insert(seq, payload);
                    out.send(src, DrcMsg::Ack { seq });
                    self.try_deliver();
                }
                DrcMsg::Ack { seq } => {
                    let stable = if let Some((acked, _)) = self.outstanding.get_mut(&seq) {
                        acked.insert(src);
                        acked.is_all(self.nodes)
                    } else {
                        false
                    };
                    if stable {
                        // Stability across the whole group: the multicast is
                        // delivered everywhere; the originating write (if
                        // not a null) completes.
                        if let Some((_, Some((si, op_id, op, invoked_at)))) =
                            self.outstanding.remove(&seq)
                        {
                            self.complete(si, op_id, op, OpOutput::Done, invoked_at, now);
                        }
                    }
                }
            }
        }
    }

    fn on_tick(&mut self, now: u64, out: &mut Outbox<DrcMsg>) -> Wakeup {
        // Every op pulled from a session starts (reads complete, writes
        // multicast), so a session is worth another tick right now only if
        // it stopped at its budget while still free.
        let mut more_now = false;
        let mut sent_this_tick = false;
        for si in 0..self.sessions.len() {
            let mut budget = ClusterConfig::OPS_PER_TICK;
            while budget > 0 && self.sessions[si].is_free() {
                let Some(op) = self.sessions[si].next_op() else { break };
                budget -= 1;
                let seq = self.sessions[si].seq;
                self.sessions[si].seq += 1;
                let op_id = OpId::new(self.sessions[si].id, seq);
                match op.clone() {
                    Op::Read { key } | Op::Acquire { key } => {
                        self.counters.local_reads.incr();
                        let v = self.store.view(key).val;
                        self.complete(si, op_id, op, OpOutput::Value(v), now, now);
                    }
                    Op::Write { key, val } | Op::Release { key, val } => {
                        sent_this_tick = true;
                        self.multicast(Some((key, val)), Some((si, op_id, op, now)), out);
                        self.sessions[si].blocked_on = Some(u64::MAX);
                        break;
                    }
                    other => {
                        // RMWs are out of scope for this baseline (Figure 7
                        // is write-only); treat as a write of the new value.
                        let (key, val) = match other.clone() {
                            Op::Faa { key, delta } => {
                                (key, Val::from_u64(self.store.view(key).val.as_u64() + delta))
                            }
                            Op::CasWeak { key, new, .. } | Op::CasStrong { key, new, .. } => (key, new),
                            _ => unreachable!(),
                        };
                        sent_this_tick = true;
                        self.multicast(Some((key, val)), Some((si, op_id, other, now)), out);
                        self.sessions[si].blocked_on = Some(u64::MAX);
                        break;
                    }
                }
            }
            more_now |= budget == 0 && self.sessions[si].is_free();
        }
        // Ordered mode: an idle sender emits a null when the delivery
        // cursor is stuck on *it* and real (payload) messages are waiting
        // behind the round — the SST-style "null message" that keeps token
        // rounds advancing. No nulls flow once the group is drained, so the
        // simulation quiesces.
        if self.mode == DerechoMode::Ordered
            && !sent_this_tick
            && self.cursor.1 == self.me.idx()
            && self.next_seq <= self.cursor.0
            && self.real_pending()
        {
            self.multicast(None, None, out);
            // Delivering our own null may leave the cursor on us again.
            more_now = true;
        }
        // No timers: the null-message condition only changes with an
        // envelope (or with this tick's own multicast, covered above).
        Wakeup { more_now, ..Wakeup::IDLE }
    }

    fn is_idle(&self) -> bool {
        // Null-message stability is not required for quiescence; only real
        // writes matter.
        self.outstanding.values().all(|(_, origin)| origin.is_none())
            && self.sessions.iter().all(|s| s.is_idle())
    }
}

/// A simulated Derecho-like group: one single-threaded member per node.
/// `drivers` and `hook` are as in [`SimCluster::build`].
pub fn sim_cluster(
    cfg: ClusterConfig,
    mode: DerechoMode,
    sim_cfg: SimCfg,
    mut drivers: impl FnMut(SessionId) -> SessionDriver,
    hook: Option<CompletionHook>,
) -> SimCluster<DerechoWorker> {
    assert_eq!(cfg.workers_per_node, 1, "Derecho nodes are single-threaded by design");
    SimCluster::new(cfg.clone(), sim_cfg, |me, counters| {
        let sessions = sessions_for(me, 0, cfg.sessions_per_worker, &mut drivers);
        let (store, counters) = (Arc::new(Store::new(cfg.keys)), Arc::clone(counters));
        vec![DerechoWorker::new(me, mode, &cfg, store, counters, sessions, hook.clone())]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node `n`'s replica store.
    fn store(dc: &SimCluster<DerechoWorker>, n: u8) -> &Store {
        &dc.sim.actors[n as usize][0].store
    }

    fn writer_script(writes: u64) -> impl FnMut(SessionId) -> SessionDriver {
        move |sid| {
            SessionDriver::Script(Box::new(move |seq| {
                (seq < writes).then(|| Op::Write {
                    key: Key(sid.global_idx(1) as u64),
                    val: Val::from_u64(seq + 1),
                })
            }))
        }
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig::small().workers_per_node(1).sessions_per_worker(1)
    }

    #[test]
    fn unordered_delivers_everywhere() {
        let mut dc = sim_cluster(
            cfg(),
            DerechoMode::Unordered,
            SimCfg::default(),
            writer_script(5),
            None,
        );
        assert!(dc.run_until_quiesce(10_000_000_000));
        assert_eq!(dc.total_completed(), 15);
        for n in 0..3u8 {
            for k in 0..3u64 {
                assert_eq!(store(&dc, n).view(Key(k)).val.as_u64(), 5);
            }
        }
        // The sim counts what each member posted, for Derecho as for Kite:
        // with nothing dropped and nothing left in flight, every posted
        // envelope was delivered.
        let sent = |n: u8| {
            let c = dc.counters(NodeId(n));
            (c.msgs_sent.get(), c.envelopes_sent.get())
        };
        assert!((0..3).all(|n| sent(n).0 >= sent(n).1 && sent(n).1 > 0));
        assert_eq!((0..3).map(|n| sent(n).1).sum::<u64>(), dc.sim.delivered);
    }

    #[test]
    fn ordered_delivers_everywhere_with_agreement() {
        let mut dc = sim_cluster(
            cfg(),
            DerechoMode::Ordered,
            SimCfg::default(),
            // everyone writes the same key: agreement requires total order
            |sid| {
                SessionDriver::Script(Box::new(move |seq| {
                    (seq < 5).then(|| Op::Write {
                        key: Key(0),
                        val: Val::from_u64(sid.global_idx(1) as u64 * 100 + seq),
                    })
                }))
            },
            None,
        );
        assert!(dc.run_until_quiesce(60_000_000_000));
        assert_eq!(dc.total_completed(), 15);
        let v0 = store(&dc, 0).view(Key(0)).val.as_u64();
        for n in 1..3u8 {
            assert_eq!(
                store(&dc, n).view(Key(0)).val.as_u64(),
                v0,
                "ordered delivery must agree on the final write"
            );
        }
    }

    #[test]
    fn ordered_mode_single_writer_progresses_past_idle_senders() {
        // Only node 0 writes; nodes 1, 2 must emit nulls to unblock rounds.
        let mut dc = sim_cluster(
            cfg(),
            DerechoMode::Ordered,
            SimCfg::default(),
            |sid| {
                if sid.node == NodeId(0) {
                    SessionDriver::Script(Box::new(|seq| {
                        (seq < 3).then(|| Op::Write { key: Key(7), val: Val::from_u64(seq + 1) })
                    }))
                } else {
                    SessionDriver::Idle
                }
            },
            None,
        );
        assert!(dc.run_until_quiesce(10_000_000_000), "must not deadlock on quiet senders");
        assert_eq!(dc.total_completed(), 3);
        for n in 0..3u8 {
            assert_eq!(store(&dc, n).view(Key(7)).val.as_u64(), 3);
        }
    }
}
