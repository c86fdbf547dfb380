//! Client sessions: the unit of program order (§2.1, §6.1).
//!
//! A session is bound to exactly one worker; the worker executes its
//! operations in session order. Relaxed operations complete without
//! blocking; synchronization operations (releases, acquires, RMWs) and
//! slow-path accesses block *only their session* — the worker keeps serving
//! its other sessions, which is where Kite's throughput under
//! synchronization comes from.

use std::collections::VecDeque;

use kite_common::{ClusterConfig, NodeId, SessionId};

use crate::api::{Completion, Op};

/// A closed-loop client: its next operation may depend on earlier results
/// (lock-free data structures are the canonical case — a CAS retry loop
/// needs the observed value). Drives a session in the simulator the same
/// way a blocking client drives a node's session over a socket
/// (`kite_net::RemoteSession`).
pub trait ClientSm: Send {
    /// The session is free: produce the next operation, or `None` if the
    /// client has nothing to issue right now. After a `None` the worker asks
    /// again only once a completion has been delivered to this client — a
    /// client's next step may depend on its own results, not on the clock.
    /// The question may come one step early: a session that used up its
    /// per-tick budget is asked at the end of that tick for the op the next
    /// tick will start (the worker's look-ahead), with every completion the
    /// client is owed already delivered.
    fn next_op(&mut self, seq: u64) -> Option<Op>;
    /// An operation completed (called in session order).
    fn on_completion(&mut self, c: &Completion);
    /// `true` once the client will never issue again (quiescence).
    fn finished(&self) -> bool;
}

/// Where a session's operations come from.
pub enum SessionDriver {
    /// No client attached.
    Idle,
    /// Closure-driven (benchmarks, deterministic tests): called once per
    /// op, in program order, with the op's sequence number — as much as a
    /// tick early (the worker's look-ahead stages the next tick's whole
    /// `OPS_PER_TICK` budget); `None` means the script is exhausted.
    Script(Box<dyn FnMut(u64) -> Option<Op> + Send>),
    /// Closed-loop state-machine client (sees completions).
    Interactive(Box<dyn ClientSm>),
    /// A client outside the worker, served by the runtime that drives it:
    /// the operations the client submitted and the session has not started
    /// yet. [`crate::Worker::submit`] appends to the queue and the
    /// session's completions collect in the worker's buffer
    /// ([`crate::Worker::completions`]); `kite-net`'s node runtime builds
    /// these, one per slot a client connection may claim.
    Client(VecDeque<Op>),
}

impl std::fmt::Debug for SessionDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionDriver::Idle => write!(f, "Idle"),
            SessionDriver::Script(_) => write!(f, "Script"),
            SessionDriver::Interactive(_) => write!(f, "Interactive"),
            SessionDriver::Client(_) => write!(f, "Client"),
        }
    }
}

/// Which protocol stack the worker runs. Kite is the full system; the other
/// modes expose the constituent protocols as standalone baselines, exactly
/// the configurations Figure 5 compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolMode {
    /// Full Kite: ES for relaxed ops, ABD for releases/acquires, Paxos for
    /// RMWs, fast/slow-path barrier machinery.
    Kite,
    /// Eventual Store alone (per-key SC): reads local, writes broadcast; no
    /// barriers, no ack tracking.
    EsOnly,
    /// multi-writer ABD alone (linearizable reads and writes): every read
    /// is a quorum read, every write a two-round quorum write.
    AbdOnly,
    /// Per-key Paxos for writes (RMW-strength) with ABD quorum reads —
    /// Figure 5's "Paxos" configuration.
    PaxosOnly,
}

impl ProtocolMode {
    /// Does this mode run the RC barrier machinery (epochs, delinquency)?
    pub fn has_barriers(self) -> bool {
        matches!(self, ProtocolMode::Kite)
    }
}

/// Per-session bookkeeping inside a worker.
pub struct Session {
    /// Globally unique session id (node + slot).
    pub id: SessionId,
    /// Where this session's operations come from.
    pub driver: SessionDriver,
    /// Next op sequence number (program order).
    pub seq: u64,
    /// The rid of the operation currently blocking this session, if any.
    pub blocked_on: Option<u64>,
    /// rids of relaxed writes whose acks are still outstanding, in issue
    /// order — the release barrier's "writes before me in session order".
    pub write_window: VecDeque<u64>,
    /// Ops pulled from the driver but not yet started, in program order:
    /// the front one is this session's next to start, and each keeps the
    /// `seq` it was pulled with (`seq`, `seq + 1`, …). Two producers: a
    /// start that stalled on a full write window puts its op back at the
    /// front (the session is parked until the window moves), and the
    /// worker's look-ahead, at the end of a tick that stopped at
    /// `OPS_PER_TICK` with the session still free, pulls what the next tick
    /// will start (the session stays runnable): a `Script`'s whole next
    /// budget, an `Interactive` client's next op only — its next question
    /// may depend on that op's completion. A `Client` session's tick starts
    /// its whole queue, so nothing is left to look ahead at.
    pub staged: Staged,
    /// rid of an in-flight write-window relief (at most one per session).
    pub relief: Option<u64>,
    /// The session's blocking release/RMW is waiting on an unresolved
    /// barrier over this session's write window: acks for those writes are
    /// barrier inputs (the worker re-evaluates barriers only when one moves).
    pub awaiting_barrier: bool,
    /// Script driver returned `None` — the session is finished.
    pub script_done: bool,
}

impl Session {
    /// An idle session with the given id.
    pub fn new(id: SessionId) -> Self {
        Session {
            id,
            driver: SessionDriver::Idle,
            seq: 0,
            blocked_on: None,
            write_window: VecDeque::new(),
            staged: Staged::default(),
            relief: None,
            awaiting_barrier: false,
            script_done: false,
        }
    }

    /// Can this session start a new operation right now?
    pub fn is_free(&self) -> bool {
        self.blocked_on.is_none()
    }

    /// Is the session completely quiet (for sim quiescence)?
    pub fn is_idle(&self) -> bool {
        self.blocked_on.is_none()
            && self.staged.is_empty()
            && self.write_window.is_empty()
            && match &self.driver {
                SessionDriver::Idle => true,
                SessionDriver::Script(_) => self.script_done,
                SessionDriver::Interactive(sm) => sm.finished(),
                SessionDriver::Client(ops) => ops.is_empty(),
            }
    }

    /// Pull the next operation to execute, honoring the staged ops.
    pub fn next_op(&mut self) -> Option<Op> {
        match self.staged.pop_front() {
            Some(op) => Some(op),
            None => self.pull(self.seq),
        }
    }

    /// Ask the driver for the op with sequence number `seq`, bypassing the
    /// staged ops (the caller stages or starts what it gets).
    pub fn pull(&mut self, seq: u64) -> Option<Op> {
        match &mut self.driver {
            SessionDriver::Idle => None,
            SessionDriver::Script(f) => {
                if self.script_done {
                    None
                } else {
                    let op = f(seq);
                    if op.is_none() {
                        self.script_done = true;
                    }
                    op
                }
            }
            SessionDriver::Interactive(sm) => sm.next_op(seq),
            SessionDriver::Client(ops) => ops.pop_front(),
        }
    }

    /// Deliver a completion to an interactive client (a no-op for every
    /// other driver: a script does not look, and a client session's
    /// completions are the worker's to buffer for its runtime).
    pub fn deliver(&mut self, c: Completion) {
        if let SessionDriver::Interactive(sm) = &mut self.driver {
            sm.on_completion(&c);
        }
    }
}

/// The ops a session pulled from its driver and has not started, front
/// first: at most [`ClusterConfig::OPS_PER_TICK`], held inline — a node
/// runs hundreds of sessions, and a heap buffer each would be resident
/// memory for what is two ops at most.
#[derive(Default)]
pub struct Staged([Option<Op>; ClusterConfig::OPS_PER_TICK]);

impl Staged {
    /// How many ops are staged.
    pub fn len(&self) -> usize {
        self.0.iter().take_while(|op| op.is_some()).count()
    }

    /// Is no op staged?
    pub fn is_empty(&self) -> bool {
        self.0[0].is_none()
    }

    /// Take the front op.
    pub fn pop_front(&mut self) -> Option<Op> {
        let op = self.0[0].take();
        self.0.rotate_left(1);
        op
    }

    /// Stage `op` behind the others. Panics when `OPS_PER_TICK` are staged.
    pub fn push_back(&mut self, op: Op) {
        let at = self.len();
        self.0[at] = Some(op);
    }

    /// Put `op` back in front of the others (its start stalled). Panics
    /// when `OPS_PER_TICK` are staged.
    pub fn push_front(&mut self, op: Op) {
        assert!(self.0[ClusterConfig::OPS_PER_TICK - 1].is_none(), "staged ops full");
        self.0.rotate_right(1);
        self.0[0] = Some(op);
    }
}

/// The sessions of worker `worker` on `node`, numbered the way every
/// runtime and client assumes — slot `worker × per_worker + i`, so a
/// slot routes back to its worker by division. `driver` is called once
/// per session, in slot order.
pub fn sessions_for(
    node: NodeId,
    worker: usize,
    per_worker: usize,
    mut driver: impl FnMut(SessionId) -> SessionDriver,
) -> Vec<Session> {
    (0..per_worker)
        .map(|i| {
            let mut sess = Session::new(SessionId::new(node, (worker * per_worker + i) as u32));
            sess.driver = driver(sess.id);
            sess
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_common::{Key, OpId};

    fn sid() -> SessionId {
        SessionId::new(NodeId(0), 0)
    }

    #[test]
    fn fresh_session_is_free_and_idle() {
        let s = Session::new(sid());
        assert!(s.is_free());
        assert!(s.is_idle());
    }

    #[test]
    fn script_driver_feeds_ops_until_exhausted() {
        let mut s = Session::new(sid());
        s.driver = SessionDriver::Script(Box::new(|seq| {
            if seq < 2 {
                Some(Op::Read { key: Key(seq) })
            } else {
                None
            }
        }));
        // seq is advanced by the worker; emulate it
        assert!(matches!(s.next_op(), Some(Op::Read { key }) if key == Key(0)));
        s.seq = 1;
        assert!(matches!(s.next_op(), Some(Op::Read { key }) if key == Key(1)));
        s.seq = 2;
        assert!(s.next_op().is_none());
        assert!(s.script_done);
        assert!(s.is_idle());
    }

    #[test]
    fn staged_op_takes_priority() {
        let mut s = Session::new(sid());
        s.driver = SessionDriver::Script(Box::new(|_| Some(Op::Read { key: Key(1) })));
        s.staged.push_back(Op::Read { key: Key(42) });
        assert!(matches!(s.next_op(), Some(Op::Read { key }) if key == Key(42)));
        assert!(matches!(s.next_op(), Some(Op::Read { key }) if key == Key(1)));
    }

    #[test]
    fn staged_ops_keep_program_order() {
        let read = |k| Op::Read { key: Key(k) };
        let key = |op: Option<Op>| op.map(|op| op.key().0);
        let mut staged = Staged::default();
        assert!(staged.is_empty());
        staged.push_back(read(1));
        staged.push_back(read(2));
        assert_eq!(staged.len(), 2);
        assert_eq!(key(staged.pop_front()), Some(1));
        staged.push_front(read(1)); // a stalled start goes back first
        assert_eq!((key(staged.pop_front()), key(staged.pop_front())), (Some(1), Some(2)));
        assert!(staged.is_empty() && staged.pop_front().is_none());
    }

    #[test]
    fn blocked_session_is_not_free() {
        let mut s = Session::new(sid());
        s.blocked_on = Some(7);
        assert!(!s.is_free());
        assert!(!s.is_idle());
    }

    #[test]
    fn pending_writes_keep_session_non_idle() {
        let mut s = Session::new(sid());
        s.write_window.push_back(3);
        assert!(s.is_free(), "pending relaxed writes do not block");
        assert!(!s.is_idle(), "but the session still has work in flight");
    }

    #[test]
    fn external_driver_round_trip() {
        use std::sync::Arc;

        use kite_common::stats::ProtoCounters;
        use kite_common::ClusterConfig;
        use kite_simnet::{Actor, Outbox};

        use crate::{Msg, NodeShared, Worker};

        let cfg = ClusterConfig::small().anti_entropy(false);
        let shared = NodeShared::new(NodeId(0), cfg, Arc::new(ProtoCounters::default()));
        let mut s = Session::new(sid());
        s.driver = SessionDriver::Client(VecDeque::new());
        assert!(s.next_op().is_none());
        let mut w = Worker::new(0, shared, ProtocolMode::Kite, vec![s], None);
        let mut out: Outbox<Msg> = Outbox::new(3);
        w.on_tick(0, &mut out);
        assert_eq!(w.completions().count(), 0);
        w.submit(sid(), Op::Read { key: Key(9) });
        w.on_tick(1, &mut out);
        let done: Vec<Completion> = w.completions().collect();
        assert!(matches!(&done[..], [c] if matches!(c.op, Op::Read { key } if key == Key(9))));
        assert_eq!(done[0].op_id, OpId::new(sid(), 0));
        assert!(w.is_idle());
    }

    #[test]
    fn sessions_for_numbers_slots_by_worker() {
        let mut seen = Vec::new();
        let sessions = sessions_for(NodeId(2), 3, 4, |sid| {
            seen.push(sid);
            SessionDriver::Idle
        });
        let ids: Vec<SessionId> = sessions.iter().map(|s| s.id).collect();
        assert_eq!(ids, (12..16).map(|slot| SessionId::new(NodeId(2), slot)).collect::<Vec<_>>());
        assert_eq!(seen, ids, "driver called once per session, in slot order");
    }

    #[test]
    fn mode_barrier_flags() {
        assert!(ProtocolMode::Kite.has_barriers());
        assert!(!ProtocolMode::EsOnly.has_barriers());
        assert!(!ProtocolMode::AbdOnly.has_barriers());
        assert!(!ProtocolMode::PaxosOnly.has_barriers());
    }
}
