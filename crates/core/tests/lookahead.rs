//! The worker's session budget and look-ahead: a self-issuing session that
//! stops at `OPS_PER_TICK` pulls its next op into `Session::staged` one
//! tick early (to hint the store for its key) and nothing a client or a
//! schedule can observe moves; a client session has no such stop — a tick
//! starts everything its client submitted, up to a full write window.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use kite::{
    ClientSm, Completion, CompletionHook, Msg, NodeShared, Op, ProtocolMode, Session,
    SessionDriver, SimCluster, Worker,
};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_simnet::{Actor, Outbox, SimCfg};

/// One standalone worker (node 0 of 3, anti-entropy off so `is_idle` is the
/// protocol's own idleness) serving a single session with `driver`.
fn worker(driver: SessionDriver) -> Worker {
    hooked_worker(driver, None)
}

fn hooked_worker(driver: SessionDriver, hook: Option<CompletionHook>) -> Worker {
    let cfg = ClusterConfig::small().anti_entropy(false);
    let shared = NodeShared::new(NodeId(0), cfg, Arc::new(ProtoCounters::default()));
    let mut sess = Session::new(SessionId::new(NodeId(0), 0));
    sess.driver = driver;
    Worker::new(0, shared, ProtocolMode::Kite, vec![sess], hook)
}

#[test]
fn a_staged_look_ahead_op_keeps_the_worker_busy() {
    // A script of three local reads; a script's completions reach only the
    // hook (the worker buffers a client session's alone).
    let script =
        SessionDriver::Script(Box::new(|seq| (seq < 3).then_some(Op::Read { key: Key(seq) })));
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let hook: CompletionHook = Arc::new(move |c| sink.lock().unwrap().push(c.clone()));
    let mut w = hooked_worker(script, Some(hook));
    let mut out: Outbox<Msg> = Outbox::new(3);
    // Two local reads start and complete; the third is taken from the
    // script and staged. Nothing is in flight, yet the worker owes an op.
    let wakeup = w.on_tick(0, &mut out);
    let mut done: Vec<Completion> = std::mem::take(&mut *log.lock().unwrap());
    assert_eq!(done.len(), 2);
    assert_eq!(w.inflight_len(), 0);
    assert!(wakeup.more_now, "an op is staged: another tick starts it");
    assert!(!w.is_idle(), "a staged op is outstanding work");
    // It starts at the next tick, as it would have without the look-ahead.
    let wakeup = w.on_tick(2_000, &mut out);
    done.extend(log.lock().unwrap().drain(..));
    let started: Vec<(u64, u64)> = done.iter().map(|c| (c.op_id.seq, c.invoked_at)).collect();
    assert_eq!(started, [(0, 0), (1, 0), (2, 2_000)]);
    assert!(!wakeup.more_now);
    assert!(w.is_idle());
}

#[test]
fn a_client_session_starts_everything_it_submitted_in_one_tick() {
    let me = SessionId::new(NodeId(0), 0);
    let mut out: Outbox<Msg> = Outbox::new(3);
    // Three local reads: all three start and complete in one tick, and
    // nothing is left to stage or to tick again for.
    let mut w = worker(SessionDriver::Client(VecDeque::new()));
    for k in 0..3 {
        w.submit(me, Op::Read { key: Key(k) });
    }
    let wakeup = w.on_tick(0, &mut out);
    let done: Vec<(u64, u64)> = w.completions().map(|c| (c.op_id.seq, c.invoked_at)).collect();
    assert_eq!(done, [(0, 0), (1, 0), (2, 0)]);
    assert!(!wakeup.more_now, "the queue is empty: nothing is staged");
    assert!(w.is_idle(), "no staged op is outstanding");

    // A window and five more relaxed writes: the window's worth starts
    // (each completes at once and stays in the window until acked), the
    // next one stalls in the staged slot, and the session parks on the
    // window instead of asking for another tick.
    let mut w = worker(SessionDriver::Client(VecDeque::new()));
    let writes = ClusterConfig::WRITE_WINDOW + 5;
    for k in 0..writes as u64 {
        w.submit(me, Op::Write { key: Key(k), val: Val::from_u64(k) });
    }
    let wakeup = w.on_tick(0, &mut out);
    assert_eq!(w.completions().count(), ClusterConfig::WRITE_WINDOW, "a window's worth started");
    assert_eq!(w.inflight_len(), ClusterConfig::WRITE_WINDOW, "each awaits its acks");
    assert!(!wakeup.more_now, "a full window is waited out, not ticked on");
    assert!(!w.is_idle(), "the stalled writes are outstanding work");
    // With no ack in between, a later tick starts nothing: the session is
    // parked until the window moves.
    w.on_tick(2_000, &mut out);
    assert_eq!(w.completions().count(), 0);
    assert_eq!(w.inflight_len(), ClusterConfig::WRITE_WINDOW);
}

/// Issues `ops` local reads, then has nothing to say. Panics if the worker
/// asks again after a `None` before delivering a completion.
struct Terse {
    ops: u64,
    said_none: bool,
    asked: Arc<AtomicUsize>,
    done: Arc<AtomicBool>,
}

impl ClientSm for Terse {
    fn next_op(&mut self, seq: u64) -> Option<Op> {
        assert!(!self.said_none, "asked again after a None with no completion in between");
        self.asked.fetch_add(1, Ordering::Relaxed);
        self.said_none = seq >= self.ops;
        (!self.said_none).then_some(Op::Read { key: Key(seq) })
    }

    fn on_completion(&mut self, _c: &Completion) {
        self.said_none = false;
    }

    fn finished(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }
}

#[test]
fn an_interactive_client_is_not_asked_twice_after_none() {
    // `None` met by the look-ahead (ops = budget) and inside the budget.
    for ops in [2, 3] {
        let asked = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let sm = Terse { ops, said_none: false, asked: Arc::clone(&asked), done: Arc::clone(&done) };
        let mut w = worker(SessionDriver::Interactive(Box::new(sm)));
        let mut out: Outbox<Msg> = Outbox::new(3);
        w.on_tick(0, &mut out);
        assert_eq!(asked.load(Ordering::Relaxed), 3, "two ops started, the next one looked at");
        for tick in 1..50u64 {
            w.on_tick(tick * 2_000, &mut out);
        }
        assert_eq!(asked.load(Ordering::Relaxed) as u64, ops + 1, "every op, and one None");
        assert!(!w.is_idle(), "the client has not finished");
        done.store(true, Ordering::Relaxed);
        assert!(w.is_idle());
    }
}

/// `invoked_at` of the first 18 ops of session (node 0, slot 0) in the
/// scenario below, captured at `456d301` (the parent of the look-ahead):
/// the tick each op started at, in program order.
const STARTS_AT_PARENT: [u64; 18] = [
    0, 0, 2000, 2000, 4000, 4000, 5985, 29629, 29629, 39839, 39839, 40962, 40962, 41456, 41456,
    42962, 67058, 67058,
];

#[test]
fn ops_start_at_the_ticks_they_did_without_the_look_ahead() {
    let watched = SessionId::new(NodeId(0), 0);
    let starts = Arc::new(Mutex::new(vec![None; STARTS_AT_PARENT.len()]));
    let sink = Arc::clone(&starts);
    let hook: CompletionHook = Arc::new(move |c| {
        if c.op_id.session == watched {
            sink.lock().unwrap()[c.op_id.seq as usize] = Some(c.invoked_at);
        }
    });
    // Every session runs the same mix: runs of relaxed ops longer than the
    // per-tick budget (so the look-ahead stages ops mid-run), cut by a
    // release and an acquire that block the session.
    let script = |sid: SessionId| {
        let base = sid.slot as u64 * 100 + sid.node.0 as u64 * 10;
        SessionDriver::Script(Box::new(move |seq| {
            let key = Key(base + seq % 7);
            (seq < STARTS_AT_PARENT.len() as u64).then(|| match seq % 9 {
                0 | 3 | 4 => Op::Write { key, val: Val::from_u64(seq) },
                6 => Op::Release { key: Key(1), val: Val::from_u64(seq) },
                8 => Op::Acquire { key: Key(1) },
                _ => Op::Read { key },
            })
        }))
    };
    let cfg = ClusterConfig::small();
    let mut sc = SimCluster::build(cfg, ProtocolMode::Kite, SimCfg::default(), script, Some(hook));
    assert!(sc.run_until_quiesce(1_000_000_000));
    let starts: Vec<u64> = starts.lock().unwrap().iter().map(|s| s.expect("op completed")).collect();
    assert_eq!(starts, STARTS_AT_PARENT);
}
