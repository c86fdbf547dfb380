//! A restarted voter votes from amnesia (ROADMAP direction 7): the same
//! node identity comes back with none of the state it voted with, and
//! answers quorums at once. Two schedules, each a deterministic sim run
//! replayed by its seed, and each judged by `check_rc` in RCLin mode and by
//! the one-command-per-slot check (FAA bases contiguous):
//!
//! * **(P) acceptor amnesia** — P's accept of an FAA lands at {P, R} and P
//!   commits; R restarts; Q prepares at {Q, R}, hears of nothing accepted,
//!   and commits its own FAA in the same slot.
//! * **(A) ABD amnesia** — A's release is acknowledged by {A, B}; B restarts
//!   with the release lost (WAL off, or still staged); an acquire's read
//!   round lands on {B, C} and returns the value from before the release.
//!
//! Both land as *known violations*: each asserts that the violation is
//! found. The fix (a restarted node rejoins as a learner and votes only
//! once caught up) flips these assertions.

use std::sync::Arc;

use kite::api::Op;
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_repro::testutil::{recording_hook, rmw_bases};
use kite_simnet::SimCfg;
use kite_verify::{check_rc, History, OpKind, RcCheckError, RcMode};

const MS: u64 = 1_000_000;
/// Schedule (A)'s release/acquire key.
const FLAG: Key = Key(100);

/// Session 0 of a node runs `ops`; the rest idle.
fn script(sid: SessionId, ops: &[Op]) -> SessionDriver {
    if sid.slot != 0 {
        return SessionDriver::Idle;
    }
    let ops = ops.to_vec();
    SessionDriver::Script(Box::new(move |seq| ops.get(seq as usize).cloned()))
}

/// Cut `n` off from both other nodes.
fn isolate(sc: &mut SimCluster, n: u8) {
    for m in (0..3).filter(|&m| m != n) {
        sc.sim.partition(NodeId(n), NodeId(m));
    }
}

/// Both schedules have one shape. Session 0 of each node runs
/// `scripts[node]`. Node 0 completes its op through {0, 1} while node 2 is
/// cut off. Then node 0 is cut off, node 1 restarts (or, as the control,
/// does not), and node 2 — its script led by an acquire that needs node 1
/// — runs through {1, 2}. Every completion is recorded.
fn amnesia_schedule(seed: u64, scripts: [Vec<Op>; 3], restart: bool) -> History {
    let history = Arc::new(History::new());
    let mut sc = SimCluster::build(
        ClusterConfig::small().keys(256),
        ProtocolMode::Kite,
        SimCfg { seed, ..Default::default() },
        |sid| script(sid, &scripts[sid.node.idx()]),
        Some(recording_hook(Arc::clone(&history))),
    );
    // Node 2 hears of node 0's op from nobody, anti-entropy included.
    isolate(&mut sc, 2);
    sc.run_for(20 * MS);
    assert_eq!(history.len(), 1, "node 0's op completes through {{0, 1}}");

    isolate(&mut sc, 0);
    if restart {
        sc.restart(NodeId(1), |_| SessionDriver::Idle);
    }
    sc.sim.heal(NodeId(1), NodeId(2));
    sc.run_for(200 * MS);
    let ops = scripts.iter().map(Vec::len).sum();
    assert_eq!(history.len(), ops, "node 2's ops complete through {{1, 2}}");
    drop(sc);
    Arc::try_unwrap(history).expect("sole owner")
}

/// Schedule (P) on seed 11, P = node 0, R = node 1, Q = node 2: both P
/// and Q add one to a counter.
fn acceptor_schedule(restart: bool) -> History {
    let faa = Op::Faa { key: Key(5), delta: 1 };
    let gate = Op::Acquire { key: Key(6) };
    amnesia_schedule(11, [vec![faa.clone()], vec![], vec![gate, faa]], restart)
}

/// Direction 7 (P), a known violation: two FAAs commit in one slot.
#[test]
fn acceptor_amnesia_commits_two_commands_in_one_slot_known_violation() {
    let control = acceptor_schedule(false);
    assert_eq!(rmw_bases(&control), vec![0, 1], "R remembers: Q's FAA sees P's");
    assert_eq!(check_rc(&control, RcMode::Lin), Ok(()));

    let h = acceptor_schedule(true);
    assert_eq!(rmw_bases(&h), vec![0, 0], "known violation: both FAAs saw 0 — one slot, two commands");
    // Both wrote 1: the checker cannot even order the key's writes.
    let err = check_rc(&h, RcMode::Lin);
    assert!(matches!(err, Err(RcCheckError::DuplicateWrite { .. })), "known violation: {err:?}");
}

/// Schedule (A) on seed 12, A = node 0, B = node 1, C = node 2: A releases
/// the flag, C acquires it.
fn abd_schedule(restart: bool) -> History {
    let release = Op::Release { key: FLAG, val: Val::from_u64(1) };
    let acquires = vec![Op::Acquire { key: Key(101) }, Op::Acquire { key: FLAG }];
    amnesia_schedule(12, [vec![release], vec![], acquires], restart)
}

/// What the history's acquire of the flag returned.
fn acquired(h: &History) -> Option<u64> {
    h.sorted().iter().find_map(|r| match r.kind {
        OpKind::Acquire { v } if r.key == FLAG => Some(v),
        _ => None,
    })
}

/// Direction 7 (A), a known violation: an acquire misses a completed
/// release.
#[test]
fn abd_amnesia_lets_an_acquire_miss_a_completed_release_known_violation() {
    let control = abd_schedule(false);
    assert_eq!(acquired(&control), Some(1), "B remembers the release");
    assert_eq!(check_rc(&control, RcMode::Lin), Ok(()));

    let h = abd_schedule(true);
    assert_eq!(acquired(&h), Some(0), "known violation: the acquire returns the pre-release value");
    assert_eq!(rmw_bases(&h), Vec::<u64>::new(), "no RMW, so no slot to double");
    let err = check_rc(&h, RcMode::Lin);
    assert!(matches!(err, Err(RcCheckError::StaleRead { .. })), "known violation: {err:?}");
}
