//! A restarted voter votes from amnesia (ROADMAP direction 7): the same
//! node identity comes back with none of the state it voted with, and
//! answers quorums at once. Two literal cases of the fault runner
//! (`kite_repro::testutil::swarm`), each beside a control without the
//! restart that passes the runner's judge:
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
//! once caught up) flips them, and the swarm's hunt in `chaos.rs`.

use std::sync::Arc;

use kite::api::Op;
use kite_common::{ClusterConfig, Key, Val};
use kite_repro::testutil::{rmw_bases, swarm::Fault::*, swarm::*};
use kite_verify::{check_rc, History, OpKind, RcCheckError};

/// One shape, node 1 the victim: session 0 of node 0 runs `p`, of node 2
/// `q`. Node 0's first op completes through {0, 1} while node 2 is cut
/// off. Then node 0 is cut off, node 1 restarts (or, as the control, does
/// not), and node 2, its script led by an op that needs node 1, runs
/// through {1, 2}.
fn amnesia(seed: u64, p: Vec<Op>, q: Vec<Op>, restart: bool) -> Arc<History> {
    let mut events = vec![(0, Isolate(2)), (1, Isolate(0))];
    events.extend(restart.then_some((0, Restart)).into_iter().chain([(0, Heal(1, 2))]));
    let scripts = vec![p, vec![], vec![], vec![], q, vec![]];
    let case = Case { cfg: ClusterConfig::small().keys(256), seed, victim: 1, scripts, events };
    let out = literal(&case);
    assert_eq!(out.fired[1].outstanding as usize, case.ops() - 1, "node 0's op completes through {{0, 1}}");
    // All that waits for the heal is node 0's closing release.
    assert_eq!(out.fired.last().unwrap().outstanding, 1, "node 2's ops complete through {{1, 2}}");
    if !restart {
        judge(&case, &out);
    }
    out.history
}

/// Direction 7 (P) on seed 11, P = node 0, R = node 1, Q = node 2, a
/// known violation: two FAAs commit in one slot.
#[test]
fn acceptor_amnesia_commits_two_commands_in_one_slot_known_violation() {
    let faa = Op::Faa { key: Key(5), delta: 1 };
    let run = |restart| {
        amnesia(11, vec![faa.clone()], vec![Op::Acquire { key: Key(6) }, faa.clone()], restart)
    };
    assert_eq!(rmw_bases(&run(false)), vec![0, 1], "R remembers: Q's FAA sees P's");

    let h = run(true);
    assert_eq!(rmw_bases(&h), vec![0, 0], "known violation: both FAAs saw 0 — one slot, two commands");
    // Both wrote 1: the checker cannot even order the key's writes.
    let err = check_rc(&h);
    assert!(matches!(err, Err(RcCheckError::DuplicateWrite { .. })), "known violation: {err:?}");
}

/// Direction 7 (A) on seed 12, A = node 0, B = node 1, C = node 2, a known
/// violation: C's acquire of the flag misses A's completed release of it.
#[test]
fn abd_amnesia_lets_an_acquire_miss_a_completed_release_known_violation() {
    let (flag, gate) = (Key(100), Op::Acquire { key: Key(101) });
    let release = Op::Release { key: flag, val: Val::from_u64(1) };
    let run = |restart| {
        amnesia(12, vec![release.clone()], vec![gate.clone(), Op::Acquire { key: flag }], restart)
    };
    let acquired = |h: &History| {
        h.for_key(flag).iter().find_map(|r| match r.kind {
            OpKind::Acquire { v } => Some(v),
            _ => None,
        })
    };
    assert_eq!(acquired(&run(false)), Some(1), "B remembers the release");

    let h = run(true);
    assert_eq!(acquired(&h), Some(0), "known violation: the acquire returns the pre-release value");
    assert_eq!(rmw_bases(&h), Vec::<u64>::new(), "no RMW, so no slot to double");
    let err = check_rc(&h);
    assert!(matches!(err, Err(RcCheckError::StaleRead { .. })), "known violation: {err:?}");
}
