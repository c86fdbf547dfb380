//! Property-based tests of the consistency checkers themselves: they must
//! accept everything a correct implementation can produce and reject
//! crafted violations.

use kite_common::{Key, NodeId, SessionId};
use kite_verify::checker::{check_linearizable, check_sequential, RegOp, RegOpKind};
use kite_verify::{check_rc, History, OpKind, OpRecord};
use kite_verify::check::{check, Src};

/// Generate a *sequential* register history: ops executed one at a time
/// against a model register, with correct results and disjoint real-time
/// windows. Such histories are trivially linearizable and SC.
fn sequential_history(src: &mut Src) -> Vec<RegOp> {
    let cmds = src.vec(1..16, |s| (s.below(4), s.below(3), s.u64()));
    let mut value = 0u64;
    let mut out = Vec::new();
    let mut seqs = [0u64; 4];
    for (i, (session, kind, arg)) in cmds.into_iter().enumerate() {
        let t0 = i as u64 * 10;
        let t1 = t0 + 5;
        let seq = seqs[session as usize];
        seqs[session as usize] += 1;
        let kind = match kind {
            0 => RegOpKind::Read(value),
            1 => {
                value = arg | 1; // non-zero, unique enough
                RegOpKind::Write(value)
            }
            _ => {
                let observed = value;
                value = value.wrapping_add(1);
                RegOpKind::Rmw { observed, wrote: value }
            }
        };
        out.push(RegOp { session, seq, kind, invoke: t0, complete: t1 });
    }
    out
}

/// Every sequential history is linearizable and sequentially consistent.
#[test]
fn checkers_accept_sequential_histories() {
    check(96, |src| {
        let h = sequential_history(src);
        assert!(check_linearizable(&h));
        assert!(check_sequential(&h));
    });
}

/// Linearizability implies sequential consistency (the real-time order
/// is a superset of the per-session order for histories where each
/// session's ops are non-overlapping, which sequential histories are).
#[test]
fn lin_implies_sc_on_generated() {
    check(96, |src| {
        let h = sequential_history(src);
        if check_linearizable(&h) {
            assert!(check_sequential(&h));
        }
    });
}

/// Injecting a read of a never-written value breaks both checkers.
#[test]
fn checkers_reject_phantom_reads() {
    check(96, |src| {
        let mut h = sequential_history(src);
        let t0 = h[src.below(h.len() as u64) as usize].invoke;
        h.push(RegOp {
            session: 9,
            seq: 0,
            kind: RegOpKind::Read(0xDEAD_BEEF_DEAD_BEEF),
            invoke: t0,
            complete: t0 + 1,
        });
        assert!(!check_linearizable(&h));
        assert!(!check_sequential(&h));
    });
}

/// A producer/consumer run: per round, the producer writes `fields` payload
/// keys and releases the flag; the consumer acquires the flag and reads
/// every field, its read of `stale` in round 2 returning round 1's value.
fn producer_consumer(fields: u64, rounds: u64, stale: Option<u64>) -> History {
    let h = History::new();
    let mut t = 0u64;
    let mut seqs = [0u64; 2];
    let mut rec = |sess: u32, key: u64, kind: OpKind| {
        h.record(OpRecord {
            session: SessionId::new(NodeId(sess as u8), sess),
            session_seq: seqs[sess as usize],
            key: Key(key),
            kind,
            invoke: t,
            complete: t + 1,
        });
        seqs[sess as usize] += 1;
        t += 5;
    };
    for r in 1..=rounds {
        for f in 0..fields {
            rec(0, 10 + f, OpKind::Write { v: (r << 8) | (f + 1) });
        }
        rec(0, 1, OpKind::Release { v: r });
        rec(1, 1, OpKind::Acquire { v: r });
        for f in 0..fields {
            let from = if r == 2 && stale == Some(f) { 1 } else { r };
            rec(1, 10 + f, OpKind::Read { v: (from << 8) | (f + 1) });
        }
    }
    h
}

/// The RC checker accepts correctly synchronized producer/consumer runs
/// with arbitrary field counts and rounds.
#[test]
fn rc_accepts_correct_producer_consumer() {
    check(96, |src| {
        let h = producer_consumer(src.range(1..6), src.range(1..5), None);
        assert_eq!(check_rc(&h), Ok(()));
    });
}

/// …and rejects the same runs when any single consumer read is made
/// stale (reads the previous round's field).
#[test]
fn rc_rejects_stale_field() {
    check(96, |src| {
        let fields = src.range(1..6);
        let h = producer_consumer(fields, 2, Some(src.below(fields)));
        assert!(check_rc(&h).is_err(), "stale post-acquire read must be caught");
    });
}
