//! Cross-crate integration tests of the RC guarantees (§5) on the
//! deterministic simulator: the barrier invariant under message loss, the
//! fast/slow-path transition cycle, linearizability of synchronization
//! operations, and RMW exactly-once — each checked with the `kite-verify`
//! checkers against recorded histories.

use std::sync::Arc;

use kite::api::Op;
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_repro::testutil::{recording_hook, rmw_bases};
use kite_simnet::SimCfg;
use kite_verify::checker::check_linearizable_per_key;
use kite_verify::{check_rc, History, OpKind, RcMode};

const SEC: u64 = 1_000_000_000;

fn cfg() -> ClusterConfig {
    // Short release timeout so slow paths trigger quickly in virtual time.
    ClusterConfig::small().keys(1 << 10).release_timeout_ns(200_000)
}

fn sim(seed: u64) -> SimCfg {
    SimCfg { seed, ..Default::default() }
}

const X: Key = Key(1);
const FLAG: Key = Key(2);

/// The Figure 1 producer-consumer under *total* message loss from the
/// producer's node to the consumer's node: the consumer misses the payload
/// write, the release detects it (timeout → DM-set broadcast), the
/// consumer's acquire discovers its delinquency through quorum
/// intersection, transitions to the slow path, and the relaxed read still
/// returns the payload. This is the paper's §4.1 walk-through, end to end.
#[test]
fn producer_consumer_survives_lost_writes() {
    let history = Arc::new(History::new());
    let producer = SessionId::new(NodeId(0), 0);
    let consumer = SessionId::new(NodeId(1), 0);

    let mut sc = SimCluster::build(
        cfg(),
        ProtocolMode::Kite,
        sim(7),
        |sid| {
            if sid == producer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    0 => Some(Op::Write { key: X, val: Val::from_u64(1) }),
                    1 => Some(Op::Release { key: FLAG, val: Val::from_u64(1) }),
                    _ => None,
                }))
            } else if sid == consumer {
                // Poll with acquires; relaxed-read the payload after each.
                SessionDriver::Script(Box::new(|seq| match seq {
                    n if n < 40 => Some(if n % 2 == 0 {
                        Op::Acquire { key: FLAG }
                    } else {
                        Op::Read { key: X }
                    }),
                    _ => None,
                }))
            } else {
                SessionDriver::Idle
            }
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    // Node 0 cannot reach node 1 at all: the EsWrite for X never arrives.
    sc.sim.set_drop(NodeId(0), NodeId(1), 1.0);

    assert!(sc.run_until_quiesce(20 * SEC), "must quiesce despite the dead link");

    // The mechanism actually engaged:
    let slow_releases: u64 = (0..3).map(|n| sc.counters(NodeId(n)).slow_releases.get()).sum();
    assert!(slow_releases >= 1, "release must take the slow-path barrier");
    assert!(
        sc.counters(NodeId(1)).epoch_bumps.get() >= 1,
        "consumer must discover delinquency and bump its epoch"
    );
    assert!(
        sc.counters(NodeId(1)).slow_path_accesses.get() >= 1,
        "consumer's reads after the epoch bump must take the slow path"
    );

    // And the outcome is RC-correct (load-value axiom, §5.2):
    assert_eq!(check_rc(&history, RcMode::Sc), Ok(()), "RCSC violated");
    assert_eq!(check_rc(&history, RcMode::Lin), Ok(()), "RCLin violated");

    // Strongest concrete assertion: once an acquire observed flag=1, the
    // very next relaxed read returned the payload.
    let recs = history.sorted();
    let mut saw_flag = false;
    let mut verified = false;
    for r in recs.iter().filter(|r| r.session == consumer) {
        match r.kind {
            OpKind::Acquire { v: 1 } => saw_flag = true,
            OpKind::Read { v } if saw_flag => {
                assert_eq!(v, 1, "stale payload after a successful acquire");
                verified = true;
            }
            _ => {}
        }
    }
    assert!(verified, "the consumer must eventually synchronize");
}

/// Same pattern under random 25% loss on every link, many sessions, mixed
/// ops — the whole history must satisfy RCLin and per-key linearizability
/// of synchronization accesses.
#[test]
fn mixed_workload_under_lossy_network_is_rc() {
    let history = Arc::new(History::new());
    let sync_history = Arc::new(History::new());
    let h2 = Arc::clone(&history);
    let s2 = Arc::clone(&sync_history);
    let hook: kite::CompletionHook = Arc::new(move |c| {
        let r = kite_repro::testutil::to_record(c);
        h2.record(r);
        if r.kind.is_sync() {
            s2.record(r);
        }
    });

    let mut sc = SimCluster::build(
        cfg(),
        ProtocolMode::Kite,
        sim(13),
        |sid| {
            // Each session: unique-valued writes + releases on its own keys,
            // acquires + reads of the *previous* session's keys.
            let me = sid.global_idx(2) as u64;
            let peer = (me + 5) % 6; // read someone else's keys
            SessionDriver::Script(Box::new(move |seq| {
                let tag = ((me + 1) << 32) | (seq + 1);
                Some(match seq {
                    n if n >= 16 => return None,
                    n if n % 4 == 0 => Op::Write { key: Key(100 + me), val: Val::from_u64(tag) },
                    n if n % 4 == 1 => {
                        Op::Release { key: Key(200 + me), val: Val::from_u64(tag) }
                    }
                    n if n % 4 == 2 => Op::Acquire { key: Key(200 + peer) },
                    _ => Op::Read { key: Key(100 + peer) },
                })
            }))
        },
        Some(hook),
    );
    for a in 0..3u8 {
        for b in 0..3u8 {
            if a != b {
                sc.sim.set_drop(NodeId(a), NodeId(b), 0.25);
            }
        }
    }
    assert!(sc.run_until_quiesce(60 * SEC), "must quiesce under 25% loss");
    assert_eq!(history.len(), 6 * 16, "all ops completed");
    assert_eq!(check_rc(&history, RcMode::Lin), Ok(()), "RCLin violated under loss");
    assert!(
        check_linearizable_per_key(&sync_history).is_ok(),
        "releases/acquires must be linearizable (ABD)"
    );
}

/// The delinquency bits reset after the slow-path transition: a second
/// acquire from the same machine must NOT bounce back to the slow path
/// (§4.2.1's "pathological case" prevention).
#[test]
fn delinquency_reset_prevents_repeated_slow_paths() {
    let producer = SessionId::new(NodeId(0), 0);
    let consumer = SessionId::new(NodeId(1), 0);
    let mut sc = SimCluster::build(
        cfg(),
        ProtocolMode::Kite,
        sim(23),
        |sid| {
            if sid == producer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    0 => Some(Op::Write { key: X, val: Val::from_u64(1) }),
                    1 => Some(Op::Release { key: FLAG, val: Val::from_u64(1) }),
                    _ => None,
                }))
            } else if sid == consumer {
                SessionDriver::Script(Box::new(|seq| {
                    (seq < 30).then_some(Op::Acquire { key: FLAG })
                }))
            } else {
                SessionDriver::Idle
            }
        },
        None,
    );
    sc.sim.set_drop(NodeId(0), NodeId(1), 1.0);
    // Let the loss-triggered transition happen, then heal the link so the
    // remaining acquires run cleanly.
    sc.run_for(2 * SEC);
    sc.sim.heal(NodeId(0), NodeId(1));
    assert!(sc.run_until_quiesce(30 * SEC));
    let bumps = sc.counters(NodeId(1)).epoch_bumps.get();
    assert!(bumps >= 1, "at least one slow-path transition");
    assert!(
        bumps <= 3,
        "reset-bit must prevent 30 acquires from bouncing to the slow path {bumps} times"
    );
    // Bits for node 1 are clear everywhere after the resets.
    for n in 0..3u8 {
        assert!(
            !sc.shared(NodeId(n)).delinquency.is_marked(NodeId(1)),
            "node {n} still marks the consumer delinquent"
        );
    }
}

/// FAAs from every session on one key, with 10% loss: consensus must make
/// them exactly-once (the §3.4 helping + dedup machinery), observed values
/// must form a contiguous sequence, and all replicas converge.
#[test]
fn faa_exactly_once_under_loss() {
    let history = Arc::new(History::new());
    let per_session = 6u64;
    let mut sc = SimCluster::build(
        cfg(),
        ProtocolMode::Kite,
        sim(31),
        |_sid| {
            SessionDriver::Script(Box::new(move |seq| {
                (seq < per_session).then_some(Op::Faa { key: Key(0), delta: 1 })
            }))
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    for a in 0..3u8 {
        for b in 0..3u8 {
            if a != b {
                sc.sim.set_drop(NodeId(a), NodeId(b), 0.10);
            }
        }
    }
    assert!(sc.run_until_quiesce(120 * SEC), "all RMWs must commit under loss");
    let total = 6 * per_session; // 6 sessions in the small config
    for n in 0..3u8 {
        assert_eq!(
            sc.shared(NodeId(n)).store.view(Key(0)).val.as_u64(),
            total,
            "replica {n} must converge to the exact count"
        );
    }
    // Every FAA observed a distinct base: 0..total.
    let observed = rmw_bases(&history);
    assert_eq!(observed, (0..total).collect::<Vec<_>>(), "double or lost execution detected");
    assert_eq!(check_rc(&history, RcMode::Lin), Ok(()));
}

/// Same seed ⇒ identical execution (the property every regression test
/// here stands on).
#[test]
fn sim_executions_are_deterministic() {
    let run = |seed: u64| {
        let mut sc = SimCluster::build(
            cfg(),
            ProtocolMode::Kite,
            sim(seed),
            |sid| {
                let me = sid.global_idx(2) as u64;
                SessionDriver::Script(Box::new(move |seq| {
                    (seq < 12).then_some(match seq % 3 {
                        0 => Op::Write { key: Key(me), val: Val::from_u64(seq + 1) },
                        1 => Op::Release { key: Key(50 + me), val: Val::from_u64(seq + 1) },
                        _ => Op::Faa { key: Key(99), delta: 1 },
                    })
                }))
            },
            None,
        );
        for a in 0..3u8 {
            for b in 0..3u8 {
                if a != b {
                    sc.sim.set_drop(NodeId(a), NodeId(b), 0.15);
                }
            }
        }
        sc.run_until_quiesce(60 * SEC);
        let fingerprint: Vec<u64> = (0..3)
            .flat_map(|n| {
                let c = sc.counters(NodeId(n));
                vec![
                    sc.node_completed(NodeId(n)),
                    c.slow_releases.get(),
                    c.epoch_bumps.get(),
                    sc.shared(NodeId(n)).store.view(Key(99)).val.as_u64(),
                ]
            })
            .collect();
        (sc.now(), fingerprint)
    };
    assert_eq!(run(404), run(404), "same seed must replay identically");
}

/// ES alone provides per-key SC (§2.2): validate with the session-order
/// checker on a contended key.
#[test]
fn es_mode_is_per_key_sc() {
    let history = Arc::new(History::new());
    let mut sc = SimCluster::build(
        cfg(),
        ProtocolMode::EsOnly,
        sim(41),
        |sid| {
            let me = sid.global_idx(2) as u64;
            SessionDriver::Script(Box::new(move |seq| {
                (seq < 10).then_some(if seq % 2 == 0 {
                    // unique values per writer
                    Op::Write { key: Key(5), val: Val::from_u64((me + 1) << 32 | seq) }
                } else {
                    Op::Read { key: Key(5) }
                })
            }))
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    assert!(sc.run_until_quiesce(30 * SEC));
    assert!(
        kite_verify::checker::check_per_key_sc(&history).is_ok(),
        "ES must provide per-key sequential consistency"
    );
}

/// §8.4 on the simulator: a replica sleeps and the survivors keep
/// completing releases on the slow path; after it wakes, its acquire
/// sees the last release and its relaxed read of the payload is at least
/// as fresh. The writer on node 0 runs write/release rounds until told to
/// stop; the sleeper's session polls acquire/read and, once told to, issues
/// one last pair after the writer has finished.
#[test]
fn sleeping_replica_does_not_block_survivors() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const MS: u64 = 1_000_000;
    let sleeper = NodeId(2);
    let writer = SessionId::new(NodeId(0), 0);
    let reader = SessionId::new(sleeper, 0);
    let stop = Arc::new(AtomicBool::new(false));
    let last_pair = Arc::new(AtomicBool::new(false));
    let history = Arc::new(History::new());
    let mut sc = SimCluster::build(
        // A 1 ms release timeout sends releases to the slow path fast.
        ClusterConfig::small().keys(1 << 10).release_timeout_ns(MS),
        ProtocolMode::Kite,
        sim(5),
        |sid| {
            if sid == writer {
                let stop = Arc::clone(&stop);
                SessionDriver::Script(Box::new(move |seq| {
                    let round = Val::from_u64(seq / 2 + 1);
                    (!stop.load(Ordering::Relaxed)).then_some(match seq % 2 {
                        0 => Op::Write { key: X, val: round },
                        _ => Op::Release { key: FLAG, val: round },
                    })
                }))
            } else if sid == reader {
                let last_pair = Arc::clone(&last_pair);
                let mut issued_last = false;
                SessionDriver::Script(Box::new(move |seq| {
                    if seq % 2 == 0 {
                        if issued_last {
                            return None;
                        }
                        issued_last = last_pair.load(Ordering::Relaxed);
                        Some(Op::Acquire { key: FLAG })
                    } else {
                        Some(Op::Read { key: X })
                    }
                }))
            } else {
                SessionDriver::Idle
            }
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    let releases_done = |from: u64| {
        (history.sorted().iter())
            .filter(|r| r.session == writer && r.complete >= from)
            .filter(|r| matches!(r.kind, OpKind::Release { .. }))
            .count()
    };

    sc.run_for(5 * MS); // healthy warmup
    let slept_at = sc.now();
    sc.sim.sleep_node(sleeper, 150 * MS);
    sc.run_for(150 * MS);
    assert!(releases_done(slept_at) > 0, "survivors must keep completing releases");
    let slow: u64 = (0..3).map(|n| sc.counters(NodeId(n)).slow_releases.get()).sum();
    assert!(slow > 0, "releases during the sleep must take the slow path");

    // The writer stops; once its last op has settled, the woken reader
    // issues its last acquire/read pair.
    stop.store(true, Ordering::Relaxed);
    sc.run_for(200 * MS);
    last_pair.store(true, Ordering::Relaxed);
    assert!(sc.run_until_quiesce(10 * SEC), "the reader's last pair must complete");

    let recs = history.sorted();
    let last_release = (recs.iter().rev())
        .find_map(|r| match (r.session == writer, r.kind) {
            (true, OpKind::Release { v }) => Some(v),
            _ => None,
        })
        .expect("the writer released");
    let mine: Vec<_> = recs.iter().filter(|r| r.session == reader).collect();
    let [.., acquire, read] = mine[..] else { panic!("the reader completed no pair") };
    let (OpKind::Acquire { v: flag }, OpKind::Read { v: payload }) = (acquire.kind, read.kind) else {
        panic!("the reader's last pair is {acquire:?}, {read:?}")
    };
    assert_eq!(flag, last_release, "woken replica must observe the last release");
    assert!(payload >= flag, "payload {payload} must be at least as fresh as flag {flag}");
}
