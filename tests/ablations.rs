//! The §4.3 protocol optimizations are *optimizations*, not load-bearing
//! mechanisms: turning either off must leave every RC guarantee intact.
//! These tests run the same adversarial scenarios as `rc_invariants.rs`
//! with `overlap_release = false` (serialize barrier → LLC-read round /
//! propose phase) and `stripped_slow_path = false` (full linearizable ABD
//! on the slow path), in every combination. The `ablation_opts` bench
//! measures what the optimizations *buy*; these tests pin down what they
//! must not *cost*.

use std::sync::Arc;

use kite::api::Op;
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_repro::testutil::{recording_hook, rmw_bases};
use kite_simnet::SimCfg;
use kite_verify::{check_rc, History, OpKind, RcMode};

const SEC: u64 = 1_000_000_000;

const X: Key = Key(1);
const FLAG: Key = Key(2);

fn cfg(overlap: bool, stripped: bool) -> ClusterConfig {
    ClusterConfig::small()
        .keys(1 << 10)
        .release_timeout_ns(200_000)
        .overlap_release(overlap)
        .stripped_slow_path(stripped)
}

/// All four on/off combinations of the two §4.3 optimizations.
fn all_combos() -> [(bool, bool); 4] {
    [(true, true), (true, false), (false, true), (false, false)]
}

/// The §4.1 producer-consumer walk-through under a dead link, for every
/// optimization combination: the consumer must still observe the payload
/// through the slow path, and the history must be RCLin.
#[test]
fn producer_consumer_survives_lost_writes_all_combos() {
    for (overlap, stripped) in all_combos() {
        let history = Arc::new(History::new());
        let producer = SessionId::new(NodeId(0), 0);
        let consumer = SessionId::new(NodeId(1), 0);

        let mut sc = SimCluster::build(
            cfg(overlap, stripped),
            ProtocolMode::Kite,
            SimCfg { seed: 7, ..Default::default() },
            |sid| {
                if sid == producer {
                    SessionDriver::Script(Box::new(|seq| match seq {
                        0 => Some(Op::Write { key: X, val: Val::from_u64(1) }),
                        1 => Some(Op::Release { key: FLAG, val: Val::from_u64(1) }),
                        _ => None,
                    }))
                } else if sid == consumer {
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
        sc.sim.set_drop(NodeId(0), NodeId(1), 1.0);

        assert!(
            sc.run_until_quiesce(20 * SEC),
            "overlap={overlap} stripped={stripped}: must quiesce despite the dead link"
        );
        assert!(
            sc.counters(NodeId(1)).epoch_bumps.get() >= 1,
            "overlap={overlap} stripped={stripped}: consumer must take the slow path"
        );
        assert_eq!(
            check_rc(&history, RcMode::Lin),
            Ok(()),
            "overlap={overlap} stripped={stripped}: RCLin violated"
        );

        // The payload is visible after synchronization.
        let recs = history.sorted();
        let mut saw_flag = false;
        let mut verified = false;
        for r in recs.iter().filter(|r| r.session == consumer) {
            match r.kind {
                OpKind::Acquire { v: 1 } => saw_flag = true,
                OpKind::Read { v } if saw_flag => {
                    assert_eq!(v, 1, "overlap={overlap} stripped={stripped}: stale payload");
                    verified = true;
                }
                _ => {}
            }
        }
        assert!(verified, "overlap={overlap} stripped={stripped}: consumer never synchronized");
    }
}

/// A mixed workload with releases, acquires, relaxed ops and RMWs under 25%
/// loss, for every optimization combination: the full history must satisfy
/// RCLin every time.
#[test]
fn mixed_workload_under_loss_is_rc_all_combos() {
    for (overlap, stripped) in all_combos() {
        let history = Arc::new(History::new());
        let mut sc = SimCluster::build(
            cfg(overlap, stripped),
            ProtocolMode::Kite,
            SimCfg { seed: 13, ..Default::default() },
            |sid| {
                let me = sid.global_idx(2) as u64;
                let peer = (me + 5) % 6;
                SessionDriver::Script(Box::new(move |seq| {
                    let tag = ((me + 1) << 32) | (seq + 1);
                    Some(match seq {
                        n if n >= 16 => return None,
                        n if n % 4 == 0 => {
                            Op::Write { key: Key(100 + me), val: Val::from_u64(tag) }
                        }
                        n if n % 4 == 1 => {
                            Op::Release { key: Key(200 + me), val: Val::from_u64(tag) }
                        }
                        n if n % 4 == 2 => Op::Acquire { key: Key(200 + peer) },
                        _ => Op::Read { key: Key(100 + peer) },
                    })
                }))
            },
            Some(recording_hook(Arc::clone(&history))),
        );
        for a in 0..3u8 {
            for b in 0..3u8 {
                if a != b {
                    sc.sim.set_drop(NodeId(a), NodeId(b), 0.25);
                }
            }
        }
        assert!(
            sc.run_until_quiesce(60 * SEC),
            "overlap={overlap} stripped={stripped}: must quiesce under 25% loss"
        );
        assert_eq!(history.len(), 6 * 16, "all ops completed");
        assert_eq!(
            check_rc(&history, RcMode::Lin),
            Ok(()),
            "overlap={overlap} stripped={stripped}: RCLin violated under loss"
        );
    }
}

/// RMWs with the deferred propose phase (`overlap_release = false`) are
/// still exactly-once under loss: deferral must not double-propose or drop
/// commands.
#[test]
fn faa_exactly_once_without_overlap() {
    let history = Arc::new(History::new());
    let per_session = 6u64;
    let mut sc = SimCluster::build(
        cfg(false, true),
        ProtocolMode::Kite,
        SimCfg { seed: 31, ..Default::default() },
        |sid| {
            let me = sid.global_idx(2) as u64;
            SessionDriver::Script(Box::new(move |seq| {
                // A relaxed write first so every FAA has a real barrier to
                // defer behind (unique keys; the contended key is 0).
                match seq {
                    0 => Some(Op::Write { key: Key(500 + me), val: Val::from_u64(me + 1) }),
                    n if n <= per_session => Some(Op::Faa { key: Key(0), delta: 1 }),
                    _ => None,
                }
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
    let total = 6 * per_session;
    for n in 0..3u8 {
        assert_eq!(
            sc.shared(NodeId(n)).store.view(Key(0)).val.as_u64(),
            total,
            "replica {n} must converge to the exact count"
        );
    }
    let observed = rmw_bases(&history);
    assert_eq!(observed, (0..total).collect::<Vec<_>>(), "double or lost execution detected");
}

/// With `overlap_release = false` and a healthy network the system still
/// quiesces with identical results — the deferred rounds fire exactly once
/// when their barriers resolve.
#[test]
fn deferred_rounds_complete_on_healthy_network() {
    for stripped in [true, false] {
        let history = Arc::new(History::new());
        let mut sc = SimCluster::build(
            cfg(false, stripped),
            ProtocolMode::Kite,
            SimCfg { seed: 3, ..Default::default() },
            |sid| {
                let me = sid.global_idx(2) as u64;
                SessionDriver::Script(Box::new(move |seq| {
                    let tag = ((me + 1) << 32) | (seq + 1);
                    Some(match seq {
                        n if n >= 12 => return None,
                        n if n % 3 == 0 => Op::Write { key: Key(me), val: Val::from_u64(tag) },
                        n if n % 3 == 1 => {
                            Op::Release { key: Key(50 + me), val: Val::from_u64(tag) }
                        }
                        _ => Op::Faa { key: Key(99), delta: 1 },
                    })
                }))
            },
            Some(recording_hook(Arc::clone(&history))),
        );
        assert!(sc.run_until_quiesce(60 * SEC), "stripped={stripped}: must quiesce");
        assert_eq!(history.len(), 6 * 12);
        assert_eq!(check_rc(&history, RcMode::Lin), Ok(()));
        // 4 FAAs per session × 6 sessions.
        for n in 0..3u8 {
            assert_eq!(sc.shared(NodeId(n)).store.view(Key(99)).val.as_u64(), 24);
        }
    }
}

/// The full-ABD slow path (ablation) still restores keys in-epoch: after
/// the recovery cycle the consumer's later reads are local again.
#[test]
fn full_abd_slow_path_restores_epoch() {
    let producer = SessionId::new(NodeId(0), 0);
    let consumer = SessionId::new(NodeId(1), 0);
    let mut sc = SimCluster::build(
        cfg(true, false),
        ProtocolMode::Kite,
        SimCfg { seed: 17, ..Default::default() },
        |sid| {
            if sid == producer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    0 => Some(Op::Write { key: X, val: Val::from_u64(1) }),
                    1 => Some(Op::Release { key: FLAG, val: Val::from_u64(1) }),
                    _ => None,
                }))
            } else if sid == consumer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    // Poll long enough to observe the (delayed) release and
                    // take the delinquency transition, then read the payload
                    // repeatedly: the first post-bump read refreshes the
                    // key; the rest must be local.
                    n if n < 40 => Some(if n % 2 == 0 {
                        Op::Acquire { key: FLAG }
                    } else {
                        Op::Read { key: X }
                    }),
                    n if n < 60 => Some(Op::Read { key: X }),
                    _ => None,
                }))
            } else {
                SessionDriver::Idle
            }
        },
        None,
    );
    sc.sim.set_drop(NodeId(0), NodeId(1), 1.0);
    sc.run_for(2 * SEC);
    sc.sim.heal(NodeId(0), NodeId(1));
    assert!(sc.run_until_quiesce(30 * SEC));

    let slow = sc.counters(NodeId(1)).slow_path_accesses.get();
    let local = sc.counters(NodeId(1)).local_reads.get();
    assert!(slow >= 1, "at least one slow-path refresh");
    assert!(
        local >= 15,
        "after the refresh the key is in-epoch again; reads must be local (got {local})"
    );
}

/// Determinism holds across the ablation space: same seed + same flags ⇒
/// identical execution.
#[test]
fn ablation_executions_are_deterministic() {
    let run = |overlap: bool, stripped: bool| {
        let mut sc = SimCluster::build(
            cfg(overlap, stripped),
            ProtocolMode::Kite,
            SimCfg { seed: 404, ..Default::default() },
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
    for (overlap, stripped) in all_combos() {
        assert_eq!(
            run(overlap, stripped),
            run(overlap, stripped),
            "overlap={overlap} stripped={stripped}: replay diverged"
        );
    }
}
