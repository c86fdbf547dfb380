//! Chaos tests: randomized fault schedules on the deterministic simulator.
//!
//! Where `rc_invariants.rs` scripts *specific* adversarial scenarios and
//! `properties.rs` randomizes mixes under uniform loss, this suite
//! randomizes the *fault plane* itself — mid-run replica sleeps, asymmetric
//! loss, minority partitions, crash-stop — across seeds and the §4.3
//! ablation space, checking the §5.1 axioms on every history. Failures
//! replay from the printed seed.
//!
//! Also here: the mutual-exclusion end-to-end test — §2.3 claims RCSC is
//! strong enough for mutex, so a CAS-lock + relaxed critical section +
//! release-unlock must never lose an increment, under loss included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kite::api::{Completion, Op, OpOutput};
use kite::session::{ClientSm, SessionDriver};
use kite::{ProtocolMode, SimCluster};
use kite_common::rng::SplitMix64;
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_repro::testutil::{recording_hook, rmw_bases};
use kite_simnet::SimCfg;
use kite_verify::checker::check_linearizable_per_key;
use kite_verify::{check_rc, History, RcMode};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;

fn cfg(seed: u64) -> ClusterConfig {
    // Walk the §4.3 ablation space too: the optimizations must be
    // chaos-proof, not just healthy-network-proof.
    ClusterConfig::small()
        .keys(512)
        .release_timeout_ns(200_000)
        .overlap_release(seed.is_multiple_of(2))
        .stripped_slow_path(seed % 4 < 2)
}

/// A bounded mixed workload with unique written values per key, ending in
/// one flushing release: a session's tracked relaxed writes are retired by
/// its next release barrier, so the flush lets executions drain (quiesce)
/// even when a crashed replica will never ack them. Issues `ops + 1`
/// operations total.
fn mixed_script(seed: u64, me: u64, ops: u64) -> SessionDriver {
    let mut rng = SplitMix64::new(seed ^ (me + 1).wrapping_mul(0x9E37_79B9));
    SessionDriver::Script(Box::new(move |seq| {
        if seq > ops {
            return None;
        }
        let tag = (me + 1) << 40 | (seq + 1);
        if seq == ops {
            return Some(Op::Release { key: Key(120 + me), val: Val::from_u64(tag) });
        }
        let key = Key(rng.next_below(8));
        Some(match rng.next_below(6) {
            0 => Op::Write { key, val: Val::from_u64(tag) },
            1 => Op::Release { key: Key(100 + key.0), val: Val::from_u64(tag) },
            2 => Op::Acquire { key: Key(100 + key.0) },
            3 | 4 => Op::Read { key },
            _ => Op::Faa { key: Key(200), delta: 1 },
        })
    }))
}

/// Check the FAA-exactly-once invariant on a finished history.
fn assert_faa_contiguous(history: &History, ctx: &str) {
    let observed = rmw_bases(history);
    let n = observed.len() as u64;
    assert_eq!(observed, (0..n).collect::<Vec<_>>(), "{ctx}: double or lost FAA");
}

/// Random mid-run fault schedules: replica sleeps, asymmetric loss bursts,
/// short partitions — all healed before the end. Every seed must quiesce
/// with an RCLin history and exactly-once RMWs.
#[test]
fn random_fault_schedules_preserve_rclin() {
    for seed in 0..10u64 {
        let history = Arc::new(History::new());
        let ops = 12;
        let mut sc = SimCluster::build(
            cfg(seed),
            ProtocolMode::Kite,
            SimCfg { seed: seed + 100, ..Default::default() },
            |sid| mixed_script(seed, sid.global_idx(2) as u64, ops),
            Some(recording_hook(Arc::clone(&history))),
        );

        // Deterministic per-seed fault schedule.
        let mut frng = SplitMix64::new(seed.wrapping_mul(0xC0FFEE) + 1);
        let victim = NodeId(frng.next_below(3) as u8);
        let other = NodeId(((victim.0 as u64 + 1 + frng.next_below(2)) % 3) as u8);

        // Phase 1: asymmetric loss toward the victim.
        sc.sim.set_drop(other, victim, 0.3 + frng.next_f64() * 0.5);
        sc.run_for(2 * MS);
        // Phase 2: the victim naps.
        sc.sim.sleep_node(victim, (2 + frng.next_below(4)) * MS);
        sc.run_for(4 * MS);
        // Phase 3: a short two-node partition.
        sc.sim.partition(victim, other);
        sc.run_for(3 * MS);
        sc.sim.heal(victim, other);

        assert!(
            sc.run_until_quiesce(200 * SEC),
            "seed {seed}: must quiesce after faults heal"
        );
        assert_eq!(history.len() as u64, 6 * (ops + 1), "seed {seed}: all ops complete");
        assert_eq!(
            check_rc(&history, RcMode::Lin),
            Ok(()),
            "seed {seed}: RCLin violated under chaos"
        );
        assert_faa_contiguous(&history, &format!("seed {seed}"));
    }
}

/// A minority-partitioned replica stays *available for relaxed operations*
/// (ES reads/writes complete locally) while the majority keeps full
/// service; after healing, everything converges and the history is RC.
#[test]
fn minority_partition_keeps_relaxed_availability() {
    let history = Arc::new(History::new());
    let isolated = NodeId(2);
    let ops = 20u64;
    let mut sc = SimCluster::build(
        ClusterConfig::small().keys(512).release_timeout_ns(200_000),
        ProtocolMode::Kite,
        SimCfg { seed: 77, ..Default::default() },
        |sid| {
            let me = sid.global_idx(2) as u64;
            if sid.node == isolated {
                // Relaxed-only on the minority side: must stay available.
                SessionDriver::Script(Box::new(move |seq| {
                    (seq < ops).then(|| {
                        let tag = (me + 1) << 40 | (seq + 1);
                        if seq % 2 == 0 {
                            Op::Write { key: Key(10 + me), val: Val::from_u64(tag) }
                        } else {
                            Op::Read { key: Key(10 + me) }
                        }
                    })
                }))
            } else {
                // Full mix on the majority side.
                mixed_script(3, me, ops)
            }
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    // Cut the minority node from both majority nodes.
    sc.sim.partition(isolated, NodeId(0));
    sc.sim.partition(isolated, NodeId(1));
    sc.run_for(20 * MS);

    let iso_done = sc.node_completed(isolated);
    let majority_done = sc.node_completed(NodeId(0)) + sc.node_completed(NodeId(1));
    assert_eq!(iso_done, 2 * ops, "isolated node's relaxed ops must all complete");
    assert_eq!(majority_done, 4 * (ops + 1), "majority must retain full service");

    sc.sim.heal(isolated, NodeId(0));
    sc.sim.heal(isolated, NodeId(1));
    assert!(sc.run_until_quiesce(100 * SEC), "must quiesce after heal");
    assert_eq!(check_rc(&history, RcMode::Lin), Ok(()));
    assert_faa_contiguous(&history, "minority partition");
    // ES convergence after healing: the isolated node's writes reach all.
    for n in 0..3u8 {
        for s in 0..2u64 {
            let v = sc.shared(NodeId(n)).store.view(Key(10 + 4 + s)).val.as_u64();
            assert!(v > 0, "node {n} missing isolated node's key {}", 10 + 4 + s);
        }
    }
}

/// Crash-stop (not sleep): a replica dies permanently mid-run. Survivors
/// must finish every operation — including synchronization, which now needs
/// the other two of three replicas for every quorum — and the overall
/// history must stay RCLin.
#[test]
fn crash_stop_preserves_progress_and_rc() {
    for seed in 0..4u64 {
        let history = Arc::new(History::new());
        let ops = 12;
        let dead = NodeId((seed % 3) as u8);
        let mut sc = SimCluster::build(
            cfg(seed),
            ProtocolMode::Kite,
            SimCfg { seed: seed + 900, ..Default::default() },
            |sid| {
                if sid.node == dead {
                    SessionDriver::Idle
                } else {
                    mixed_script(seed + 50, sid.global_idx(2) as u64, ops)
                }
            },
            Some(recording_hook(Arc::clone(&history))),
        );
        sc.run_for(MS);
        sc.sim.crash(dead);
        // Survivors run to completion; a crashed member keeps quiescence
        // reachable because its sessions are idle.
        assert!(
            sc.run_until_quiesce(200 * SEC),
            "seed {seed}: survivors must finish without {dead}"
        );
        assert_eq!(history.len() as u64, 4 * (ops + 1), "seed {seed}: survivor ops complete");
        assert_eq!(
            check_rc(&history, RcMode::Lin),
            Ok(()),
            "seed {seed}: RCLin violated after crash-stop"
        );
        assert_faa_contiguous(&history, &format!("crash seed {seed}"));
    }
}

// ====================================================================
// Mutual exclusion (§2.3: RCSC provably supports mutex)
// ====================================================================

enum MxState {
    TryLock,
    ReadCounter,
    WriteCounter,
    Unlock,
}

/// A spin-lock client: strong-CAS the lock, read-increment-write the shared
/// counter with *relaxed* accesses, release-unlock. If the RC barriers or
/// CAS atomicity were broken, concurrent critical sections would interleave
/// and increments would be lost.
struct MutexClient {
    tag: u64,
    lock: Key,
    counter: Key,
    rounds_left: u64,
    state: MxState,
    staged_value: u64,
    acquisitions: Arc<AtomicU64>,
    last: Option<OpOutput>,
}

impl ClientSm for MutexClient {
    fn next_op(&mut self, _seq: u64) -> Option<Op> {
        loop {
            match self.state {
                MxState::TryLock => {
                    if self.rounds_left == 0 {
                        return None;
                    }
                    match self.last.take() {
                        Some(OpOutput::Cas { ok: true, .. }) => {
                            self.acquisitions.fetch_add(1, Ordering::Relaxed);
                            self.state = MxState::ReadCounter;
                        }
                        _ => {
                            // first attempt or a failed CAS: (re)try
                            return Some(Op::CasStrong {
                                key: self.lock,
                                expect: Val::EMPTY,
                                new: Val::from_u64(self.tag),
                            });
                        }
                    }
                }
                MxState::ReadCounter => match self.last.take() {
                    Some(OpOutput::Value(v)) => {
                        self.staged_value = v.as_u64();
                        self.state = MxState::WriteCounter;
                    }
                    None => return Some(Op::Read { key: self.counter }),
                    other => unreachable!("mutex read got {other:?}"),
                },
                MxState::WriteCounter => match self.last.take() {
                    Some(OpOutput::Done) => {
                        self.state = MxState::Unlock;
                    }
                    None => {
                        return Some(Op::Write {
                            key: self.counter,
                            val: Val::from_u64(self.staged_value + 1),
                        })
                    }
                    other => unreachable!("mutex write got {other:?}"),
                },
                MxState::Unlock => match self.last.take() {
                    Some(OpOutput::Done) => {
                        self.rounds_left -= 1;
                        self.state = MxState::TryLock;
                    }
                    None => {
                        return Some(Op::Release { key: self.lock, val: Val::EMPTY });
                    }
                    other => unreachable!("mutex unlock got {other:?}"),
                },
            }
        }
    }

    fn on_completion(&mut self, c: &Completion) {
        self.last = Some(c.output.clone());
    }

    fn finished(&self) -> bool {
        self.rounds_left == 0
    }
}

fn run_mutex(seed: u64, drop_pct: f64, rounds: u64) -> (u64, u64) {
    let acquisitions = Arc::new(AtomicU64::new(0));
    let lock = Key(1);
    let counter = Key(2);
    let mut sc = SimCluster::build(
        ClusterConfig::small().keys(64).release_timeout_ns(200_000),
        ProtocolMode::Kite,
        SimCfg { seed, ..Default::default() },
        |sid| {
            let me = sid.global_idx(2) as u64;
            SessionDriver::Interactive(Box::new(MutexClient {
                tag: me + 1,
                lock,
                counter,
                rounds_left: rounds,
                state: MxState::TryLock,
                staged_value: 0,
                acquisitions: Arc::clone(&acquisitions),
                last: None,
            }))
        },
        None,
    );
    if drop_pct > 0.0 {
        for a in 0..3u8 {
            for b in 0..3u8 {
                if a != b {
                    sc.sim.set_drop(NodeId(a), NodeId(b), drop_pct);
                }
            }
        }
    }
    assert!(sc.run_until_quiesce(600 * SEC), "mutex run must quiesce (seed {seed})");
    // Freshest replica carries the final count (all have it after quiesce,
    // since the last unlock's release pushed the value to a quorum and ES
    // broadcasts retransmit to the rest; read the max to be independent).
    let final_count = (0..3u8)
        .map(|n| sc.shared(NodeId(n)).store.view(counter).val.as_u64())
        .max()
        .unwrap();
    (acquisitions.load(Ordering::Relaxed), final_count)
}

/// Healthy network: every lock acquisition's increment survives.
#[test]
fn mutex_loses_no_increments() {
    let (acquired, count) = run_mutex(11, 0.0, 4);
    assert_eq!(acquired, 6 * 4, "every session finishes its rounds");
    assert_eq!(count, acquired, "each critical section incremented exactly once");
}

/// Under 15% uniform loss: same invariant — the §4 machinery may reorder
/// who wins the lock, but critical sections must still never interleave.
#[test]
fn mutex_loses_no_increments_under_loss() {
    for seed in [21u64, 22, 23] {
        let (acquired, count) = run_mutex(seed, 0.15, 3);
        assert_eq!(acquired, 6 * 3, "seed {seed}: all rounds complete");
        assert_eq!(count, acquired, "seed {seed}: lost increment — mutex broken");
    }
}

/// Releases and acquires alone are linearizable per key (the ABD claim),
/// under chaos: random loss and a sleep, sync-only workload.
#[test]
fn sync_ops_linearizable_under_chaos() {
    for seed in 0..6u64 {
        let history = Arc::new(History::new());
        let ops = 10;
        let mut sc = SimCluster::build(
            cfg(seed),
            ProtocolMode::Kite,
            SimCfg { seed: seed + 500, ..Default::default() },
            |sid| {
                let me = sid.global_idx(2) as u64;
                SessionDriver::Script(Box::new(move |seq| {
                    (seq < ops).then(|| {
                        let tag = (me + 1) << 40 | (seq + 1);
                        if (seq + me).is_multiple_of(2) {
                            Op::Release { key: Key(7), val: Val::from_u64(tag) }
                        } else {
                            Op::Acquire { key: Key(7) }
                        }
                    })
                }))
            },
            Some(recording_hook(Arc::clone(&history))),
        );
        let mut frng = SplitMix64::new(seed + 1);
        for a in 0..3u8 {
            for b in 0..3u8 {
                if a != b && frng.chance(0.5) {
                    sc.sim.set_drop(NodeId(a), NodeId(b), frng.next_f64() * 0.3);
                }
            }
        }
        sc.run_for(MS);
        sc.sim.sleep_node(NodeId(frng.next_below(3) as u8), 3 * MS);
        assert!(sc.run_until_quiesce(200 * SEC), "seed {seed}: must quiesce");
        assert!(
            check_linearizable_per_key(&history).is_ok(),
            "seed {seed}: releases/acquires not linearizable"
        );
        assert_eq!(check_rc(&history, RcMode::Lin), Ok(()), "seed {seed}");
    }
}

/// The producer-consumer invariant holds when the *producer's* node is the
/// one that sleeps right after the release: the flag and payload must reach
/// a quorum before the release completes, so consumers on other nodes can
/// still synchronize with it.
#[test]
fn release_survives_producer_sleep() {
    let history = Arc::new(History::new());
    let producer = SessionId::new(NodeId(0), 0);
    let consumer = SessionId::new(NodeId(1), 1);
    let mut sc = SimCluster::build(
        ClusterConfig::small().keys(64).release_timeout_ns(200_000),
        ProtocolMode::Kite,
        SimCfg { seed: 31, ..Default::default() },
        |sid| {
            if sid == producer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    0 => Some(Op::Write { key: Key(1), val: Val::from_u64(1) }),
                    1 => Some(Op::Release { key: Key(2), val: Val::from_u64(1) }),
                    _ => None,
                }))
            } else if sid == consumer {
                SessionDriver::Script(Box::new(|seq| match seq {
                    n if n < 60 => Some(if n % 2 == 0 {
                        Op::Acquire { key: Key(2) }
                    } else {
                        Op::Read { key: Key(1) }
                    }),
                    _ => None,
                }))
            } else {
                SessionDriver::Idle
            }
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    // Let the producer finish both ops, then knock its node out cold for a
    // while; the consumer keeps polling against the surviving quorum.
    sc.run_for(2 * MS);
    sc.sim.sleep_node(NodeId(0), 10 * MS);
    assert!(sc.run_until_quiesce(100 * SEC));
    assert_eq!(check_rc(&history, RcMode::Lin), Ok(()));
    // The consumer must have synchronized: the release completed before the
    // sleep, so (RCLin) a later acquire must observe it.
    let saw = history
        .sorted()
        .iter()
        .any(|r| r.session == consumer && r.kind == kite_verify::OpKind::Acquire { v: 1 });
    assert!(saw, "consumer never observed the completed release");
}
