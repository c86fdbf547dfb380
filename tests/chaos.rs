//! The fault suites on the deterministic simulator, run by one runner
//! (`kite_repro::testutil::swarm`): a property over drawn fault schedules,
//! the swarm's hunt for direction 7's amnesia, and literal cases. Also the
//! mutual-exclusion end-to-end test: §2.3 claims RCSC is strong enough for
//! mutex, so a CAS-lock + relaxed critical section + release-unlock must
//! never lose an increment, under loss included.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kite::api::{Completion, Op, OpOutput};
use kite::session::{ClientSm, SessionDriver};
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId, Val};
use kite_repro::testutil::{mixed_script, swarm::Fault::*, swarm::*};
use kite_simnet::{SimCfg, BASE_LATENCY_NS};
use kite_verify::check::{check, Src};
use kite_verify::OpKind;

const SEC: u64 = 1_000_000_000;

fn prop(src: &mut Src, restarts: bool) {
    let case = Case::draw(src, restarts);
    judge(&case, &run(&case));
}

/// Drawn schedules without `Restart` (direction 7 is open) pass the judge.
#[test]
fn random_schedules_preserve_rclin() {
    check(2_000, |src| prop(src, false));
}

/// Direction 7, a known violation: with `Restart` the swarm finds (P) or
/// (A) unaided, and prints the case that found it and the case it shrank
/// to (the judge's message names each case's events and op count). The fix
/// flips it.
#[test]
fn random_schedules_with_restarts_find_amnesia_known_violation() {
    let err = catch_unwind(|| check(3_000, |src| prop(src, true))).expect_err("no violation found");
    let msg = err.downcast_ref::<String>().expect("check panics with a message");
    let shrunk = &msg[msg.find("\nshrunk from").expect("a shrunk case")..];
    let found = ["DuplicateWrite", "double or lost FAA", "StaleRead"].map(|v| shrunk.contains(v));
    assert!(found.contains(&true), "not (P) or (A): {msg}");
    assert!(shrunk.contains("\nreplay: kite_verify::check::replay(&["), "no replay line: {msg}");
    for line in msg.lines().filter(|l| l.starts_with("property failed") || l.starts_with("shrunk"))
    {
        println!("hunt: {line}");
    }
}

fn cfg() -> ClusterConfig {
    ClusterConfig::small().keys(512).release_timeout_ns(200_000)
}

/// A minority-partitioned replica stays *available for relaxed operations*
/// (ES reads/writes complete locally) while the majority keeps full
/// service; after healing, everything converges and the history is RC.
#[test]
fn minority_partition_keeps_relaxed_availability() {
    let relaxed = |key| {
        (1..20)
            .step_by(2)
            .flat_map(|n| [Op::Write { key, val: Val::from_u64(n) }, Op::Read { key }])
            .collect()
    };
    let majority = (0..4).map(|s| mixed_script(s, 20));
    let scripts = majority.chain([relaxed(Key(24)), relaxed(Key(25))]).collect();
    let case = Case { cfg: cfg(), seed: 77, victim: 2, scripts, events: vec![(4, Isolate(2))] };
    let out = literal(&case);
    // Of all the ops, only the isolated sessions' closing releases need a quorum.
    assert_eq!(out.fired[1].outstanding, 2, "every other op completes while node 2 is cut off");
    judge(&case, &out);
    for (n, key) in (0..3).flat_map(|n| [(n, Key(24)), (n, Key(25))]) {
        assert_eq!(out.sc.shared(NodeId(n)).store.view(key).val.as_u64(), 19, "node {n}, {key:?}");
    }
}

/// Crash-stop (not sleep): a replica dies permanently mid-run. Survivors
/// finish every operation — synchronization included, which now needs both
/// for every quorum — and the history stays RCLin, across the §4.3 ablations.
#[test]
fn crash_stop_preserves_progress_and_rc() {
    for seed in 0..4u64 {
        let victim = (seed % 3) as u8;
        let cfg = cfg().overlap_release(seed % 2 == 0).stripped_slow_path(seed % 4 < 2);
        let script = |s| if s / 2 == victim as usize { vec![] } else { mixed_script(s, 12) };
        let scripts = (0..6).map(script);
        let (scripts, events) = (scripts.collect(), vec![(20, Crash)]);
        let case = Case { cfg, seed: seed + 900, victim, scripts, events };
        let out = literal(&case);
        // After the survivors' first quorum rounds have reached the victim,
        // not before anything could (its first completions are local).
        let crash = out.fired[0];
        assert!(crash.at >= BASE_LATENCY_NS && crash.outstanding > 0, "crash: {crash:?}");
        judge(&case, &out);
    }
}

/// Releases and acquires alone are linearizable per key (the ABD claim):
/// all six sessions race on one key under loss from the first op, and a
/// node sleeps mid-run, across the §4.3 ablations.
#[test]
fn sync_ops_linearizable_under_chaos() {
    for seed in 0..6u64 {
        let sync = |s: u64| -> Vec<Op> {
            let val = |n| Val::from_u64((s + 1) << 40 | (n + 1));
            let op = |n: u64| match (n + s) % 2 {
                0 => Op::Release { key: Key(7), val: val(n) },
                _ => Op::Acquire { key: Key(7) },
            };
            (0..10).map(op).collect()
        };
        let links = (0..3u8).flat_map(|a| [(a, (a + 1) % 3), (a, (a + 2) % 3)]);
        let pct = |a: u8, b: u8| (seed as u8 * 7 + a * 11 + b * 5) % 31;
        let mut events: Vec<_> = links.map(|(a, b)| (0, Loss(a, b, pct(a, b)))).collect();
        events.push((20, Sleep((seed % 3) as u8, 3)));
        let cfg = cfg().overlap_release(seed % 2 == 0).stripped_slow_path(seed % 4 < 2);
        let scripts = (0..6).map(sync).collect();
        let case = Case { cfg, seed: seed + 500, victim: 0, scripts, events };
        judge(&case, &literal(&case));
    }
}

/// The producer-consumer invariant holds when the *producer's* node sleeps
/// right after the release: the flag and payload reached a quorum before
/// the release completed, so a consumer synchronizes with it meanwhile.
#[test]
fn release_survives_producer_sleep() {
    let (x, flag) = (Key(1), Key(2));
    let producer = vec![
        Op::Write { key: x, val: Val::from_u64(1) },
        Op::Release { key: flag, val: Val::from_u64(1) },
    ];
    let poll = |n| if n % 2 == 0 { Op::Acquire { key: flag } } else { Op::Read { key: x } };
    let scripts = vec![producer, vec![], vec![], (0..60).map(poll).collect(), vec![], vec![]];
    let events = vec![(6, Sleep(0, 10))];
    let case = Case { cfg: cfg().keys(64), seed: 31, victim: 2, scripts, events };
    let out = literal(&case);
    judge(&case, &out);
    let (h, asleep) = (out.history.sorted(), out.fired[0].at..out.fired[0].at + 10_000_000);
    let released = h.iter().find(|r| r.key == flag && r.kind == OpKind::Release { v: 1 });
    assert!(released.expect("released").complete <= asleep.start, "released before the sleep");
    let synced =
        |r: &&kite_verify::OpRecord| asleep.contains(&r.invoke) && asleep.contains(&r.complete);
    let acquired = h.iter().filter(synced).any(|r| r.kind == OpKind::Acquire { v: 1 });
    assert!(acquired, "no acquire observed the release while the producer slept");
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

fn run_mutex(seed: u64, loss_pct: u8, rounds: u64) -> (u64, u64) {
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
    for (a, b) in (0..3u8).flat_map(|a| [(a, (a + 1) % 3), (a, (a + 2) % 3)]) {
        apply(&mut sc, 0, Loss(a, b, loss_pct));
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
    let (acquired, count) = run_mutex(11, 0, 4);
    assert_eq!(acquired, 6 * 4, "every session finishes its rounds");
    assert_eq!(count, acquired, "each critical section incremented exactly once");
}

/// Under 15% uniform loss: same invariant — the §4 machinery may reorder
/// who wins the lock, but critical sections must still never interleave.
#[test]
fn mutex_loses_no_increments_under_loss() {
    for seed in [21u64, 22, 23] {
        let (acquired, count) = run_mutex(seed, 15, 3);
        assert_eq!(acquired, 6 * 3, "seed {seed}: all rounds complete");
        assert_eq!(count, acquired, "seed {seed}: lost increment — mutex broken");
    }
}
