//! Cross-crate integration tests of the RC guarantees (§5) on the
//! deterministic simulator: the barrier invariant under message loss, the
//! fast/slow-path transition cycle, linearizability of synchronization
//! operations, and RMW exactly-once. Each fault scenario is a literal case
//! of the fault runner (`kite_repro::testutil::swarm`), judged by its four
//! checks (completion, exactly-once FAAs, RCLin, per-key linearizability of
//! the release/acquire-only keys) plus the scenario's own.
//!
//! The §4.3 protocol optimizations are *optimizations*, not load-bearing
//! mechanisms. The four loss scenarios shared with `ablations.rs` (in
//! `scenarios`) run here with both on; `ablations.rs` runs them under the
//! other three on/off combinations of `overlap_release` and
//! `stripped_slow_path`. The other fault scenarios here run under all four
//! (`combos`). The `ablation_opts` bench measures what the optimizations
//! *buy*; these tests pin down what they must not *cost*.

use std::sync::Arc;

use kite::api::Op;
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_repro::testutil::{recording_hook, swarm::Fault::*, swarm::*};
use kite_simnet::SimCfg;
use kite_verify::{History, OpKind};
use kite_workloads::MixCfg;

mod scenarios;
use scenarios::{combos, poll, producer_consumer, FLAG, X};

/// The §4.1 walk-through under a dead link, both optimizations on
/// (`scenarios::producer_consumer_survives_lost_writes`).
#[test]
fn producer_consumer_survives_lost_writes() {
    combos().take(1).for_each(scenarios::producer_consumer_survives_lost_writes);
}

/// Mixed ops under 25% loss, both optimizations on
/// (`scenarios::mixed_workload_under_lossy_network_is_rc`).
#[test]
fn mixed_workload_under_lossy_network_is_rc() {
    combos().take(1).for_each(scenarios::mixed_workload_under_lossy_network_is_rc);
}

/// The delinquency bits reset after the slow-path transition: a second
/// acquire from the same machine must NOT bounce back to the slow path
/// (§4.2.1's "pathological case" prevention).
#[test]
fn delinquency_reset_prevents_repeated_slow_paths() {
    let acquires: Vec<Op> = (0..30).map(|_| Op::Acquire { key: FLAG }).collect();
    for cfg in combos() {
        let events = vec![(0, Loss(0, 1, 100))];
        let case =
            Case { cfg, seed: 23, victim: 2, scripts: producer_consumer(acquires.clone()), events };
        let out = literal(&case);
        judge(&case, &out);
        let combo = (case.cfg.overlap_release, case.cfg.stripped_slow_path);
        let bumps = out.sc.counters(NodeId(1)).epoch_bumps.get();
        assert!(bumps >= 1, "{combo:?}: at least one slow-path transition");
        assert!(
            bumps <= 3,
            "{combo:?}: reset-bit must prevent 30 acquires from bouncing to the slow path \
             {bumps} times"
        );
        // Bits for node 1 are clear everywhere after the resets.
        for n in 0..3u8 {
            assert!(
                !out.sc.shared(NodeId(n)).delinquency.is_marked(NodeId(1)),
                "{combo:?}: node {n} still marks the consumer delinquent"
            );
        }
    }
}

/// The slow path still restores keys in-epoch: after the recovery cycle the
/// consumer's later reads of the payload are local again.
#[test]
fn full_abd_slow_path_restores_epoch() {
    // Poll long enough to observe the (delayed) release and take the
    // delinquency transition, then read the payload repeatedly: the first
    // post-bump read refreshes the key; the rest must be local.
    let consumer: Vec<Op> =
        poll(40).into_iter().chain((0..20).map(|_| Op::Read { key: X })).collect();
    for cfg in combos() {
        let events = vec![(0, Loss(0, 1, 100))];
        let case =
            Case { cfg, seed: 17, victim: 2, scripts: producer_consumer(consumer.clone()), events };
        let out = literal(&case);
        judge(&case, &out);
        let combo = (case.cfg.overlap_release, case.cfg.stripped_slow_path);
        let c = out.sc.counters(NodeId(1));
        assert!(c.slow_path_accesses.get() >= 1, "{combo:?}: at least one slow-path refresh");
        let local = c.local_reads.get();
        assert!(
            local >= 15,
            "{combo:?}: after the refresh the key is in-epoch again; reads must be local \
             (got {local})"
        );
    }
}

/// FAAs exactly-once under 10% loss, both optimizations on
/// (`scenarios::faa_exactly_once_under_loss`).
#[test]
fn faa_exactly_once_under_loss() {
    combos().take(1).for_each(scenarios::faa_exactly_once_under_loss);
}

/// With `overlap_release = false` and a healthy network the system still
/// quiesces with identical results — the deferred rounds fire exactly once
/// when their barriers resolve.
#[test]
fn deferred_rounds_complete_on_healthy_network() {
    let script = |me: u64| -> Vec<Op> {
        let op = |n: u64| match n % 3 {
            0 => Op::Write { key: Key(me), val: Val::from_u64((me + 1) << 32 | (n + 1)) },
            1 => Op::Release { key: Key(50 + me), val: Val::from_u64((me + 1) << 32 | (n + 1)) },
            _ => Op::Faa { key: Key(99), delta: 1 },
        };
        (0..12).map(op).collect()
    };
    for cfg in combos().filter(|c| !c.overlap_release) {
        let case =
            Case { cfg, seed: 3, victim: 0, scripts: (0..6).map(script).collect(), events: vec![] };
        let out = run(&case);
        judge(&case, &out);
        // 4 FAAs per session × 6 sessions.
        for n in 0..3u8 {
            assert_eq!(out.sc.shared(NodeId(n)).store.view(Key(99)).val.as_u64(), 24);
        }
    }
}

/// Same seed + same flags ⇒ identical execution under 15% loss, both
/// optimizations on (`scenarios::sim_executions_are_deterministic`).
#[test]
fn sim_executions_are_deterministic() {
    combos().take(1).for_each(scenarios::sim_executions_are_deterministic);
}

/// ES alone provides per-key SC (§2.2): validate with the session-order
/// checker on a contended key. No fault, and `EsOnly` mode, which the
/// fault runner does not run.
#[test]
fn es_mode_is_per_key_sc() {
    let history = Arc::new(History::new());
    let mut sc = SimCluster::build(
        ClusterConfig::small(),
        ProtocolMode::EsOnly,
        SimCfg { seed: 41, ..Default::default() },
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
    assert!(sc.run_until_quiesce(30_000_000_000));
    assert!(
        kite_verify::checker::check_per_key_sc(&history).is_ok(),
        "ES must provide per-key sequential consistency"
    );
}

/// §8.4 on the simulator: a replica sleeps and the survivors keep
/// completing releases on the slow path; after it wakes, its acquire
/// sees the last release and its relaxed read of the payload is at least
/// as fresh. The writer on node 0 runs 40 write/release rounds, all of them
/// inside the 150 ms sleep but the first few; the sleeper's session polls
/// acquire/read, and its last pair is issued once it has woken.
#[test]
fn sleeping_replica_does_not_block_survivors() {
    const ROUNDS: u64 = 40;
    let (writer, reader) = (SessionId::new(NodeId(0), 0), SessionId::new(NodeId(2), 0));
    let round = |r| {
        [
            Op::Write { key: X, val: Val::from_u64(r) },
            Op::Release { key: FLAG, val: Val::from_u64(r) },
        ]
    };
    let scripts =
        vec![(1..=ROUNDS).flat_map(round).collect(), vec![], vec![], vec![], poll(8), vec![]];
    // A 1 ms release timeout sends releases to the slow path fast.
    let cfg = ClusterConfig::small().release_timeout_ns(1_000_000);
    let case = Case { cfg, seed: 5, victim: 1, scripts, events: vec![(4, Sleep(2, 150))] };
    let out = literal(&case);
    judge(&case, &out);
    let (h, asleep) = (out.history.sorted(), out.fired[0].at..out.fired[0].at + 150_000_000);

    let releases = |r: &&kite_verify::OpRecord| {
        r.session == writer && matches!(r.kind, OpKind::Release { .. })
    };
    let during = h.iter().filter(releases).filter(|r| asleep.contains(&r.complete)).count();
    assert!(during > 0, "survivors must keep completing releases");
    let slow: u64 = (0..3).map(|n| out.sc.counters(NodeId(n)).slow_releases.get()).sum();
    assert!(slow > 0, "releases during the sleep must take the slow path");

    let mine: Vec<_> =
        h.iter().filter(|r| r.session == reader && (r.key == X || r.key == FLAG)).collect();
    let [.., acquire, read] = mine[..] else { panic!("the reader completed no pair") };
    let (OpKind::Acquire { v: flag }, OpKind::Read { v: payload }) = (acquire.kind, read.kind)
    else {
        panic!("the reader's last pair is {acquire:?}, {read:?}")
    };
    assert!(acquire.invoke >= asleep.end, "the reader's last pair starts once it has woken");
    assert_eq!(flag, ROUNDS, "woken replica must observe the last release");
    assert!(payload >= flag, "payload {payload} must be at least as fresh as flag {flag}");
}

/// A release caught half-propagated between two acquires, on 5 nodes
/// (quorum 3). A 3-node cluster cannot show it: an acquirer applies the
/// value it returns, so writer + acquirer already make a quorum of 2, and
/// an acquire's read fold starts with the local replica, so deciding at
/// the first remote reply is deciding at a quorum. Here node 0's release
/// of FLAG reaches only node 1 before 3 ms (its links to nodes 2–4 are
/// slow); node 1 (asleep until 4 ms) acquires it from {1, 0, 2}, and must
/// write it back to a quorum before returning it; node 3 (asleep until
/// 5 ms, its links from nodes 0 and 1 slow, from node 2 a little slow)
/// then acquires from {3, 4, 2} and must see it too — an acquire that
/// skips the write-back, or decides at its first remote reply (node 4's,
/// which the release has not reached yet), returns 0 after node 1's
/// acquire returned 1, and the judge's per-key linearizability check fails.
#[test]
fn a_release_half_propagated_between_two_acquires_is_seen_by_both() {
    let mut scripts = vec![vec![]; 10];
    scripts[0] = vec![Op::Release { key: FLAG, val: Val::from_u64(1) }];
    scripts[2] = vec![Op::Acquire { key: FLAG }];
    scripts[6] = vec![Op::Acquire { key: FLAG }];
    let slow = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4)].map(|(a, b)| (0, Delay(a, b, 3_000)));
    let events = slow.into_iter().chain([(0, Delay(2, 1, 100)), (0, Delay(2, 3, 100))]);
    let events: Vec<_> = events.chain([(0, Sleep(1, 4)), (0, Sleep(3, 5))]).collect();
    for cfg in combos() {
        let case = Case {
            cfg: cfg.nodes(5),
            seed: 3,
            victim: 4,
            scripts: scripts.clone(),
            events: events.clone(),
        };
        let out = literal(&case);
        judge(&case, &out);
        let acquired: Vec<_> = (out.history.for_key(FLAG).iter())
            .filter_map(|r| {
                matches!(r.kind, OpKind::Acquire { .. }).then_some((r.session.node.0, r.kind))
            })
            .collect();
        assert_eq!(
            acquired,
            [1, 3].map(|n| (n, OpKind::Acquire { v: 1 })),
            "both acquires see the release"
        );
    }
}

/// Direction 18: with no fault and no dropped message, load alone declares
/// no replica delinquent. fig5's Kite(5 %) mix at 20 % writes on the
/// paper's deployment (5 nodes × 2 workers, 65 536 keys, the default 1 ms
/// release timeout), seed 5, 10 ms of virtual time. A write is late a
/// release timeout after its quorum, not after it was sent: when lateness
/// counted from the send it included queueing behind a saturated worker, and
/// at 64 sessions per worker 15 epochs were bumped (17 at 128), throughput
/// falling below the 32-session control's.
#[test]
fn overload_alone_declares_no_replica_delinquent() {
    let run = |sessions: usize| {
        let cfg = ClusterConfig::default().sessions_per_worker(sessions);
        // `run_kite_mix`'s per-session seeds: this is fig5's run.
        let drivers = MixCfg::typical(0.2, cfg.keys as u64).drivers(&cfg, 5);
        let sim = SimCfg { seed: 5, ..Default::default() };
        let mut sc = SimCluster::build(cfg, ProtocolMode::Kite, sim, drivers, None);
        sc.run_for(10_000_000);
        let sum = |f: fn(&kite_common::stats::ProtoCounters) -> u64| -> u64 {
            (0..5).map(|n| f(sc.counters(NodeId(n)))).sum()
        };
        let (bumps, slow) = (sum(|c| c.epoch_bumps.get()), sum(|c| c.slow_releases.get()));
        let completed = sc.total_completed();
        println!(
            "{sessions} sessions per worker: {bumps} epoch bumps, {slow} slow releases, {} \
             dropped, {completed} completed",
            sc.sim.dropped
        );
        ((bumps, slow, sc.sim.dropped), completed)
    };
    let (faults, control) = run(32);
    assert_eq!(faults, (0, 0, 0), "control: 32 sessions per worker declare no one");
    for sessions in [64, 128] {
        let (faults, completed) = run(sessions);
        assert_eq!(faults, (0, 0, 0), "{sessions} sessions: no bump, slow release or drop");
        assert!(
            completed * 10 >= control * 9,
            "{sessions} sessions: {completed} completed, under 0.9 × the control's {control}"
        );
    }
}
