//! The RC loss scenarios shared by `rc_invariants.rs` and `ablations.rs`.
//! Each scenario is written once here, as a literal case of the fault
//! runner (`kite_repro::testutil::swarm`) with its own assertions beside the
//! runner's judge, and takes the cluster configuration to run under:
//! `rc_invariants.rs` runs it with both §4.3 optimizations on (the first
//! of `combos`), `ablations.rs` under the other three on/off combinations.

use kite::api::Op;
use kite_common::{ClusterConfig, Key, NodeId, SessionId, Val};
use kite_repro::testutil::{swarm::Fault::*, swarm::*};
use kite_verify::OpKind;

pub const X: Key = Key(1);
pub const FLAG: Key = Key(2);

/// `ClusterConfig::small()` with a 200 µs release timeout (slow paths
/// trigger quickly in virtual time), under each on/off combination of the
/// two §4.3 optimizations, both on first.
pub fn combos() -> impl Iterator<Item = ClusterConfig> {
    let small = ClusterConfig::small().release_timeout_ns(200_000);
    [(true, true), (true, false), (false, true), (false, false)]
        .map(|(overlap, stripped)| {
            small.clone().overlap_release(overlap).stripped_slow_path(stripped)
        })
        .into_iter()
}

/// `cfg`'s `(overlap_release, stripped_slow_path)`, for failure messages.
fn combo(cfg: &ClusterConfig) -> (bool, bool) {
    (cfg.overlap_release, cfg.stripped_slow_path)
}

/// The Figure 1 producer on session 0 (node 0: write the payload X, release
/// FLAG) and `consumer` on session 2 (node 1).
pub fn producer_consumer(consumer: Vec<Op>) -> Vec<Vec<Op>> {
    let one = Val::from_u64(1);
    let producer =
        vec![Op::Write { key: X, val: one.clone() }, Op::Release { key: FLAG, val: one }];
    vec![producer, vec![], consumer, vec![], vec![], vec![]]
}

/// `n` ops polling FLAG with acquires, each followed by a relaxed read of X.
pub fn poll(n: u64) -> Vec<Op> {
    (0..n)
        .map(|i| if i % 2 == 0 { Op::Acquire { key: FLAG } } else { Op::Read { key: X } })
        .collect()
}

/// Directed-link loss of `pct` % on every link of a 3-node cluster, from
/// the first op.
fn lossy(pct: u8) -> Vec<Event> {
    (0..3u8)
        .flat_map(|a| [(0, Loss(a, (a + 1) % 3, pct)), (0, Loss(a, (a + 2) % 3, pct))])
        .collect()
}

/// The Figure 1 producer-consumer under *total* message loss from the
/// producer's node to the consumer's node: the consumer misses the payload
/// write, the release detects it (timeout → DM-set broadcast), the
/// consumer's acquire discovers its delinquency through quorum
/// intersection, transitions to the slow path, and the relaxed read still
/// returns the payload. This is the paper's §4.1 walk-through, end to end.
pub fn producer_consumer_survives_lost_writes(cfg: ClusterConfig) {
    let consumer = SessionId::new(NodeId(1), 0);
    // Node 0 cannot reach node 1 at all: the EsWrite for X never arrives.
    let events = vec![(0, Loss(0, 1, 100))];
    let case = Case { cfg, seed: 7, victim: 2, scripts: producer_consumer(poll(40)), events };
    let out = literal(&case);
    judge(&case, &out);
    let (sc, combo) = (&out.sc, combo(&case.cfg));

    // The mechanism actually engaged:
    let slow_releases: u64 = (0..3).map(|n| sc.counters(NodeId(n)).slow_releases.get()).sum();
    assert!(slow_releases >= 1, "{combo:?}: release must take the slow-path barrier");
    let c = sc.counters(NodeId(1));
    assert!(c.epoch_bumps.get() >= 1, "{combo:?}: consumer must bump its epoch");
    assert!(
        c.slow_path_accesses.get() >= 1,
        "{combo:?}: consumer's reads after the epoch bump must take the slow path"
    );

    // Strongest concrete assertion: once an acquire observed flag=1, the
    // very next relaxed read returned the payload.
    let mut saw_flag = false;
    let mut verified = false;
    for r in out.history.sorted().iter().filter(|r| r.session == consumer) {
        match r.kind {
            OpKind::Acquire { v: 1 } => saw_flag = true,
            OpKind::Read { v } if saw_flag => {
                assert_eq!(v, 1, "{combo:?}: stale payload after a successful acquire");
                verified = true;
            }
            _ => {}
        }
    }
    assert!(verified, "{combo:?}: the consumer must eventually synchronize");
}

/// Random 25% loss on every link, all six sessions, mixed ops: every op
/// completes, the whole history is RCLin and the releases and acquires are
/// linearizable per key (the judge).
pub fn mixed_workload_under_lossy_network_is_rc(cfg: ClusterConfig) {
    // Each session: unique-valued writes + releases on its own keys,
    // acquires + reads of the *previous* session's keys.
    let script = |me: u64| -> Vec<Op> {
        let peer = (me + 5) % 6;
        let op = |n: u64| match n % 4 {
            0 => Op::Write { key: Key(100 + me), val: Val::from_u64((me + 1) << 32 | (n + 1)) },
            1 => Op::Release { key: Key(200 + me), val: Val::from_u64((me + 1) << 32 | (n + 1)) },
            2 => Op::Acquire { key: Key(200 + peer) },
            _ => Op::Read { key: Key(100 + peer) },
        };
        (0..16).map(op).collect()
    };
    let case =
        Case { cfg, seed: 13, victim: 0, scripts: (0..6).map(script).collect(), events: lossy(25) };
    judge(&case, &literal(&case));
}

/// FAAs from every session on one key, each session's led by a relaxed
/// write (so every FAA has a real barrier to defer behind), with 10% loss:
/// consensus must make them exactly-once (the §3.4 helping + dedup
/// machinery; the judge checks the observed bases are `0..36`), and all
/// replicas converge on the count.
pub fn faa_exactly_once_under_loss(cfg: ClusterConfig) {
    let script = |me: u64| -> Vec<Op> {
        let write = Op::Write { key: Key(10 + me), val: Val::from_u64(me + 1) };
        [write].into_iter().chain((0..6).map(|_| Op::Faa { key: Key(0), delta: 1 })).collect()
    };
    let case =
        Case { cfg, seed: 31, victim: 0, scripts: (0..6).map(script).collect(), events: lossy(10) };
    let out = literal(&case);
    judge(&case, &out);
    for n in 0..3u8 {
        assert_eq!(
            out.sc.shared(NodeId(n)).store.view(Key(0)).val.as_u64(),
            36,
            "replica {n} must converge to the exact count under {:?}",
            combo(&case.cfg)
        );
    }
}

/// Same seed + same flags ⇒ identical execution under 15% loss (the
/// property every regression test here stands on).
pub fn sim_executions_are_deterministic(cfg: ClusterConfig) {
    let script = |me: u64| -> Vec<Op> {
        let op = |n: u64| match n % 3 {
            0 => Op::Write { key: Key(me), val: Val::from_u64(n + 1) },
            1 => Op::Release { key: Key(50 + me), val: Val::from_u64(n + 1) },
            _ => Op::Faa { key: Key(99), delta: 1 },
        };
        (0..12).map(op).collect()
    };
    let case =
        Case { cfg, seed: 404, victim: 0, scripts: (0..6).map(script).collect(), events: lossy(15) };
    let fingerprint = || {
        let out = literal(&case);
        judge(&case, &out);
        let sc = &out.sc;
        let nodes: Vec<_> = (0..3)
            .map(|n| {
                let c = sc.counters(NodeId(n));
                let count = sc.shared(NodeId(n)).store.view(Key(99)).val.as_u64();
                [sc.node_completed(NodeId(n)), c.slow_releases.get(), c.epoch_bumps.get(), count]
            })
            .collect();
        (sc.now(), out.fired, nodes)
    };
    let combo = combo(&case.cfg);
    assert_eq!(fingerprint(), fingerprint(), "{combo:?}: same seed must replay identically");
}
