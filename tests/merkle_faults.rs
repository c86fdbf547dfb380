//! The digest plane under faults: each sweep picks flat or Merkle from its
//! node's write churn, and the choice holds up in a faulted run.
//!
//! The seeded mixed workload runs under message loss **plus a
//! crash-stopped replica**, once per seed, and must show
//!
//! * the plane really switching: while the survivors are loaded, their
//!   sweeps ship flat chunks and no summary; once the load stops, the idle
//!   survivors summarize (and drill down where a summary mismatches);
//! * every survivor operation completing, with the history passing the RC
//!   checkers (that anti-entropy changes no protocol outcome is
//!   `tests/antientropy.rs::anti_entropy_on_off_equivalence_under_faults`);
//! * the survivors' stores converged at quiescence.
//!
//! The crash matters: a dead peer never answers a summary, so the sweep
//! must neither stall on it (sweeps are fire-and-forget) nor keep the
//! survivors' cool-down armed forever (a dead peer produces no mismatch
//! traffic) — quiescence with a corpse in the cluster is part of the
//! property.

use std::collections::BTreeSet;
use std::sync::Arc;

use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, NodeId, SessionId};
use kite_repro::testutil::recording_hook;
use kite_simnet::SimCfg;
use kite_verify::{check_rc, History, RcMode};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;
const DEAD: NodeId = NodeId(2);
const OPS: u64 = 40;

/// `(flat digests, summaries)` sent so far, cluster-wide.
fn planes(sc: &SimCluster) -> (u64, u64) {
    let sum =
        |f: fn(&ProtoCounters) -> u64| -> u64 { (0..3).map(|n| f(sc.counters(NodeId(n)))).sum() };
    (sum(|c| c.ae_digests_sent.get()), sum(|c| c.ae_summaries_sent.get()))
}

/// One faulted run, quiesced: 25% loss on both directions of the
/// survivors' link, one replica crash-stopped mid-run. The dead node's
/// sessions are idle (as a fault case's victim's are in
/// `kite_repro::testutil::swarm`) so the run can quiesce. 256 keys
/// make a lattice of 8 leaves, and 250 µs sweeps see far more writes than
/// that while the survivors' sessions run. Returns the cluster, its
/// history, and the `planes` of the first millisecond — the loaded window.
fn faulted_run(seed: u64) -> (SimCluster, Arc<History>, (u64, u64)) {
    let history = Arc::new(History::new());
    let cfg = ClusterConfig::small()
        .keys(1 << 8)
        .release_timeout_ns(200_000)
        .anti_entropy_interval_ns(250_000);
    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        SimCfg { seed, ..Default::default() },
        |sid| {
            if sid.node == DEAD {
                SessionDriver::Idle
            } else {
                kite_repro::testutil::mixed_fault_driver(sid, 5, OPS)
            }
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    sc.sim.set_drop(NodeId(0), NodeId(1), 0.25);
    sc.sim.set_drop(NodeId(1), NodeId(0), 0.25);
    sc.run_for(MS);
    assert!(sc.total_completed() < 4 * OPS, "seed {seed}: the load ended early");
    let loaded = planes(&sc);
    sc.run_for(MS);
    sc.sim.crash(DEAD);
    assert!(
        sc.run_until_quiesce(60 * SEC),
        "seed {seed}: survivors must quiesce under loss with a corpse in the cluster"
    );
    (sc, history, loaded)
}

#[test]
fn sweeps_go_flat_under_load_and_summarize_in_the_wind_down() {
    for seed in [7u64, 33] {
        let (sc, history, loaded) = faulted_run(seed);
        let end = planes(&sc);
        assert!(loaded.0 > 0, "seed {seed}: loaded sweeps must ship flat chunks");
        assert_eq!(loaded.1, 0, "seed {seed}: loaded sweeps must not summarize ({loaded:?})");
        assert!(end.1 > 0, "seed {seed}: the wind-down must summarize");

        // Every survivor op completed, and the history is RC.
        let expected: BTreeSet<(u8, u32, u64)> = (0..2u8)
            .flat_map(|n| (0..2u32).flat_map(move |s| (0..OPS).map(move |q| (n, s, q))))
            .collect();
        let completed: BTreeSet<(u8, u32, u64)> = history
            .sorted()
            .iter()
            .map(|r| (r.session.node.0, r.session.slot, r.session_seq))
            .collect();
        assert_eq!(completed, expected, "seed {seed}: survivor ops missing");
        assert_eq!(check_rc(&history, RcMode::Sc), Ok(()), "seed {seed}: RCSC");
        assert_eq!(check_rc(&history, RcMode::Lin), Ok(()), "seed {seed}: RCLin");
    }
}

/// Survivor stores converge after the summarizing wind-down despite the
/// loss + crash — "quiescence implies store convergence" holds whichever
/// plane the last sweeps chose (the corpse is exempt: nothing can repair a
/// crashed node).
#[test]
fn merkle_quiescence_implies_survivor_convergence() {
    let (sc, _, _) = faulted_run(19);
    assert!(planes(&sc).1 > 0, "the wind-down must summarize");
    for key in [Key(3), Key(5), Key(10), Key(11), Key(12), Key(13), Key(14)] {
        let views: Vec<(u64, u64)> = (0..2u8)
            .map(|n| {
                let sh = sc.shared(NodeId(n));
                (sh.store.view(key).val.as_u64(), sh.store.paxos_next_slot(key))
            })
            .collect();
        assert!(
            views.windows(2).all(|w| w[0] == w[1]),
            "{key:?} diverged across survivors after quiescence: {views:?}"
        );
    }
}

/// The dead-session guard the suite above relies on: the session id type
/// used in the completed-op sets is stable (a compile-time reminder that
/// renaming fields breaks set comparison silently).
#[test]
fn completed_set_key_shape() {
    let sid = SessionId::new(NodeId(1), 2);
    assert_eq!((sid.node.0, sid.slot), (1, 2));
}
