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

use kite::SimCluster;
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, Key, NodeId, SessionId};
use kite_repro::testutil::{mixed_script, swarm::Fault::*, swarm::*};

const OPS: u64 = 40;

/// `(flat digests, summaries)` sent so far, cluster-wide.
fn planes(sc: &SimCluster) -> (u64, u64) {
    let sum =
        |f: fn(&ProtoCounters) -> u64| -> u64 { (0..3).map(|n| f(sc.counters(NodeId(n)))).sum() };
    (sum(|c| c.ae_digests_sent.get()), sum(|c| c.ae_summaries_sent.get()))
}

/// The faulted run: 25% loss on both directions of the survivors' link from
/// the first op, and node 2 crash-stopped once 60 ops have completed, with
/// ~100 of the survivors' outstanding. Its sessions are idle (the victim of
/// a `Crash` runs none) so the run can quiesce. 256 keys make a lattice of
/// 8 leaves, and 250 µs sweeps see far more writes than that while the
/// survivors' sessions run. Retransmits every 500 µs: at the default 2 ms a
/// quorum of two over the lossy link can go the runner's stall time without
/// a completion, and the runner would then heal the loss with ops still out.
fn crash_case(seed: u64) -> Case {
    let cfg = ClusterConfig::small().keys(1 << 8).release_timeout_ns(200_000);
    let cfg = cfg.anti_entropy_interval_ns(250_000).retransmit_ns(500_000);
    let scripts = (0..6).map(|s| if s < 4 { mixed_script(s, OPS) } else { vec![] }).collect();
    let events = vec![(0, Loss(0, 1, 25)), (0, Loss(1, 0, 25)), (60, Crash)];
    Case { cfg, seed, victim: 2, scripts, events }
}

#[test]
fn sweeps_go_flat_under_load_and_summarize_in_the_wind_down() {
    for seed in [7u64, 33] {
        // The planes as the crash lands, survivor ops outstanding: the
        // loaded window.
        let (case, mut loaded) = (crash_case(seed), (0, 0));
        let out =
            literal_with(&case, |f, sc| loaded = if f == Crash { planes(sc) } else { loaded });
        judge(&case, &out);
        assert!(out.fired[2].outstanding > 0, "seed {seed}: the crash landed after the load ended");
        let heal = out.fired[3];
        assert!(heal.on_count, "seed {seed}: the loss was healed on a stall: {heal:?}");
        let end = planes(&out.sc);
        assert!(loaded.0 > 0, "seed {seed}: loaded sweeps must ship flat chunks");
        assert_eq!(loaded.1, 0, "seed {seed}: loaded sweeps must not summarize ({loaded:?})");
        assert!(end.1 > 0, "seed {seed}: the wind-down must summarize");

        // Every survivor op completed once (the judge counts them).
        let completed: BTreeSet<(u8, u32, u64)> = (out.history.sorted().iter())
            .map(|r| (r.session.node.0, r.session.slot, r.session_seq))
            .collect();
        assert_eq!(completed.len(), case.ops(), "seed {seed}: an op completed twice");
    }
}

/// Survivor stores converge after the summarizing wind-down despite the
/// loss + crash — "quiescence implies store convergence" holds whichever
/// plane the last sweeps chose (the corpse is exempt: nothing can repair a
/// crashed node).
#[test]
fn merkle_quiescence_implies_survivor_convergence() {
    let case = crash_case(19);
    let out = literal(&case);
    judge(&case, &out);
    let sc = &out.sc;
    assert!(planes(sc).1 > 0, "the wind-down must summarize");
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
