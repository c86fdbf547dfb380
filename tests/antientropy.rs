//! Anti-entropy / read-repair: convergence sufficiency, protocol
//! equivalence, and steady-state traffic bounds.
//!
//! The headline scenario is the §8.4 sleeper taken one step further than
//! the fault swarm in `chaos.rs` goes: a replica is cut off (partition +
//! sleep) through a key's **last** RMW commit, then wakes into a 20%-lossy
//! network. Nothing in the request path will ever resend that commit, and
//! no finished round pushes its value to stragglers — convergence must
//! come from the periodic digest sweep alone.

use std::sync::Arc;

use kite::api::Op;
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, Lc, NodeId, SessionId, Val};
use kite_repro::testutil::{mixed_script, recording_hook, swarm::Fault::*, swarm::*};
use kite_simnet::SimCfg;
use kite_verify::History;
use kite_workloads::{run_kite_mix, MixCfg};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;

/// Small store + fast sweeps so a full anti-entropy cycle is a few hundred
/// microseconds of virtual time.
fn ae_cfg() -> ClusterConfig {
    ClusterConfig::small()
        .keys(256)
        .release_timeout_ns(200_000)
        .anti_entropy_interval_ns(100_000)
        .anti_entropy_chunk(256)
}

/// A replica sleeps through a key's last commit: the periodic sweep is
/// the only way it converges, so it must be *sufficient*. After
/// healing to 20% loss (sweeps must survive drops too), every replica ends
/// with the final FAA value and the caught-up Paxos slot.
///
/// The woken replica holds no slot (not even a claim) for the key it slept
/// through, so only its zero-entry resync ping — "I advertise empty, push
/// me" — can re-arm the peers' wound-down sweeps. The peers are idle, so
/// they sweep with summaries; those mismatch the sleeper's lattice and the
/// drill-down pulls the key in.
#[test]
fn sleeping_replica_converges_by_anti_entropy_alone() {
    const FAAS: u64 = 5;
    let key = Key(7);
    let sleeper = NodeId(2);
    let mut sc = SimCluster::build(
        ae_cfg(),
        ProtocolMode::Kite,
        SimCfg { seed: 9, ..Default::default() },
        |sid| {
            if sid == SessionId::new(NodeId(0), 0) {
                SessionDriver::Script(Box::new(move |seq| {
                    (seq < FAAS).then_some(Op::Faa { key, delta: 1 })
                }))
            } else {
                SessionDriver::Idle
            }
        },
        None,
    );
    // Cut the sleeper off completely (a partition models send-side loss of
    // every copy — the §8.4 sleep buffers instead of losing, so the sleep
    // alone cannot make it *miss* the commit) and put it to sleep for the
    // whole op phase.
    sc.sim.partition(sleeper, NodeId(0));
    sc.sim.partition(sleeper, NodeId(1));
    sc.sim.sleep_node(sleeper, 20 * MS);
    sc.run_for(20 * MS);
    assert_eq!(sc.total_completed(), FAAS, "FAAs must commit against the majority");
    // Non-claiming probe on purpose: the sleeper must not even hold a
    // *slot* for the key, so its own digests can never advertise the gap —
    // convergence has to come from the post-wake resync ping re-arming the
    // peers' (already wound-down) sweeps.
    assert_eq!(
        sc.shared(sleeper).store.probe_lc(key),
        None,
        "sleeper must have missed the key entirely for the scenario to be meaningful"
    );

    // Wake into a 20%-lossy (not healed-perfect) network: sweeps repeat, so
    // loss delays repair but must not defeat it. No further client ops run
    // — any convergence now is anti-entropy's doing alone.
    for (a, b) in [(sleeper, NodeId(0)), (sleeper, NodeId(1))] {
        sc.sim.set_drop(a, b, 0.2);
        sc.sim.set_drop(b, a, 0.2);
    }
    let dropped = sc.sim.dropped;
    assert!(sc.run_until_quiesce(600 * SEC), "anti-entropy must converge and wind down");
    // The loss met the sweep's traffic: no client op runs in this phase.
    assert!(sc.sim.dropped > dropped, "the lossy phase dropped nothing: the sweep met no loss");

    for n in 0..3u8 {
        let sh = sc.shared(NodeId(n));
        assert_eq!(
            sh.store.view(key).val.as_u64(),
            FAAS,
            "replica {n} must converge on the final FAA value"
        );
        assert_eq!(
            sh.store.paxos_next_slot(key),
            FAAS,
            "replica {n} must catch its Paxos slot up past the decided prefix"
        );
    }
    let repaired = sc.shared(sleeper).counters.ae_repairs_applied.get();
    assert!(repaired > 0, "the sleeper must have been healed by repair values");
    let summaries: u64 = (0..3).map(|n| sc.counters(NodeId(n)).ae_summaries_sent.get()).sum();
    let drills: u64 = (0..3).map(|n| sc.counters(NodeId(n)).ae_merkle_reqs.get()).sum();
    assert!(summaries > 0, "divergence must have been found through summaries");
    assert!(drills > 0, "... and localized through drill-downs");
}

/// RMWs under uniform 20% loss from the start, on every link: replicas
/// still converge on the last commit.
#[test]
fn lossy_run_converges_under_uniform_loss() {
    let key = Key(3);
    let mut sc = SimCluster::build(
        ae_cfg(),
        ProtocolMode::Kite,
        SimCfg { seed: 17, ..Default::default() },
        |sid| {
            if sid.node == NodeId(0) {
                SessionDriver::Script(Box::new(move |seq| {
                    (seq < 4).then_some(Op::Faa { key, delta: 1 })
                }))
            } else {
                SessionDriver::Idle
            }
        },
        None,
    );
    for a in 0..3u8 {
        for b in 0..3u8 {
            if a != b {
                sc.sim.set_drop(NodeId(a), NodeId(b), 0.2);
            }
        }
    }
    assert!(sc.run_until_quiesce(600 * SEC));
    let expected = sc.shared(NodeId(0)).store.view(key).val.as_u64();
    assert!(expected > 0);
    for n in 1..3u8 {
        assert_eq!(
            sc.shared(NodeId(n)).store.view(key).val.as_u64(),
            expected,
            "replica {n} diverged under loss"
        );
    }
}

/// Equivalence: anti-entropy changes no protocol outcome. A faulted run
/// (loss on two directed links and a slow third, from the first op) with it
/// on completes every operation and passes the judge, and so does the run
/// with it off. Retransmits every 500 µs keep every op inside the faults: at
/// the default 2 ms one run goes the runner's stall time without a
/// completion, and the runner heals with ops outstanding. 32 ops per session
/// keep key 3's releases and acquires (60) within the per-key checker's 63.
#[test]
fn anti_entropy_on_off_equivalence_under_faults() {
    let events = vec![(0, Loss(0, 2, 25)), (0, Loss(1, 0, 25)), (0, Delay(2, 1, 40))];
    for seed in [5u64, 23] {
        let digests = |on: bool| {
            let cfg = ae_cfg().keys(1 << 10).retransmit_ns(500_000).anti_entropy(on);
            let scripts = (0..6).map(|s| mixed_script(s, 32)).collect();
            let case = Case { cfg, seed, victim: 0, scripts, events: events.clone() };
            let out = literal(&case);
            judge(&case, &out);
            let heal = out.fired[3];
            assert!(heal.on_count, "seed {seed}, sweep {on}: faults healed on a stall: {heal:?}");
            (0..3).map(|n| out.sc.counters(NodeId(n)).ae_digests_sent.get()).sum::<u64>()
        };
        assert!(digests(true) > 0, "seed {seed}: sweeps must actually run");
        assert_eq!(digests(false), 0, "seed {seed}: kill switch must kill the sweep");
    }
}

/// After quiescing with anti-entropy on, the faulted mixed run leaves all
/// replicas byte-identical on the touched keys — the "replicas converge
/// through the sweep alone" invariant.
#[test]
fn quiescence_implies_store_convergence() {
    let scripts = (0..6).map(|s| mixed_script(s, 32)).collect();
    let events = vec![(0, Loss(1, 2, 30)), (0, Loss(2, 1, 30))];
    let case = Case { cfg: ae_cfg().keys(1 << 10), seed: 31, victim: 0, scripts, events };
    let out = literal(&case);
    judge(&case, &out);
    for key in [Key(3), Key(5), Key(10), Key(11), Key(12), Key(13), Key(14)] {
        let views: Vec<(u64, u64)> = (0..3u8)
            .map(|n| {
                let sh = out.sc.shared(NodeId(n));
                (sh.store.view(key).val.as_u64(), sh.store.paxos_next_slot(key))
            })
            .collect();
        assert!(
            views.windows(2).all(|w| w[0] == w[1]),
            "{key:?} diverged across replicas after quiescence: {views:?}"
        );
    }
}

/// Steady-state digest traffic is negligible: < 0.01 anti-entropy messages
/// per completed operation at 0% loss on the paper-shaped deployment mix.
#[test]
fn digest_traffic_negligible_at_zero_loss() {
    let cfg = ClusterConfig::default().keys(1 << 12).sessions_per_worker(2).workers_per_node(1);
    let keys = cfg.keys as u64;
    for (name, mode, mix) in [
        ("kite_writes", ProtocolMode::Kite, MixCfg::plain(1.0, keys)),
        ("kite_typical", ProtocolMode::Kite, MixCfg::typical(0.2, keys)),
    ] {
        let r = run_kite_mix(
            cfg.clone(),
            mode,
            SimCfg { seed: 42, ..Default::default() },
            mix,
            2 * MS,
            10 * MS,
        );
        assert!(r.total_completed > 0);
        let per_op = r.ae_msgs as f64 / r.total_completed as f64;
        assert!(
            per_op < 0.01,
            "{name}: anti-entropy traffic must be negligible, got {per_op:.5} msgs/op \
             ({} ae msgs / {} ops)",
            r.ae_msgs,
            r.total_completed
        );
    }
}

/// The headline byte win, at a store size where it matters: a 100k-key
/// store with exactly one diverged key. A flat sweep must advertise every
/// key of every swept chunk to find it — one cycle ships every key to
/// every peer, O(store) digest bytes — while the idle nodes' summaries
/// localize it through O(log store) summary/drill-down bytes. The key must
/// heal; the byte ratio against one flat cycle is the point.
#[test]
fn large_store_single_divergence_heals_with_fraction_of_flat_bytes() {
    const KEYS: u64 = 100_000;
    const PEERS: u64 = 2;
    let stale_key = Key(777);
    let mut sc = SimCluster::build(
        ClusterConfig::small()
            .keys(KEYS as usize) // capacity 150 016
            .release_timeout_ns(200_000)
            .anti_entropy_interval_ns(100_000),
        ProtocolMode::Kite,
        SimCfg { seed: 21, ..Default::default() },
        |_| SessionDriver::Idle,
        None,
    );
    // All three replicas hold the full preloaded key set...
    for n in 0..3u8 {
        let store = &sc.shared(NodeId(n)).store;
        for k in 0..KEYS {
            store.apply_max(Key(k), &Val::from_u64(k + 1), Lc::new(1, NodeId(0)));
        }
    }
    // ... but replica 2 missed one key's last write.
    for n in 0..2u8 {
        let store = &sc.shared(NodeId(n)).store;
        store.apply_max(stale_key, &Val::from_u64(0xD00D), Lc::new(2, NodeId(1)));
    }
    assert!(sc.run_until_quiesce(600 * SEC), "must converge and wind down");
    for n in 0..3u8 {
        assert_eq!(
            sc.shared(NodeId(n)).store.view(stale_key).val.as_u64(),
            0xD00D,
            "replica {n} must heal the diverged key"
        );
    }
    let sum = |f: fn(&kite_common::stats::ProtoCounters) -> u64| -> u64 {
        (0..3).map(|n| f(sc.counters(NodeId(n)))).sum()
    };
    let bytes = sum(|c| c.ae_digest_bytes.get());
    let summaries = sum(|c| c.ae_summaries_sent.get());
    let drills = sum(|c| c.ae_merkle_reqs.get());
    // One node's flat cycle: every key, 16 wire bytes each, to every peer.
    let flat_cycle = KEYS * 16 * PEERS;
    println!(
        "digest plane for one diverged key in 100k: {bytes} B ({summaries} summaries, \
         {drills} drill-downs) against {flat_cycle} B for one node's flat cycle ({}x)",
        flat_cycle / bytes.max(1)
    );
    assert!(summaries > 0 && drills > 0, "the idle nodes must heal through summaries");
    // The whole cluster's digest bytes — birth sweeps, summaries and the
    // drill-down path — against a single node's flat cycle.
    assert!(
        flat_cycle >= 10 * bytes,
        "summaries must cut digest bytes ≥ 10× below one flat cycle on a 100k-key store: \
         {bytes} B vs {flat_cycle} B ({}x)",
        flat_cycle / bytes.max(1)
    );
}

/// Each sweep picks its digest plane from its node's write churn. While a
/// write load applies more writes per interval than the store's lattice has
/// leaves, sweeps ship flat chunks and not one summary; once the load
/// stops, the idle nodes summarize, and the cluster winds down one Merkle
/// cycle after the last completion — not one flat walk of the store.
#[test]
fn sweeps_go_flat_under_churn_and_summarize_once_idle() {
    const WRITES: u64 = 2_000;
    let cfg = ae_cfg().keys(1 << 12); // capacity 6 144: 96 leaves, summary level 1
    let interval = cfg.anti_entropy_interval_ns;
    let history = Arc::new(History::new());
    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        SimCfg { seed: 3, ..Default::default() },
        |sid| {
            let base = sid.node.idx() as u64 * 1_000 + sid.slot as u64 * 500;
            SessionDriver::Script(Box::new(move |seq| {
                let (key, val) = (Key(base + seq % 500), Val::from_u64(seq + 1));
                (seq < WRITES).then_some(Op::Write { key, val })
            }))
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    let planes = |sc: &SimCluster| -> (u64, u64) {
        let sum = |f: fn(&kite_common::stats::ProtoCounters) -> u64| -> u64 {
            (0..3).map(|n| f(sc.counters(NodeId(n)))).sum()
        };
        (sum(|c| c.ae_digests_sent.get()), sum(|c| c.ae_summaries_sent.get()))
    };
    sc.run_for(MS);
    let total = 6 * WRITES;
    let loaded = planes(&sc);
    assert!(sc.total_completed() < total, "the load must still be running");
    assert!(loaded.0 > 0, "loaded sweeps must ship flat chunks");
    assert_eq!(loaded.1, 0, "loaded sweeps must not summarize");

    assert!(sc.run_until_quiesce(60 * SEC), "must wind down");
    assert_eq!(sc.total_completed(), total);
    let idle = planes(&sc);
    let last = history.sorted().iter().map(|r| r.complete).max().unwrap();
    let store = &sc.shared(NodeId(0)).store;
    let leaves = store.merkle_leaves() as u64;
    assert_eq!(leaves * 64, store.capacity() as u64, "whole 64-slot leaves");
    assert!(leaves > 16 && leaves <= 16 * 16, "{leaves} leaves must summarize at level 1");
    let top_level = 1; // 96 leaves fold into 6 buckets at level 1
    assert!(idle.1 > 0, "idle sweeps must summarize");
    // The cool-down is `top_level + 5` intervals from the first idle tick,
    // which follows the last completion by the acks of its last writes:
    // one more interval covers that tail. A flat walk of this store is 24.
    assert!(
        sc.now() - last <= (top_level + 6) * interval,
        "the wind-down took {} ns after the last completion: more than a Merkle cycle",
        sc.now() - last
    );
}

/// Drill-down persistence filter: under an active mixed workload at zero
/// loss, every top-level mismatch a peer observes is a summary racing an
/// in-flight write — there is no durable divergence to heal. Requiring the
/// same bucket to mismatch on two *consecutive* sweeps before drilling
/// cuts the drill-down churn traffic several-fold (the race has to
/// re-dirty the very same bucket one interval later to get through), while
/// real divergence — sticky by definition — still drills one interval
/// later (liveness is pinned by the sleeper and large-store tests above).
#[test]
fn merkle_drill_downs_bounded_under_transient_churn() {
    let history = Arc::new(History::new());
    let mut sc = SimCluster::build(
        ae_cfg().keys(1 << 10),
        ProtocolMode::Kite,
        SimCfg { seed: 13, ..Default::default() },
        |sid| kite_repro::testutil::mixed_fault_driver(sid, 5, 40),
        Some(recording_hook(Arc::clone(&history))),
    );
    assert!(sc.run_until_quiesce(60 * SEC), "churn run must quiesce");
    let completed = history.sorted().len() as u64;
    assert!(completed > 0, "the mixed workload must complete operations");
    let summaries: u64 = (0..3).map(|n| sc.counters(NodeId(n)).ae_summaries_sent.get()).sum();
    let drills: u64 = (0..3).map(|n| sc.counters(NodeId(n)).ae_merkle_reqs.get()).sum();
    assert!(summaries > 0, "active writes must arm sweeps and ship summaries");
    // Calibration at this seed: without the persistence filter the run
    // drills 43 times across 153 summaries (the mixed workload's five hot
    // keys keep the same top bucket racing on most sweeps); with it, 13
    // drills across 118 summaries — fewer drills also means fewer
    // re-arms, so the sweep plane itself winds down sooner. The bound
    // sits between the two with margin on both sides.
    assert!(
        drills <= 25,
        "persistence filter must bound transient-churn drill-downs: {drills} drills \
         over {summaries} summaries / {completed} ops (unfiltered baseline: 43)"
    );
    println!("churn drill plane: {drills} drills / {summaries} summaries / {completed} ops");
}

/// The ROADMAP's idle-divergence gap, closed by `anti_entropy_keepalive_ns`:
/// a replica partitioned away through a key's last release — with *no*
/// client traffic ever again — must converge at heal time via the
/// low-frequency keepalive sweep. The control run (keepalive off) shows the
/// gap is real: activity-driven sweeps have wound down by heal time, so the
/// replica stays stale indefinitely.
#[test]
fn idle_divergence_heals_only_with_keepalive() {
    let key = Key(11);
    let run = |keepalive_ns: u64| -> u64 {
        let stale = NodeId(2);
        let mut sc = SimCluster::build(
            ae_cfg().anti_entropy_keepalive_ns(keepalive_ns),
            ProtocolMode::Kite,
            SimCfg { seed: 31, ..Default::default() },
            |sid| {
                if sid == SessionId::new(NodeId(0), 0) {
                    SessionDriver::Script(Box::new(move |seq| {
                        (seq == 0).then_some(Op::Release { key, val: 0xCAFE_u64.into() })
                    }))
                } else {
                    SessionDriver::Idle
                }
            },
            None,
        );
        sc.sim.partition(stale, NodeId(0));
        sc.sim.partition(stale, NodeId(1));
        // Op phase + every sweep cool-down lapses while the partition is
        // up: by heal time the cluster is fully idle (cool-down for the
        // ae_cfg store is ~0.5 ms of virtual time; give it 100 ms).
        sc.run_for(100 * MS);
        assert_eq!(sc.total_completed(), 1, "release must complete against the majority");
        assert_eq!(
            sc.shared(stale).store.probe_lc(key),
            None,
            "partitioned replica must have missed the release entirely"
        );
        sc.sim.heal(stale, NodeId(0));
        sc.sim.heal(stale, NodeId(1));
        // No client activity after the heal: convergence can only come
        // from idle-time keepalive sweeps.
        sc.run_for(200 * MS);
        sc.shared(stale).store.view(key).val.as_u64()
    };

    assert_eq!(
        run(0),
        0,
        "control: with the keepalive off, an idle cluster must NOT converge the \
         stale replica (activity-driven sweeps wound down before the heal) — if \
         this fails the keepalive test below proves nothing"
    );
    assert_eq!(run(10 * MS), 0xCAFE, "keepalive sweep must converge the replica at heal time");
}
