//! Divergence-fuzzing harness for the Merkle summary plane.
//!
//! Summaries are an *optimization of how divergence is found*, never of
//! what gets repaired — so for any divergence pattern whatsoever, the sweep
//! must converge the cluster to the state LLC-max forces: the
//! highest-stamped copy of every key wins everywhere. This harness fuzzes
//! random per-replica divergence patterns — missing keys, stale clocks,
//! empty stores, single-key stores — plants them directly in the replicas'
//! stores once the birth-time sweep (always flat: it follows a wake) has
//! gone by, so the idle nodes' summaries do the healing on the
//! deterministic simulator, and asserts:
//!
//! * the sweep quiesces with every replica holding the LLC-max winner of
//!   every key (and still missing the keys nobody held);
//! * the drill-down message count is O(diverged · log store) — and exactly
//!   **zero** when the replicas are identical, the property that makes
//!   summary sweeps O(log store) bytes at steady state;
//! * summaries ship no flat digest keys beyond the drill-down leaves
//!   (`ae_digest_keys` does not move on converged stores).

use std::collections::BTreeMap;

use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, Lc, NodeId, Val};
use kite_simnet::SimCfg;
use kite_verify::check::{check, Src};

const SEC: u64 = 1_000_000_000;
const NODES: usize = 3;

/// How one key is placed on each replica: `None` = the replica never saw
/// it; `Some((version, owner))` = it holds the value stamped
/// `Lc::new(version, owner)`.
#[derive(Clone, Debug)]
struct KeyPlan {
    key: u64,
    state: [Option<(u64, u8)>; NODES],
}

impl KeyPlan {
    /// The LLC-max winner every replica must converge to (None if nobody
    /// holds the key).
    fn expected(&self) -> Option<(u64, u8)> {
        self.state
            .iter()
            .flatten()
            .copied()
            .max_by_key(|&(v, o)| Lc::new(v, NodeId(o)))
    }

    /// Does any replica disagree with any other on this key?
    fn diverged(&self) -> bool {
        self.state.windows(2).any(|w| w[0] != w[1])
    }
}

#[derive(Clone, Debug)]
struct DivergencePlan {
    keys: Vec<KeyPlan>,
    seed: u64,
}

/// The (unique-per-stamp) value a replica holds for `key` at `(v, o)` —
/// derived, so two replicas holding the same stamp hold the same bytes.
fn val_for(key: u64, v: u64, o: u8) -> Val {
    Val::from_u64((key << 20) ^ (v << 8) ^ (o as u64 + 1))
}

fn plan(src: &mut Src) -> DivergencePlan {
    // Edge cases get their own arms: empty stores and single-key
    // stores are exactly where "advertise nothing" asymmetries hide.
    let nkeys = match src.below(8) {
        0 => 0,
        1 => 1,
        _ => 2 + src.below(23),
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut keys = Vec::new();
    for _ in 0..nkeys {
        let key = src.u64() >> 1; // avoid the reserved u64::MAX
        if !seen.insert(key) {
            continue;
        }
        let latest_v = 2 + src.below(5);
        let latest_o = src.below(NODES as u64) as u8;
        let mut state = [None; NODES];
        for slot in state.iter_mut() {
            *slot = match src.below(4) {
                0 => None, // missing: the replica slept through the key
                1 => {
                    // stale: an earlier stamp of the same key
                    let v = 1 + src.below(latest_v - 1);
                    Some((v, src.below(NODES as u64) as u8))
                }
                _ => Some((latest_v, latest_o)),
            };
        }
        keys.push(KeyPlan { key, state });
    }
    DivergencePlan { keys, seed: src.u64() | 1 }
}

/// Final per-replica store content over the plan's keys, read with the
/// non-claiming probe so the readback itself cannot perturb the store.
type StoreState = Vec<BTreeMap<u64, (Lc, u64)>>;

struct RunOut {
    state: StoreState,
    merkle_reqs: u64,
    summaries: u64,
    digest_keys: u64,
}

/// 16 384 keys: capacity 24 576, 384 leaves of 64 home slots; fanout 16
/// puts the summary at level 2, so a drill-down descends 2 levels to a leaf.
const KEYS: usize = 1 << 14;
const LEVELS: u64 = 3;
const INTERVAL: u64 = 50_000;

fn converge(plan: &DivergencePlan) -> RunOut {
    let cfg = ClusterConfig::small().keys(KEYS).anti_entropy_interval_ns(INTERVAL);
    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        SimCfg { seed: plan.seed, ..Default::default() },
        |_| SessionDriver::Idle,
        None,
    );
    // Let the birth-time sweep go by: it follows a wake, so it is flat.
    // Every sweep after it sees a few planted writes at most — far below
    // the leaf count — and summarizes.
    sc.run_for(INTERVAL);
    let sum = |sc: &SimCluster, f: fn(&kite_common::stats::ProtoCounters) -> u64| -> u64 {
        (0..NODES).map(|n| f(sc.counters(NodeId(n as u8)))).sum()
    };
    let counts = |sc: &SimCluster| {
        [
            sum(sc, |c| c.ae_merkle_reqs.get()),
            sum(sc, |c| c.ae_summaries_sent.get()),
            sum(sc, |c| c.ae_digest_keys.get()),
        ]
    };
    let before = counts(&sc);
    assert!(sum(&sc, |c| c.ae_digests_sent.get()) > 0, "the birth sweep must have run");
    assert_eq!(before[1], 0, "the sweep after a wake must be flat");
    // Plant the divergence directly in the stores (the protocols are not
    // running: this *is* the post-fault state the sweep must heal).
    for n in 0..NODES {
        let store = &sc.shared(NodeId(n as u8)).store;
        for kp in &plan.keys {
            if let Some((v, o)) = kp.state[n] {
                store.apply_max(Key(kp.key), &val_for(kp.key, v, o), Lc::new(v, NodeId(o)));
            }
        }
    }
    assert!(
        sc.run_until_quiesce(600 * SEC),
        "sweep must converge and wind down (seed={})",
        plan.seed
    );
    let state: StoreState = (0..NODES)
        .map(|n| {
            let store = &sc.shared(NodeId(n as u8)).store;
            plan.keys
                .iter()
                .filter_map(|kp| {
                    store
                        .probe_lc(Key(kp.key))
                        .filter(|&lc| lc > Lc::ZERO)
                        .map(|lc| (kp.key, (lc, store.view(Key(kp.key)).val.as_u64())))
                })
                .collect()
        })
        .collect();
    let after = counts(&sc);
    RunOut {
        state,
        merkle_reqs: after[0] - before[0],
        summaries: after[1] - before[1],
        digest_keys: after[2] - before[2],
    }
}

#[test]
fn summaries_converge_every_replica_to_the_llc_max_winner() {
    check(24, |src| {
        let plan = plan(src);
        let out = converge(&plan);
        assert!(out.summaries > 0, "idle sweeps must broadcast summaries");

        // Every replica holds exactly the LLC-max winner of every key the
        // pattern placed anywhere — and nothing at all where nobody held
        // the key.
        for kp in &plan.keys {
            let want = kp.expected().map(|(v, o)| (Lc::new(v, NodeId(o)), val_for(kp.key, v, o).as_u64()));
            for (n, st) in out.state.iter().enumerate() {
                assert_eq!(
                    st.get(&kp.key).copied(),
                    want,
                    "replica {} wrong on key {} (plan {:?})",
                    n, kp.key, kp.state
                );
            }
        }

        // Drill-down traffic is O(diverged · log store): zero when the
        // replicas agree, and bounded by a small constant per diverged key
        // per lattice level otherwise.
        let diverged = plan.keys.iter().filter(|kp| kp.diverged()).count() as u64;
        if diverged == 0 {
            assert_eq!(out.merkle_reqs, 0, "identical replicas must not drill down");
            assert_eq!(
                out.digest_keys, 0,
                "identical replicas must exchange no per-key digest entries"
            );
        } else {
            let bound = 64 * (1 + diverged * LEVELS);
            assert!(
                out.merkle_reqs <= bound,
                "drill-down blow-up: {} reqs for {} diverged keys (bound {})",
                out.merkle_reqs, diverged, bound
            );
        }
    });
}
