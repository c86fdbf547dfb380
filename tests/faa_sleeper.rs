//! ROADMAP direction 6: "an FAA whose proposer sleeps is applied twice".
//!
//! The referee's `sim_sleep_heal` deployment (`benchmark/README.md`,
//! §"Finding") with the exemption removed: **every** node — the sleeper
//! included — runs one session that bumps a shared counter by fetch-and-add
//! once every `PERIOD` ops, node 4 sleeps three times for 30 ms, and at the
//! end the counter must equal the number of acknowledged FAAs with no
//! pre-image handed out twice. It was red while the per-key dedup evidence
//! was a 32-deep FIFO ring (the other nodes' FAAs evicted the sleeper's
//! helped one before its owner retried it), and green once a session's
//! latest commit became one entry that only that session replaces
//! (`kite_kvs::CommittedRing`).
//!
//! The same deployment with **all 80 sessions** adding is the at-scale
//! case: while a ring kept at most 32 sessions per key, the lowest-slot
//! entry went to make room for a 33rd, and the counter ended one above its
//! acknowledged FAAs on 7 of 40 seeds. A key now keeps every session's
//! last commit, so the ring's final length is the number of sessions that
//! ever added.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use kite::api::{CompletionHook, Op, OpOutput};
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, Key, NodeId};
use kite_simnet::SimCfg;
use kite_workloads::MixCfg;

const MS: u64 = 1_000_000;
/// The counter sits far above the mix's key space.
const COUNTER: Key = Key(1 << 40);
/// Session slot (per node) that carries the FAAs, and how often.
const FAA_SLOT: usize = 2;
const PERIOD: u64 = 64;
const SLEEPER: NodeId = NodeId(4);
const SLEEP_MS: u64 = 30;
const AWAKE_MS: u64 = 40;

/// What one run observed.
struct Outcome {
    acked: u64,
    duplicate_preimages: usize,
    /// The counter's final value on every replica.
    counters: Vec<u64>,
    /// Per replica: entries in the counter key's committed ring — one per
    /// session that ever added, on a replica that learned of every commit.
    ring_len: Vec<u64>,
}

/// Which sessions add to the counter.
#[derive(Clone, Copy)]
enum Adders {
    /// Slot `FAA_SLOT` of every node: five sessions.
    OnePerNode,
    /// Every session of the deployment: 80, more than the 32 sessions a
    /// key's ring used to keep.
    Every,
}

fn run(seed: u64, adders: Adders) -> Outcome {
    let keys = 1 << 14;
    let cfg = ClusterConfig::default()
        .nodes(5)
        .workers_per_node(2)
        .sessions_per_worker(8)
        .keys(keys)
        .release_timeout_ns(5 * MS)
        .retransmit_ns(8 * MS);
    let mix = MixCfg {
        write_ratio: 0.05,
        sync_frac: 0.05,
        rmw_frac: 0.0,
        keys: keys as u64,
        val_len: 32,
        skew_theta: 0.0,
    };
    let spn = cfg.sessions_per_node();
    let nodes = cfg.nodes;
    let stop = Arc::new(AtomicBool::new(false));
    let preimages: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let hook: CompletionHook = {
        let preimages = Arc::clone(&preimages);
        Arc::new(move |c| {
            if let (Op::Faa { .. }, OpOutput::Faa(old)) = (&c.op, &c.output) {
                preimages.lock().expect("sim is single-threaded").push(*old);
            }
        })
    };
    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        SimCfg { seed, ..SimCfg::default() },
        |sid| {
            let idx = sid.global_idx(spn);
            let mut next = mix.generator(seed ^ ((idx as u64 + 1) * 0x9E37));
            let faa = match adders {
                Adders::OnePerNode => idx % spn == FAA_SLOT,
                Adders::Every => true,
            };
            let stop = Arc::clone(&stop);
            // ordering: Relaxed — the simulator runs on this one thread.
            SessionDriver::Script(Box::new(move |seq| {
                if stop.load(Ordering::Relaxed) {
                    None
                } else if faa && seq % PERIOD == PERIOD / 2 {
                    Some(Op::Faa { key: COUNTER, delta: 1 })
                } else {
                    next(seq)
                }
            }))
        },
        Some(hook),
    );

    sc.run_for(20 * MS);
    for _ in 0..3 {
        sc.sim.sleep_node(SLEEPER, SLEEP_MS * MS);
        sc.run_for((SLEEP_MS + AWAKE_MS) * MS);
    }
    // Stop the load; every started op completes and the replicas converge.
    stop.store(true, Ordering::Relaxed);
    assert!(sc.run_until_quiesce(sc.now() + 20_000 * MS), "seed {seed}: cluster did not quiesce");

    let preimages = preimages.lock().expect("no other holder");
    let distinct: HashSet<u64> = preimages.iter().copied().collect();
    let per_node = |f: &dyn Fn(NodeId) -> u64| (0..nodes).map(|n| f(NodeId(n as u8))).collect();
    Outcome {
        acked: preimages.len() as u64,
        duplicate_preimages: preimages.len() - distinct.len(),
        counters: per_node(&|n| sc.shared(n).store.view(COUNTER).val.as_u64()),
        ring_len: per_node(&|n| sc.shared(n).store.paxos(COUNTER).lock().committed.len() as u64),
    }
}

fn check(seed: u64, adders: Adders) -> Result<(), String> {
    let o = run(seed, adders);
    let exact = o.counters.iter().all(|&c| c == o.acked);
    if exact && o.duplicate_preimages == 0 {
        return Ok(());
    }
    Err(format!(
        "seed {seed}: {} FAAs acknowledged, counter per replica {:?}, {} duplicate pre-images, \
         counter ring length per replica {:?}",
        o.acked, o.counters, o.duplicate_preimages, o.ring_len
    ))
}

/// First failing seed of a scan over 1..=12 at `b701804` (the counter ended at 1327 with 1326
/// FAAs acknowledged; `CHANGES.md`, PR 21, has the eviction trace). 21 was the other failure in
/// 1..=40 at `8482bf1`.
const ONCE_FAILING_SEED: u64 = 8;

#[test]
fn faa_counter_is_exact_when_the_proposer_sleeps() {
    check(ONCE_FAILING_SEED, Adders::OnePerNode).unwrap();
}

/// ROADMAP direction 6's "green across ≥ 200 seeds" (≈ 2.7 s a seed in release: run by
/// `scripts/stress.sh`, not by tier-1). Prints every failing seed before failing.
#[test]
#[ignore = "soak: ~10 min in release; scripts/stress.sh runs it"]
fn faa_counter_is_exact_across_200_seeds() {
    soak(Adders::OnePerNode);
}

/// First of the seeds on which the every-session deployment broke the counter while a key's
/// ring kept at most 32 sessions (2, 3, 17, 19, 29, 34 and 35 of 1..=40).
const RING_CAP_FAILING_SEED: u64 = 2;

#[test]
fn faa_counter_is_exact_when_every_session_adds() {
    check(RING_CAP_FAILING_SEED, Adders::Every).unwrap();
}

/// The seed on which the every-session deployment never quiesced: a retried RMW found its op
/// committed and completed it after the worker had pumped its sessions, and with nothing else in
/// flight the worker slept for good with that session runnable (`Worker::on_tick`).
const LOST_WAKEUP_SEED: u64 = 121;

#[test]
fn a_session_woken_after_the_pump_is_pumped() {
    check(LOST_WAKEUP_SEED, Adders::Every).unwrap();
}

/// The every-session deployment across 200 seeds (run by `scripts/stress.sh`).
#[test]
#[ignore = "soak: ~2 min in release; scripts/stress.sh runs it"]
fn faa_counter_is_exact_across_200_seeds_when_every_session_adds() {
    soak(Adders::Every);
}

/// Seeds 1..=200, every failing one printed before the test fails.
fn soak(adders: Adders) {
    let failures: Vec<String> = (1..=200).filter_map(|seed| check(seed, adders).err()).collect();
    for f in &failures {
        eprintln!("{f}");
    }
    assert!(failures.is_empty(), "{} of 200 seeds failed", failures.len());
}
