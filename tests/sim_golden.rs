//! Golden rows: three small seeded `SimCluster` runs whose counters and
//! final virtual time are pinned to constants **captured at the commit
//! before the due-lean worker / deadline-driven `Sim`** (`b701804`).
//!
//! The simulator is a function of its seed, so "the virtual-time rows did
//! not move by a digit" is something `cargo test -q` can check: a change to
//! the scheduler or to `Worker::on_tick` that skips a tick whose `on_tick`
//! would have done something — or runs one at a different virtual time —
//! shifts these figures. All three run continuous load for a fixed virtual
//! window (like the referee's `sim_*` workloads), so they pin the loaded
//! trajectory, not the idle wind-down behind `run_until_quiesce`.
//!
//! A protocol change that legitimately moves the trajectory re-captures the
//! constants and says so; a scheduler or bookkeeping change must not.

use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::{ClusterConfig, NodeId};
use kite_simnet::SimCfg;
use kite_workloads::MixCfg;

const MS: u64 = 1_000_000;

/// What a run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    total_completed: u64,
    delivered: u64,
    dropped: u64,
    slow_releases: u64,
    epoch_bumps: u64,
    ae_digests_sent: u64,
    now: u64,
}

fn row(sc: &SimCluster) -> Row {
    let sum = |f: fn(&kite_common::stats::ProtoCounters) -> u64| -> u64 {
        (0..sc.config().nodes).map(|n| f(sc.counters(NodeId(n as u8)))).sum()
    };
    Row {
        total_completed: sc.total_completed(),
        delivered: sc.sim.delivered,
        dropped: sc.sim.dropped,
        slow_releases: sum(|c| c.slow_releases.get()),
        epoch_bumps: sum(|c| c.epoch_bumps.get()),
        ae_digests_sent: sum(|c| c.ae_digests_sent.get()),
        now: sc.now(),
    }
}

/// Endless mix on every session, seeded per session the way
/// `kite_workloads::measure` and the referee do.
fn build(cfg: ClusterConfig, mix: MixCfg, seed: u64) -> SimCluster {
    let spn = cfg.sessions_per_node();
    SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        SimCfg { seed, ..SimCfg::default() },
        |sid| {
            let sseed = seed ^ ((sid.global_idx(spn) as u64 + 1) * 0x9E37);
            SessionDriver::Script(Box::new(mix.generator(sseed)))
        },
        None,
    )
}

/// The paper's headline mix (20 % writes, 5 % sync) plus 1 % FAAs so the
/// Paxos back-off queue is on the trajectory too.
///
/// Re-captured when the store was sized to ⌈1.5 · keys⌉ slots with
/// multiply-shift home slots (8 192 → 6 144 slots, 128 → 96 leaves): a
/// flat sweep chunk of the same slot count now covers 1/24 of the keys
/// rather than 1/32, so each digest carries more entries and costs more
/// virtual time (completed 131 286 → 130 717, delivered 232 112 → 232 224).
#[test]
fn typical_mix_row_is_pinned() {
    let keys = 1 << 12;
    let cfg = ClusterConfig::default().nodes(5).workers_per_node(2).sessions_per_worker(4).keys(keys);
    let mix = MixCfg { rmw_frac: 0.01, ..MixCfg::typical(0.2, keys as u64) };
    let mut sc = build(cfg, mix, 11);
    sc.run_for(12 * MS);
    assert_eq!(
        row(&sc),
        Row {
            total_completed: 130717,
            delivered: 232224,
            dropped: 0,
            slow_releases: 0,
            epoch_bumps: 0,
            ae_digests_sent: 80,
            now: 12 * MS,
        }
    );
}

/// §8.4: node 4 sleeps three times, with `fig9_failure`'s patient timeouts.
/// Each sleep outlasts both the release timeout (slow-path releases, epoch
/// bumps on wake-up) and four anti-entropy intervals (the sleeper's
/// "I overslept" resync).
///
/// Re-captured when each sweep began to pick its digest plane from its
/// node's write churn: the outage dip drops some nodes' churn below the
/// store's 128 leaves, so a few sweeps summarize instead of shipping a flat
/// chunk (80 `ae_summaries_sent` and 40 drill-downs over the run;
/// `ae_digests_sent` 636 → 620) and the trajectory moves with them.
///
/// Re-captured again when finished rounds stopped pushing their value to
/// suspected stragglers: what the sleeper missed now reaches it through
/// the sweep alone, and fills no longer queue at the sleeper while it
/// sleeps (completed 649 386 → 659 445, delivered 495 079 → 501 039,
/// dropped 10 088 → 9 410, slow releases 1 792 → 1 798, digests 620 → 644).
///
/// Re-captured when the store was sized to ⌈1.5 · keys⌉ slots with
/// multiply-shift home slots (128 → 96 leaves): a flat chunk covers a
/// larger share of the keys, and the plane choice compares churn against
/// fewer leaves, so more sweeps summarize (completed 659 445 → 647 937,
/// delivered 501 039 → 493 428, dropped 9 410 → 9 394, epoch bumps
/// 16 → 18, digests 644 → 628).
///
/// Re-captured when a relaxed write's lateness began to count from its
/// quorum, not from its send: a write that queued behind a busy worker no
/// longer ages toward a slow release (completed 647 937 → 658 325,
/// delivered 493 428 → 501 262, dropped 9 394 → 9 263, slow releases
/// 1 798 → 1 787).
#[test]
fn sleeping_replica_row_is_pinned() {
    let keys = 1 << 12;
    let cfg = ClusterConfig::default()
        .nodes(5)
        .workers_per_node(2)
        .sessions_per_worker(2)
        .keys(keys)
        .release_timeout_ns(5 * MS)
        .retransmit_ns(8 * MS)
        .anti_entropy_interval_ns(2 * MS);
    let mix = MixCfg {
        write_ratio: 0.05,
        sync_frac: 0.05,
        rmw_frac: 0.0,
        keys: keys as u64,
        val_len: 32,
        skew_theta: 0.0,
    };
    let mut sc = build(cfg, mix, 7);
    sc.run_for(4 * MS);
    for _ in 0..3 {
        sc.sim.sleep_node(NodeId(4), 12 * MS);
        sc.run_for(12 * MS);
        sc.run_for(8 * MS);
    }
    assert_eq!(
        row(&sc),
        Row {
            total_completed: 658325,
            delivered: 501262,
            dropped: 9263,
            slow_releases: 1787,
            epoch_bumps: 18,
            ae_digests_sent: 628,
            now: 64 * MS,
        }
    );
}

/// 10 % loss on two links (both directions): retransmission scans, the
/// slow-path barrier and anti-entropy repairs all carry load.
///
/// Re-captured when a relaxed write's lateness began to count from its
/// quorum, not from its send: a write whose quorum itself waits on a lost
/// message is not yet late (completed 55 804 → 55 880, delivered
/// 174 085 → 171 903, dropped 2 512 → 2 392, slow releases 286 → 267,
/// epoch bumps 119 → 102).
#[test]
fn lossy_links_row_is_pinned() {
    let keys = 1 << 12;
    let cfg = ClusterConfig::default().nodes(5).workers_per_node(2).sessions_per_worker(2).keys(keys);
    let mix = MixCfg { rmw_frac: 0.01, ..MixCfg::typical(0.2, keys as u64) };
    let mut sc = build(cfg, mix, 3);
    for (a, b) in [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))] {
        sc.sim.set_drop(a, b, 0.1);
        sc.sim.set_drop(b, a, 0.1);
    }
    sc.run_for(16 * MS);
    assert_eq!(
        row(&sc),
        Row {
            total_completed: 55880,
            delivered: 171903,
            dropped: 2392,
            slow_releases: 267,
            epoch_bumps: 102,
            ae_digests_sent: 120,
            now: 16 * MS,
        }
    );
}
