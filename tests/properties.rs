//! End-to-end property test: for arbitrary seeds, mixes and loss rates, a
//! full simulated Kite deployment must produce RCLin-correct histories and
//! quiesce. This is the closest thing to a model checker in the suite —
//! `kite_verify::check` explores the space and shrinks a failing history,
//! the deterministic simulator makes failures replayable, and `check_rc`
//! validates the §5.1 axioms.

use std::sync::Arc;

use kite::api::Op;
use kite::session::SessionDriver;
use kite::{ProtocolMode, SimCluster};
use kite_common::rng::SplitMix64;
use kite_common::{ClusterConfig, Key, NodeId, Val};
use kite_repro::testutil::{recording_hook, rmw_bases};
use kite_simnet::SimCfg;
use kite_verify::check::check;
use kite_verify::{check_rc, History};

const SEC: u64 = 1_000_000_000;
/// `ClusterConfig::small()`: 3 nodes × 2 sessions.
const SESSIONS: u64 = 6;

/// Session `me`'s op number `seq`, from two draws: the key, then the kind.
fn session_op(me: u64, seq: u64, mut below: impl FnMut(u64) -> u64) -> Op {
    // unique written values: (session+1) << 40 | seq
    let tag = (me + 1) << 40 | (seq + 1);
    let key = Key(below(8)); // small key space: contention
    match below(5) {
        0 => Op::Write { key, val: Val::from_u64(tag) },
        1 => Op::Release { key: Key(100 + key.0), val: Val::from_u64(tag) },
        2 => Op::Acquire { key: Key(100 + key.0) },
        3 => Op::Read { key },
        _ => Op::Faa { key: Key(200), delta: 1 },
    }
}

/// Every session's `n` ops, drawn from a per-session stream of `seed`.
fn seeded_ops(seed: u64, n: u64) -> Vec<Vec<Op>> {
    (0..SESSIONS)
        .map(|me| {
            let mut rng = SplitMix64::new(seed ^ (me + 1).wrapping_mul(0x9E37_79B9));
            (0..n).map(|seq| session_op(me, seq, |b| rng.next_below(b))).collect()
        })
        .collect()
}

/// Run `ops[session]` on every session (indexed by `SessionId::global_idx`)
/// of a simulated cluster with jitter seed `seed` and `drop_pct` % loss.
fn run_random_cluster(seed: u64, drop_pct: u8, ops: Vec<Vec<Op>>) -> (History, bool, u64) {
    let cfg = ClusterConfig::small().keys(256).release_timeout_ns(200_000);
    let history = Arc::new(History::new());
    let mut sc = SimCluster::build(
        cfg,
        ProtocolMode::Kite,
        SimCfg { seed, ..Default::default() },
        |sid| {
            let mine = ops[sid.global_idx(2)].clone();
            SessionDriver::Script(Box::new(move |seq| mine.get(seq as usize).cloned()))
        },
        Some(recording_hook(Arc::clone(&history))),
    );
    if drop_pct > 0 {
        for a in 0..3u8 {
            for b in 0..3u8 {
                if a != b {
                    sc.sim.set_drop(NodeId(a), NodeId(b), drop_pct as f64 / 100.0);
                }
            }
        }
    }
    let quiesced = sc.run_until_quiesce(120 * SEC);
    // Under loss, a replica outside the final commit's quorum may lag (RMWs
    // guarantee *quorum* visibility); the freshest replica carries the count.
    let faa_total = (0..3u8)
        .map(|n| sc.shared(NodeId(n)).store.view(Key(200)).val.as_u64())
        .max()
        .unwrap();
    drop(sc); // release the workers' hook clones
    (Arc::try_unwrap(history).expect("sole owner"), quiesced, faa_total)
}

/// Regression: this seed once double-executed an FAA — the owner's retry
/// learned "already committed" from a replica whose ring lacked the entry
/// and re-proposed at a fresh slot. Fixed by consulting the committed ring
/// on *every* propose (see `kite::replica::on_propose`).
#[test]
fn regression_helped_rmw_not_double_executed() {
    let seed = 5045243573331255454;
    let (history, quiesced, faa_total) = run_random_cluster(seed, 26, seeded_ops(seed, 8));
    assert!(quiesced);
    assert_eq!(history.len(), 48, "every op completes");
    let bases = rmw_bases(&history);
    let n = bases.len() as u64;
    assert_eq!(bases, (0..n).collect::<Vec<_>>(), "FAA bases must be contiguous (no double/lost execution)");
    assert_eq!(faa_total, n);
    assert_eq!(check_rc(&history), Ok(()));
}

/// Whatever the seed, the loss rate (up to 30%) and the sessions' op
/// lists, the execution quiesces, satisfies RCLin, and loses or duplicates
/// no RMW.
#[test]
fn random_executions_satisfy_rclin() {
    // Each case runs a full simulated cluster; keep the count modest.
    check(10, |src| {
        let (seed, drop_pct) = (src.u64(), src.below(30) as u8);
        // 0–16 ops per session, 8 on average.
        let ops: Vec<Vec<Op>> = (0..SESSIONS)
            .map(|me| {
                let mut seq = 0;
                src.vec(0..17, |s| {
                    seq += 1;
                    session_op(me, seq - 1, |b| s.below(b))
                })
            })
            .collect();
        let total: usize = ops.iter().map(Vec::len).sum();
        let (history, quiesced, faa_total) = run_random_cluster(seed, drop_pct, ops);
        assert!(quiesced, "seed {seed} drop {drop_pct}% failed to quiesce");
        assert_eq!(history.len(), total, "all ops must complete");
        // FAA exactly-once: observed bases form a contiguous sequence.
        let bases = rmw_bases(&history);
        let n = bases.len() as u64;
        assert_eq!(bases, (0..n).collect::<Vec<_>>(), "double or lost FAA execution ({total} ops)");
        assert_eq!(faa_total, n, "store count disagrees with completions");
        if let Err(e) = check_rc(&history) {
            panic!("RCLin violated (seed {seed}, drop {drop_pct}%): {e:?}");
        }
    });
}
