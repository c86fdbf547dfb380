//! ZAB deployments on the deterministic simulator.

use std::sync::Arc;

use kite::api::CompletionHook;
use kite::session::{sessions_for, SessionDriver};
use kite::SimCluster;
use kite_common::{ClusterConfig, SessionId};
use kite_simnet::SimCfg;

use crate::shared::ZabShared;
use crate::worker::ZabWorker;

/// A simulated ZAB deployment: each node's workers share one [`ZabShared`].
/// `drivers` and `hook` are as in [`SimCluster::build`].
pub fn sim_cluster(
    cfg: ClusterConfig,
    sim_cfg: SimCfg,
    mut drivers: impl FnMut(SessionId) -> SessionDriver,
    hook: Option<CompletionHook>,
) -> SimCluster<ZabWorker> {
    SimCluster::new(cfg.clone(), sim_cfg, |me, counters| {
        let sh = ZabShared::new(me, cfg.clone(), Arc::clone(counters));
        (0..cfg.workers_per_node)
            .map(|w| {
                let sessions = sessions_for(me, w, cfg.sessions_per_worker, &mut drivers);
                ZabWorker::new(w, Arc::clone(&sh), sessions, hook.clone())
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite::api::Op;
    use kite_common::{Key, NodeId, Val};

    /// Node `n`'s shared state.
    fn node(zc: &SimCluster<ZabWorker>, n: u8) -> &ZabShared {
        &zc.sim.actors[n as usize][0].shared
    }

    fn one_shot_writer(sid_match: SessionId, key: Key, val: u64) -> impl FnMut(SessionId) -> SessionDriver {
        move |sid| {
            if sid == sid_match {
                SessionDriver::Script(Box::new(move |seq| {
                    (seq == 0).then(|| Op::Write { key, val: Val::from_u64(val) })
                }))
            } else {
                SessionDriver::Idle
            }
        }
    }

    #[test]
    fn leader_write_reaches_all_replicas() {
        let mut zc = sim_cluster(
            ClusterConfig::small(),
            SimCfg::default(),
            one_shot_writer(SessionId::new(NodeId(0), 0), Key(5), 77),
            None,
        );
        assert!(zc.run_until_quiesce(1_000_000_000));
        for n in 0..3u8 {
            assert_eq!(node(&zc, n).store.view(Key(5)).val.as_u64(), 77);
        }
    }

    #[test]
    fn follower_write_is_forwarded_and_committed() {
        let mut zc = sim_cluster(
            ClusterConfig::small(),
            SimCfg::default(),
            one_shot_writer(SessionId::new(NodeId(2), 0), Key(6), 88),
            None,
        );
        assert!(zc.run_until_quiesce(1_000_000_000));
        for n in 0..3u8 {
            assert_eq!(node(&zc, n).store.view(Key(6)).val.as_u64(), 88);
        }
        assert_eq!(zc.total_completed(), 1);
    }

    #[test]
    fn all_nodes_apply_identical_write_order() {
        // Several sessions on several nodes write the same key; after
        // quiescence every replica must hold the same value (agreement) —
        // the total order guarantees it even without LLC arbitration.
        let mut zc = sim_cluster(
            ClusterConfig::small(),
            SimCfg::default(),
            |sid| {
                SessionDriver::Script(Box::new(move |seq| {
                    (seq < 10).then(|| Op::Write {
                        key: Key(1),
                        val: Val::from_u64(sid.global_idx(2) as u64 * 1000 + seq),
                    })
                }))
            },
            None,
        );
        assert!(zc.run_until_quiesce(60_000_000_000));
        let v0 = node(&zc, 0).store.view(Key(1)).val.as_u64();
        for n in 1..3u8 {
            assert_eq!(node(&zc, n).store.view(Key(1)).val.as_u64(), v0);
        }
        // 3 nodes × 2 sessions × 10 writes
        assert_eq!(zc.total_completed(), 60);
        // and every replica applied all 60 writes
        for n in 0..3u8 {
            assert_eq!(node(&zc, n).apply.lock().next_zxid(), 60);
        }
        // The sim counts what each node posted, for ZAB as for Kite: every
        // node forwarded or proposed and acked, and — with nothing dropped
        // and nothing left in flight — every posted envelope was delivered.
        let sent = |n: u8| {
            let c = zc.counters(NodeId(n));
            (c.msgs_sent.get(), c.envelopes_sent.get())
        };
        assert!((0..3).all(|n| sent(n).0 >= sent(n).1 && sent(n).1 > 0));
        assert_eq!((0..3).map(|n| sent(n).1).sum::<u64>(), zc.sim.delivered);
    }

    #[test]
    fn reads_are_local() {
        let mut zc = sim_cluster(
            ClusterConfig::small(),
            SimCfg::default(),
            |sid| {
                if sid == SessionId::new(NodeId(1), 0) {
                    SessionDriver::Script(Box::new(|seq| {
                        (seq < 5).then_some(Op::Read { key: Key(3) })
                    }))
                } else {
                    SessionDriver::Idle
                }
            },
            None,
        );
        assert!(zc.run_until_quiesce(1_000_000_000));
        assert_eq!(zc.counters(NodeId(1)).local_reads.get(), 5);
        assert_eq!(zc.total_completed(), 5);
    }
}
