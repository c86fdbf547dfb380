//! ZAB deployments on the deterministic simulator.

use std::sync::Arc;

use kite::api::CompletionHook;
use kite::session::{sessions_for, SessionDriver};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, NodeId, SessionId};
use kite_simnet::{Sim, SimCfg};

use crate::shared::ZabShared;
use crate::worker::ZabWorker;

/// A deterministic, single-threaded ZAB deployment (virtual time), mirroring
/// [`kite::SimCluster`] so benchmark harnesses treat both uniformly.
pub struct ZabSimCluster {
    /// The discrete-event executor running the ZAB workers.
    pub sim: Sim<ZabWorker>,
    shared: Vec<Arc<ZabShared>>,
    counters: Vec<Arc<ProtoCounters>>,
}

impl ZabSimCluster {
    /// Build a simulated ZAB deployment.
    pub fn build(
        cfg: ClusterConfig,
        sim_cfg: SimCfg,
        mut drivers: impl FnMut(SessionId) -> SessionDriver,
        hook: Option<CompletionHook>,
    ) -> Self {
        cfg.validate().expect("invalid cluster config");
        let counters: Vec<Arc<ProtoCounters>> =
            (0..cfg.nodes).map(|_| Arc::new(ProtoCounters::default())).collect();
        let shared: Vec<Arc<ZabShared>> = (0..cfg.nodes)
            .map(|n| ZabShared::new(NodeId(n as u8), cfg.clone(), Arc::clone(&counters[n])))
            .collect();

        let actors: Vec<Vec<ZabWorker>> = shared
            .iter()
            .map(|sh| {
                (0..cfg.workers_per_node)
                    .map(|w| {
                        let sessions =
                            sessions_for(sh.me, w, cfg.sessions_per_worker, &mut drivers);
                        ZabWorker::new(w, Arc::clone(sh), sessions, hook.clone())
                    })
                    .collect()
            })
            .collect();
        ZabSimCluster { sim: Sim::new(actors, sim_cfg), shared, counters }
    }

    /// One node's shared state.
    pub fn shared(&self, node: NodeId) -> &Arc<ZabShared> {
        &self.shared[node.idx()]
    }

    /// One node's counters.
    pub fn counters(&self, node: NodeId) -> &ProtoCounters {
        &self.counters[node.idx()]
    }

    /// Completed requests across the deployment.
    pub fn total_completed(&self) -> u64 {
        self.counters.iter().map(|c| c.completed.get()).sum()
    }

    /// Run `dur_ns` of virtual time.
    pub fn run_for(&mut self, dur_ns: u64) {
        self.sim.run_for(dur_ns);
    }

    /// Run until quiescent or `max_ns`; true on quiescence.
    pub fn run_until_quiesce(&mut self, max_ns: u64) -> bool {
        self.sim.run_until_quiesce(max_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite::api::Op;
    use kite_common::{Key, Val};

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
        let mut zc = ZabSimCluster::build(
            ClusterConfig::small(),
            SimCfg::default(),
            one_shot_writer(SessionId::new(NodeId(0), 0), Key(5), 77),
            None,
        );
        assert!(zc.run_until_quiesce(1_000_000_000));
        for n in 0..3u8 {
            assert_eq!(zc.shared(NodeId(n)).store.view(Key(5)).val.as_u64(), 77);
        }
    }

    #[test]
    fn follower_write_is_forwarded_and_committed() {
        let mut zc = ZabSimCluster::build(
            ClusterConfig::small(),
            SimCfg::default(),
            one_shot_writer(SessionId::new(NodeId(2), 0), Key(6), 88),
            None,
        );
        assert!(zc.run_until_quiesce(1_000_000_000));
        for n in 0..3u8 {
            assert_eq!(zc.shared(NodeId(n)).store.view(Key(6)).val.as_u64(), 88);
        }
        assert_eq!(zc.total_completed(), 1);
    }

    #[test]
    fn all_nodes_apply_identical_write_order() {
        // Several sessions on several nodes write the same key; after
        // quiescence every replica must hold the same value (agreement) —
        // the total order guarantees it even without LLC arbitration.
        let mut zc = ZabSimCluster::build(
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
        let v0 = zc.shared(NodeId(0)).store.view(Key(1)).val.as_u64();
        for n in 1..3u8 {
            assert_eq!(zc.shared(NodeId(n)).store.view(Key(1)).val.as_u64(), v0);
        }
        // 3 nodes × 2 sessions × 10 writes
        assert_eq!(zc.total_completed(), 60);
        // and every replica applied all 60 writes
        for n in 0..3u8 {
            assert_eq!(zc.shared(NodeId(n)).apply.lock().next_zxid(), 60);
        }
    }

    #[test]
    fn reads_are_local() {
        let mut zc = ZabSimCluster::build(
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
