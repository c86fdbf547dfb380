//! Deployments on the deterministic simulator: reproducible protocol
//! executions in virtual time, used by the correctness test-suites and the
//! benchmark harnesses (virtual time makes a run a function of its seed,
//! not of the host's core count or load). Kite's workers by default; the
//! ZAB and Derecho baselines run on the same deployment type.

use std::sync::Arc;

use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, NodeId, SessionId};
use kite_simnet::{Actor, Sim, SimCfg};

use crate::api::CompletionHook;
use crate::nodestate::NodeShared;
use crate::session::{sessions_for, ProtocolMode, SessionDriver};
use crate::worker::Worker;

/// A deterministic, single-threaded deployment on virtual time: one
/// simulator over every node's actors, and the counters each node's
/// actors count on.
pub struct SimCluster<A: Actor = Worker> {
    /// The discrete-event executor; actors are indexed `[node][worker]`.
    pub sim: Sim<A>,
    counters: Vec<Arc<ProtoCounters>>,
    cfg: ClusterConfig,
}

impl<A: Actor> SimCluster<A> {
    /// A deployment of `cfg.nodes` nodes: `node` returns the actors (one
    /// per worker) of the node it is handed, counting on the counters it
    /// is handed. Nodes are built in id order.
    pub fn new(
        cfg: ClusterConfig,
        sim_cfg: SimCfg,
        mut node: impl FnMut(NodeId, &Arc<ProtoCounters>) -> Vec<A>,
    ) -> Self {
        cfg.validate().expect("invalid cluster config");
        let counters: Vec<Arc<ProtoCounters>> = (0..cfg.nodes).map(|_| Arc::default()).collect();
        let actors = counters.iter().enumerate().map(|(n, c)| node(NodeId(n as u8), c)).collect();
        SimCluster { sim: Sim::new(actors, sim_cfg), counters, cfg }
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Per-node counters.
    pub fn counters(&self, node: NodeId) -> &ProtoCounters {
        &self.counters[node.idx()]
    }

    /// Total completed requests across the deployment.
    pub fn total_completed(&self) -> u64 {
        self.counters.iter().map(|c| c.completed.get()).sum()
    }

    /// Completed requests on one node.
    pub fn node_completed(&self, node: NodeId) -> u64 {
        self.counters[node.idx()].completed.get()
    }

    /// Run `dur_ns` of virtual time.
    pub fn run_for(&mut self, dur_ns: u64) {
        self.sim.run_for(dur_ns);
        self.fold_sent();
    }

    /// Run until all scripts finish and the network drains, or `max_ns` is
    /// reached. Returns true on quiescence.
    pub fn run_until_quiesce(&mut self, max_ns: u64) -> bool {
        let quiesced = self.sim.run_until_quiesce(max_ns);
        self.fold_sent();
        quiesced
    }

    /// The simulator routes envelopes itself, so it — not a fabric loop —
    /// knows what each node sent: fold its tallies into the nodes'
    /// `msgs_sent` / `envelopes_sent`, the counters the epoll fabric bumps
    /// as it sends.
    fn fold_sent(&mut self) {
        for (n, c) in self.counters.iter().enumerate() {
            let (msgs, envelopes) = self.sim.take_sent(NodeId(n as u8));
            c.msgs_sent.add(msgs);
            c.envelopes_sent.add(envelopes);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.sim.now()
    }
}

impl SimCluster {
    /// Build a simulated Kite deployment.
    ///
    /// `drivers` is called once per session to produce its driver (script
    /// or idle); `hook` observes every completion cluster-wide.
    pub fn build(
        cfg: ClusterConfig,
        mode: ProtocolMode,
        sim_cfg: SimCfg,
        mut drivers: impl FnMut(SessionId) -> SessionDriver,
        hook: Option<CompletionHook>,
    ) -> Self {
        SimCluster::new(cfg.clone(), sim_cfg, |me, counters| {
            let sh = NodeShared::new(me, cfg.clone(), Arc::clone(counters));
            workers(&sh, mode, &mut drivers, &hook)
        })
    }

    /// Restart `node` as a new process with nothing on disk: a fresh
    /// [`NodeShared`] — empty store, no acceptor state, no epochs — whose
    /// sessions `drivers` supplies, on the same counters, mode and hook.
    /// Models a restart with the WAL off, or one that lost a write still
    /// staged: the acceptor state is lost either way. Everything in flight
    /// to the old process is dropped ([`Sim::restart`]).
    pub fn restart(&mut self, node: NodeId, mut drivers: impl FnMut(SessionId) -> SessionDriver) {
        let old = &self.sim.actors[node.idx()][0];
        let (mode, hook) = (old.mode, old.hook.clone());
        let counters = Arc::clone(&self.counters[node.idx()]);
        let sh = NodeShared::new(node, self.cfg.clone(), counters);
        self.sim.restart(node, || workers(&sh, mode, &mut drivers, &hook));
    }

    /// Per-node shared state (the running process's: a restart replaces it).
    pub fn shared(&self, node: NodeId) -> &Arc<NodeShared> {
        &self.sim.actors[node.idx()][0].shared
    }

    /// One node's core-layer metrics as `key value` text — the `proto_*`,
    /// `membership_*`, `store_*` and `op_*` lines its daemon would scrape.
    pub fn metrics_text(&self, node: NodeId) -> String {
        self.shared(node).metrics_text()
    }
}

/// The workers of the node `sh` serves, their sessions from `drivers`.
fn workers(
    sh: &Arc<NodeShared>,
    mode: ProtocolMode,
    drivers: &mut impl FnMut(SessionId) -> SessionDriver,
    hook: &Option<CompletionHook>,
) -> Vec<Worker> {
    let cfg = &sh.cfg;
    (0..cfg.workers_per_node)
        .map(|w| {
            let sessions = sessions_for(sh.me, w, cfg.sessions_per_worker, &mut *drivers);
            Worker::new(w, Arc::clone(sh), mode, sessions, hook.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Op;
    use kite_common::{Key, Val};

    /// Smallest end-to-end smoke test: one session writes then reads its
    /// own key through the full Kite stack on the simulator.
    #[test]
    fn single_session_write_read() {
        let done: Arc<std::sync::Mutex<Vec<crate::api::Completion>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let done2 = Arc::clone(&done);
        let hook: CompletionHook = Arc::new(move |c| done2.lock().unwrap().push(c.clone()));

        let mut sc = SimCluster::build(
            ClusterConfig::small(),
            ProtocolMode::Kite,
            SimCfg::default(),
            |sid| {
                if sid == SessionId::new(NodeId(0), 0) {
                    SessionDriver::Script(Box::new(|seq| match seq {
                        0 => Some(Op::Write { key: Key(7), val: Val::from_u64(41) }),
                        1 => Some(Op::Read { key: Key(7) }),
                        _ => None,
                    }))
                } else {
                    SessionDriver::Idle
                }
            },
            Some(hook),
        );
        assert!(sc.run_until_quiesce(1_000_000_000), "must quiesce");
        let done = done.lock().unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].output.value().unwrap().as_u64(), 41, "read-your-write");
        assert_eq!(sc.total_completed(), 2);
    }

    /// Relaxed writes propagate to all replicas (ES broadcast).
    #[test]
    fn es_write_reaches_all_replicas() {
        let mut sc = SimCluster::build(
            ClusterConfig::small(),
            ProtocolMode::Kite,
            SimCfg::default(),
            |sid| {
                if sid == SessionId::new(NodeId(0), 0) {
                    SessionDriver::Script(Box::new(|seq| match seq {
                        0 => Some(Op::Write { key: Key(3), val: Val::from_u64(99) }),
                        _ => None,
                    }))
                } else {
                    SessionDriver::Idle
                }
            },
            None,
        );
        assert!(sc.run_until_quiesce(1_000_000_000));
        for n in 0..3u8 {
            assert_eq!(
                sc.shared(NodeId(n)).store.view(Key(3)).val.as_u64(),
                99,
                "replica {n} must have the write"
            );
        }
        // The sim counts what each node posted: the writer one EsWrite per
        // peer at least, each peer its ack, and — with nothing dropped and
        // nothing left in flight — every posted envelope was delivered.
        let sent = |n: u8| {
            let c = sc.counters(NodeId(n));
            (c.msgs_sent.get(), c.envelopes_sent.get())
        };
        assert!(sent(0).0 >= 2 && sent(1).0 >= 1 && sent(2).0 >= 1);
        assert!((0..3).all(|n| sent(n).0 >= sent(n).1));
        assert_eq!((0..3).map(|n| sent(n).1).sum::<u64>(), sc.sim.delivered);
    }

    /// Releases and acquires work across nodes; FAA counts correctly.
    #[test]
    fn cross_node_faa_sums() {
        let mut sc = SimCluster::build(
            ClusterConfig::small(),
            ProtocolMode::Kite,
            SimCfg::default(),
            |sid| {
                // every session on every node adds 1, five times
                let _ = sid;
                SessionDriver::Script(Box::new(|seq| {
                    if seq < 5 {
                        Some(Op::Faa { key: Key(0), delta: 1 })
                    } else {
                        None
                    }
                }))
            },
            None,
        );
        assert!(sc.run_until_quiesce(30_000_000_000), "RMWs must all commit");
        // small config: 3 nodes × 1 worker × 2 sessions × 5 FAAs = 30
        let expected = 3 * 2 * 5;
        for n in 0..3u8 {
            assert_eq!(
                sc.shared(NodeId(n)).store.view(Key(0)).val.as_u64(),
                expected,
                "replica {n} final counter"
            );
        }
    }
}
