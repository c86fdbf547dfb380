//! A whole cluster in one process: `nodes` [`NodeRuntime`]s on loopback
//! TCP. Each node is the one `kite-node` runs — the same epoll loops,
//! codec, bounded rings and membership-epoch gate — and every byte between
//! them crosses a real socket, client traffic included: a session is a
//! [`RemoteSession`] on the node's loopback address. Tests, examples and
//! benches use it; a real deployment runs one `kite-node` process per node
//! instead.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use kite::{CompletionHook, NodeShared, ProtocolMode};
use kite_common::stats::ProtoCounters;
use kite_common::{ClusterConfig, KiteError, NodeId, Result};

use crate::client::RemoteSession;
use crate::node::{NodeConfig, NodeRuntime, NodeWatchdog};

/// A running in-process deployment. Thread budget: `workers_per_node` per
/// node — worker 0's loop accepts for its node, and serves the node's
/// metrics endpoint on an ephemeral loopback port.
pub struct Cluster {
    nodes: Vec<NodeRuntime>,
}

fn loopback() -> Result<TcpListener> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| KiteError::Net(format!("bind loopback: {e}")))
}

impl Cluster {
    /// Build and start a cluster in the given protocol mode.
    pub fn launch(cfg: ClusterConfig, mode: ProtocolMode) -> Result<Cluster> {
        Self::launch_with(cfg, mode, None)
    }

    /// As [`Cluster::launch`], with a completion hook observing every
    /// completed operation cluster-wide (history recording in tests). All
    /// nodes stamp completions on one process clock, so the hook's
    /// real-time order holds across nodes.
    pub fn launch_with(
        cfg: ClusterConfig,
        mode: ProtocolMode,
        hook: Option<CompletionHook>,
    ) -> Result<Cluster> {
        cfg.validate().map_err(KiteError::BadConfig)?;
        let listeners = (0..cfg.nodes).map(|_| loopback()).collect::<Result<Vec<_>>>()?;
        let peers = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| KiteError::Net(format!("local addr: {e}")))?;
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(n, listener)| {
                let node = NodeConfig {
                    metrics_listener: Some(loopback()?),
                    ..NodeConfig::new(cfg.clone(), mode, NodeId(n as u8), peers.clone(), listener)
                };
                NodeRuntime::launch_hooked(node, hook.clone())
            })
            .collect::<Result<_>>()?;
        Ok(Cluster { nodes })
    }

    /// Every node, indexed by node id.
    pub fn nodes(&self) -> &[NodeRuntime] {
        &self.nodes
    }

    /// Take the nodes apart (to shut one down and restart it, say).
    pub fn into_nodes(self) -> Vec<NodeRuntime> {
        self.nodes
    }

    fn node(&self, node: NodeId) -> &NodeRuntime {
        &self.nodes[node.idx()]
    }

    /// Claim a session on `node` over its loopback address — the client
    /// protocol every remote client speaks. `slot` ranges over
    /// `0..cfg.sessions_per_node()`; each slot can be claimed once.
    pub fn session(&self, node: NodeId, slot: u32) -> Result<RemoteSession> {
        let node = self
            .nodes
            .get(node.idx())
            .ok_or_else(|| KiteError::SessionUnavailable(format!("no node {node}")))?;
        RemoteSession::connect(&node.addr().to_string(), slot)
    }

    /// Per-node shared state (store, epoch, delinquency) — for tests and
    /// diagnostics.
    pub fn shared(&self, node: NodeId) -> &Arc<NodeShared> {
        self.node(node).shared()
    }

    /// Per-node protocol counters.
    pub fn counters(&self, node: NodeId) -> &ProtoCounters {
        self.node(node).counters()
    }

    /// One node's core-layer metrics as `key value` text — the `proto_*`,
    /// `membership_*`, `store_*` and `op_*` lines of its scrape.
    pub fn metrics_text(&self, node: NodeId) -> String {
        self.shared(node).metrics_text()
    }

    /// Make the directed link `src → dst` lose each envelope with
    /// probability `p`; `p = 0` heals it (see
    /// [`crate::LinkTable::set_drop`]).
    pub fn set_drop(&self, src: NodeId, dst: NodeId, p: f64) {
        self.node(src).links().set_drop(dst, p);
    }

    /// Arm a deadline watchdog over every node (see [`NodeWatchdog`]).
    pub fn watchdog(&self, timeout: Duration) -> NodeWatchdog {
        NodeWatchdog::arm(timeout, self.nodes.iter().map(NodeRuntime::watched).collect())
    }

    /// Stop every node, joining all their threads.
    pub fn shutdown(self) {
        self.nodes.into_iter().for_each(NodeRuntime::shutdown);
    }
}
