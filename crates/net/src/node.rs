//! One Kite node as a real process: cluster bootstrap over [`TcpNet`],
//! client sessions, watchdog, clean shutdown.
//!
//! [`NodeRuntime::launch`] starts **one** node of a deployment: it builds
//! the node's shared state, its client sessions (`SessionDriver::Client`,
//! one per slot, fed by the loop of the worker that owns the slot), its
//! `Worker` actors, and drives them over the TCP fabric. Every client —
//! in the same process or not — claims a session through the client
//! protocol (`kite::wire`, [`crate::RemoteSession`]) and gets completions
//! matched by op sequence number. [`crate::Cluster`] runs several of these
//! on loopback in one process.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use kite::api::CompletionHook;
use kite::session::{sessions_for, SessionDriver};
use kite::{NodeShared, ProtocolMode, Worker};
use kite_common::{ClusterConfig, KiteError, NodeId, Result};
use kite_kvs::DurabilitySink;
use kite_simnet::Dumper;
use kite_wal::{RecoveryStats, Wal};

use crate::fabric::{spawn_tcp_workers, NodeStopHandle, TcpNet, TcpNetCfg};
use crate::link::LinkTable;

/// Least interval between WAL snapshots: each one rotates the log and
/// deletes older segments. A rotation also waits until the log has
/// outgrown the last snapshot, so the replay tail is at most the larger of
/// that snapshot and one interval of writes.
const WAL_SNAPSHOT_INTERVAL_NS: u64 = 1_000_000_000;

/// Configuration of one node of a real-network deployment.
pub struct NodeConfig {
    /// Protocol/deployment parameters (must agree across the cluster:
    /// `nodes`, `workers_per_node` and `sessions_per_worker` define the
    /// topology every peer assumes).
    pub cluster: ClusterConfig,
    /// Protocol stack to run.
    pub mode: ProtocolMode,
    /// This node's id.
    pub me: NodeId,
    /// Fabric address of every node, indexed by node id (the addresses
    /// this node dials; its own entry is what its peers dial).
    pub peers: Vec<String>,
    /// The bound fabric listener: peers and client sessions connect here.
    /// A daemon binds `peers[me]` with [`crate::bind_reuseaddr`]; tests
    /// bind `127.0.0.1:0` first and hand out the real addresses.
    pub fabric_listener: TcpListener,
    /// The bound metrics/dump scrape listener; `None` disables the
    /// endpoint. It is registered on worker 0's epoll loop — live
    /// observability costs zero extra threads.
    pub metrics_listener: Option<TcpListener>,
}

impl NodeConfig {
    /// A node config with no metrics endpoint.
    pub fn new(
        cluster: ClusterConfig,
        mode: ProtocolMode,
        me: NodeId,
        peers: Vec<String>,
        fabric_listener: TcpListener,
    ) -> Self {
        NodeConfig { cluster, mode, me, peers, fabric_listener, metrics_listener: None }
    }
}

/// A running Kite node over TCP.
pub struct NodeRuntime {
    mode: ProtocolMode,
    me: NodeId,
    net: TcpNet,
    stop: Option<NodeStopHandle>,
    shared: Arc<NodeShared>,
    wal: Option<Arc<Wal>>,
    recovery: Option<RecoveryStats>,
    metrics_addr: Option<SocketAddr>,
}

impl NodeRuntime {
    /// Build and start one node. Peer links dial in the background with
    /// backoff, so nodes may launch in any order.
    pub fn launch(cfg: NodeConfig) -> Result<NodeRuntime> {
        Self::launch_hooked(cfg, None)
    }

    /// As [`NodeRuntime::launch`], with a completion hook observing every
    /// operation the node completes (history recording in tests; see
    /// [`crate::Cluster::launch_with`]).
    pub(crate) fn launch_hooked(
        cfg: NodeConfig,
        hook: Option<CompletionHook>,
    ) -> Result<NodeRuntime> {
        cfg.cluster.validate().map_err(KiteError::BadConfig)?;
        if cfg.peers.len() != cfg.cluster.nodes {
            return Err(KiteError::BadConfig(format!(
                "peer list has {} addresses for a {}-node cluster",
                cfg.peers.len(),
                cfg.cluster.nodes
            )));
        }
        if cfg.me.idx() >= cfg.cluster.nodes {
            return Err(KiteError::BadConfig(format!("node id {} out of range", cfg.me)));
        }
        let ccfg = cfg.cluster;
        let (net, mut ios) = TcpNet::bind(TcpNetCfg {
            me: cfg.me,
            peers: cfg.peers,
            workers: ccfg.workers_per_node,
            sessions_per_worker: ccfg.sessions_per_worker,
            listener: cfg.fabric_listener,
        })
        .map_err(|e| KiteError::Net(format!("bind fabric: {e}")))?;

        let shared = NodeShared::new(cfg.me, ccfg.clone(), Arc::clone(&net.counters));

        // Durability: recover whatever the previous incarnation made
        // durable *before* the workers (or the WAL sink — a sink observing
        // its own replay would double every record) can see the store, then
        // attach the group-commit log to the store's apply choke points.
        // Replaying through `apply_max` rebuilds the Merkle lattice, so the
        // first anti-entropy sweep against the peers heals exactly the
        // downtime delta.
        let (wal, recovery) = if let Some(wal_dir) = &ccfg.wal_dir {
            let dir = std::path::Path::new(wal_dir).join(format!("node{}", cfg.me.idx()));
            let stats = kite_wal::recover_into(&dir, &shared.store)
                .map_err(|e| KiteError::Net(format!("wal recovery: {e}")))?;
            let src = Arc::clone(&shared);
            // The group-commit window is the sweep interval: acks leave
            // before group commit, and what a crash takes out of the
            // staging buffer the first sweep after the restart fetches back
            // from the replicas that acked it.
            let wal = Wal::open(
                &dir,
                ccfg.anti_entropy_interval_ns,
                WAL_SNAPSHOT_INTERVAL_NS,
                Box::new(move |f| src.store.for_each_entry(|k, lc, v| f(k, lc, v))),
            )
            .map_err(|e| KiteError::Net(format!("wal open: {e}")))?;
            shared.store.attach_sink(Arc::clone(&wal) as Arc<dyn DurabilitySink>);
            (Some(wal), Some(stats))
        } else {
            (None, None)
        };

        // Metrics endpoint: hand the scrape listener to worker 0's event
        // loop. The whole observability plane — hub, listener, scrape conns
        // — rides the existing epoll budget; the node's thread count is
        // identical with metrics on or off.
        let mut metrics_addr = None;
        if let Some(listener) = cfg.metrics_listener {
            metrics_addr = listener.local_addr().ok();
            let hub = crate::scrape::node_metrics_hub(cfg.mode, &shared, &net, wal.as_ref());
            ios[0].scrape = Some(crate::fabric::ScrapeSource { listener, hub });
        }

        // Every session is a client session: the loop of the worker that
        // owns a slot serves the one connection that claims it, straight
        // into the worker (no queue between them, no shared table).
        let mut rigs = Vec::with_capacity(ios.len());
        for io in ios {
            let w = io.worker;
            let sessions = sessions_for(cfg.me, w, ccfg.sessions_per_worker, |_| {
                SessionDriver::Client(VecDeque::new())
            });
            rigs.push((Worker::new(w, Arc::clone(&shared), cfg.mode, sessions, hook.clone()), io));
        }
        let stop = spawn_tcp_workers(rigs, &net);

        Ok(NodeRuntime {
            mode: cfg.mode,
            me: cfg.me,
            net,
            stop: Some(stop),
            shared,
            wal,
            recovery,
            metrics_addr,
        })
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The address the fabric listener bound — peers dial this, and every
    /// client session connects to the same port with a client hello.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Node-shared protocol state (store, epoch, delinquency) — for tests
    /// and diagnostics.
    pub fn shared(&self) -> &Arc<NodeShared> {
        &self.shared
    }

    /// This node's protocol counters.
    pub fn counters(&self) -> &kite_common::stats::ProtoCounters {
        &self.net.counters
    }

    /// The node's write-ahead log, when durability is on.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The address the metrics scrape endpoint bound (resolves `:0`), when
    /// the endpoint is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The per-peer link table (frames/sheds/decode errors per link) — the
    /// transport-side stats the bench bins report per row.
    pub fn links(&self) -> &Arc<crate::link::LinkTable> {
        self.net.links()
    }

    /// Loop-health counters of every worker loop — what the scrape endpoint
    /// renders as `loop_w<j>_*`.
    pub fn fabric_stats(&self) -> &Arc<crate::link::FabricStats> {
        self.net.stats()
    }

    /// What boot-time recovery found, when durability is on.
    pub fn recovery(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// The node-level lines of a watchdog report — mode and totals,
    /// membership, the per-peer link table, and WAL flush/lag state when
    /// durability is on; the scrape endpoint's `dump` view ends with the
    /// same lines.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let wal = self.wal.as_deref();
        crate::scrape::describe_node(&mut out, self.mode, &self.shared, self.net.links(), wal);
        out
    }

    /// Arm a deadline watchdog over this node (see [`NodeWatchdog`]).
    pub fn watchdog(&self, timeout: Duration) -> NodeWatchdog {
        NodeWatchdog::arm(timeout, vec![self.watched()])
    }

    /// What a watchdog needs of this node when it fires.
    pub(crate) fn watched(&self) -> Watched {
        Watched {
            dumper: self.stop.as_ref().expect("watchdog on a running node").dumper(),
            links: Arc::clone(self.net.links()),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop the worker loops — client serving and the fabric with them —
    /// joining every thread, then the WAL. This is the SIGTERM path of the
    /// `kite-node` daemon.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Stop the worker event loops, which close every socket they own on
        // the way out — worker 0's listeners included.
        if let Some(stop) = self.stop.take() {
            stop.stop_and_join();
        }
        // Workers are parked: nothing mutates the store anymore, so the
        // final flush + snapshot capture every applied write and the next
        // boot restarts with zero replay. Ordering matters — a WAL
        // shutdown with workers still running would lose their tail.
        if let Some(wal) = self.wal.take() {
            wal.shutdown();
        }
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// One watched node: its workers' dump request, its link table and its
/// shared state.
pub(crate) struct Watched {
    dumper: Dumper,
    links: Arc<LinkTable>,
    shared: Arc<NodeShared>,
}

/// A deadline watchdog over one or more nodes ([`NodeRuntime::watchdog`],
/// [`crate::Cluster::watchdog`]). If the guard is not dropped within the
/// timeout, every worker prints its `Actor::describe` snapshot; each node's
/// link table (a half-open connection or a peer stuck in backoff is
/// exactly what this surfaces) and its metrics text — the scrape view a
/// wedged daemon would serve — follow; and the process **aborts** with a
/// diagnostic instead of wedging forever. Fault tests should arm one: a
/// liveness bug then yields a stalled-round dump rather than a CI timeout
/// with no evidence. Dropping the guard disarms it.
pub struct NodeWatchdog {
    disarm_tx: Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl NodeWatchdog {
    pub(crate) fn arm(timeout: Duration, nodes: Vec<Watched>) -> NodeWatchdog {
        let (disarm_tx, disarm_rx) = channel::<()>();
        let handle = std::thread::Builder::new()
            .name("kite-watchdog".into())
            .spawn(move || {
                if disarm_rx.recv_timeout(timeout) != Err(RecvTimeoutError::Timeout) {
                    return; // disarmed: finished in time
                }
                eprintln!(
                    "\n!!!! kite watchdog: no disarm within {timeout:?} — dumping state !!!!"
                );
                // The requests end every worker's park; give them a moment
                // to print.
                nodes.iter().for_each(|n| n.dumper.request());
                std::thread::sleep(Duration::from_secs(1));
                for Watched { links, shared, .. } in &nodes {
                    eprintln!(
                        "node {}: suspected={:?} epoch={}\n{}{}",
                        shared.me,
                        shared.suspected(),
                        shared.epoch(),
                        links.describe(),
                        shared.metrics_text(),
                    );
                }
                eprintln!("!!!! kite watchdog: aborting !!!!");
                std::process::abort();
            })
            .expect("spawn watchdog");
        NodeWatchdog { disarm_tx, handle: Some(handle) }
    }
}

impl Drop for NodeWatchdog {
    fn drop(&mut self) {
        let _ = self.disarm_tx.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
