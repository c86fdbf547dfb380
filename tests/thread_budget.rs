//! One thread budget and one socket per worker pair: an in-process
//! `Cluster` is, per node, one thread per worker — `nodes × workers_per_node`
//! threads and nothing else (worker 0's loop accepts for its node and serves
//! the metrics endpoint) — and once its links are up it holds its listeners
//! plus one loopback connection per worker pair, both ends of which are in
//! this process.
//! This binary holds a single test on purpose: `/proc/self/task` and
//! `/proc/self/fd` list every thread and socket of the process, so a
//! sibling test's cluster would be counted too.

use std::time::{Duration, Instant};

use kite::ProtocolMode;
use kite_common::{ClusterConfig, NodeId};
use kite_net::Cluster;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

fn sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

#[test]
fn cluster_launch_adds_exactly_nodes_times_workers_threads() {
    let cfg = ClusterConfig::small().workers_per_node(2);
    let (nodes, workers) = (cfg.nodes, cfg.workers_per_node);
    let budget = nodes * workers;
    let (before, sockets_before) = (threads(), sockets());
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite).expect("launch");
    assert_eq!(threads() - before, budget, "a thread beside the worker loops was spawned");

    // Every link row on both ends of every pair reads `Connected`: the
    // dialler's once its connect completed, the accepting end's once the
    // hello attached the socket — no connection is still in its handshake.
    let up = || {
        cluster.nodes().iter().all(|n| {
            (0..nodes as u8)
                .filter(|&peer| peer != n.node().0)
                .all(|peer| (0..workers).all(|w| n.links().link(NodeId(peer), w).is_connected()))
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !up() {
        assert!(Instant::now() < deadline, "links never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Fabric and metrics listener per node, and both ends of one
    // connection per worker pair.
    let listeners = 2 * nodes;
    let links = nodes * (nodes - 1) * workers;
    assert_eq!(
        sockets() - sockets_before,
        listeners + links,
        "{listeners} listeners + {links} link ends expected"
    );
    cluster.shutdown();
}
