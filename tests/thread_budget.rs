//! One thread budget: an in-process `Cluster` is, per node, one thread per
//! worker plus the fabric's acceptor — `nodes × (workers_per_node + 1)`
//! threads and nothing else (the metrics endpoints ride the worker loops).
//! This binary holds a single test on purpose: `/proc/self/task` lists
//! every thread of the process, so a sibling test's cluster would be
//! counted too.

use kite::ProtocolMode;
use kite_common::ClusterConfig;
use kite_net::Cluster;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn cluster_launch_adds_exactly_nodes_times_workers_threads() {
    let cfg = ClusterConfig::small().workers_per_node(2);
    let budget = cfg.nodes * (cfg.workers_per_node + 1);
    let before = threads();
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite).expect("launch");
    assert_eq!(threads() - before, budget, "a thread beside the workers and acceptors was spawned");
    cluster.shutdown();
}
