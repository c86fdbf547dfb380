//! One thread budget: an in-process `Cluster` is, per node, one thread per
//! worker — `nodes × workers_per_node` threads and nothing else (worker 0's
//! loop accepts for its node and serves the metrics endpoint).
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
    let budget = cfg.nodes * cfg.workers_per_node;
    let before = threads();
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite).expect("launch");
    assert_eq!(threads() - before, budget, "a thread beside the worker loops was spawned");
    cluster.shutdown();
}
