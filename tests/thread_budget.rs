//! One thread budget: an in-process `Cluster` is `nodes × workers_per_node`
//! threads and nothing else. This binary holds a single test on purpose:
//! `/proc/self/task` lists every thread of the process, so a sibling
//! test's cluster would be counted too.

use kite::{Cluster, ProtocolMode};
use kite_common::ClusterConfig;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn cluster_launch_adds_exactly_nodes_times_workers_threads() {
    let cfg = ClusterConfig::small();
    let workers = cfg.nodes * cfg.workers_per_node;
    let before = threads();
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite).expect("launch");
    assert_eq!(threads() - before, workers, "a thread beside the workers was spawned");
    cluster.shutdown();
}
