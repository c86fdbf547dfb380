//! Quickstart for the real-network transport: a 3-node Kite cluster over
//! loopback TCP, driven by remote client sessions.
//!
//! Every byte here crosses a real socket through the `kite::wire` codec —
//! the same path a multi-process deployment takes (`kite-node` +
//! `kite-client`, see `scripts/e2e_tcp.sh`); this example just hosts all
//! three nodes in one process so `cargo run --example tcp_cluster` works
//! anywhere.

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key};
use kite_net::{Cluster, RemoteSession};

fn main() {
    // Three replicas, each with its own TCP listener on 127.0.0.1:0;
    // peers dial each other with reconnect-backoff, so launch order never
    // matters.
    let cfg = ClusterConfig::small().keys(256);
    let nodes = Cluster::launch(cfg, ProtocolMode::Kite).expect("launch cluster").into_nodes();
    for n in &nodes {
        println!("node {} listening on {}", n.node(), n.addr());
    }

    // Sessions over a socket — the one client API (`Cluster::session`
    // makes the same call). A real deployment would connect from another
    // machine exactly like this.
    let mut producer =
        RemoteSession::connect(&nodes[0].addr().to_string(), 0).expect("producer session");
    let mut consumer =
        RemoteSession::connect(&nodes[1].addr().to_string(), 0).expect("consumer session");

    // The RC handoff: relaxed payload write, release-flag publish, acquire
    // on the other side — across sockets.
    producer.write(Key(1), b"payload").expect("write");
    producer.release(Key(0), b"ready").expect("release");
    loop {
        let flag = consumer.acquire(Key(0)).expect("acquire");
        if flag.as_bytes() == b"ready" {
            break;
        }
    }
    let payload = consumer.read(Key(1)).expect("read");
    assert_eq!(payload.as_bytes(), b"payload");
    println!("handoff complete: consumer observed {:?}", payload);

    // Consensus over TCP: fetch-and-add from both sides.
    for _ in 0..5 {
        producer.fetch_add(Key(9), 1).expect("faa");
        consumer.fetch_add(Key(9), 1).expect("faa");
    }
    let total = consumer.acquire(Key(9)).expect("acquire counter");
    assert_eq!(total.as_u64(), 10);
    println!("counter converged at {}", total.as_u64());

    // Link-state report (what the watchdog prints if something wedges).
    println!("{}", nodes[0].describe());

    for n in nodes {
        n.shutdown();
    }
    println!("clean shutdown");
}
