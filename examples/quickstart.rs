//! Quickstart: a 3-replica Kite deployment in one process.
//!
//! Tour of the API from Table 1 of the paper: relaxed reads/writes
//! (Eventual Store), release/acquire (ABD), and RMWs (per-key Paxos).
//!
//! Run: `cargo run --release --example quickstart`

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId};
use kite_net::Cluster;

fn main() -> kite_common::Result<()> {
    // 3 replicas, 1 worker each, a small key space.
    let cfg = ClusterConfig::small().keys(1 << 12);
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite)?;

    // Sessions define program order; claim one on node 0 and one on node 2.
    let mut alice = cluster.session(NodeId(0), 0)?;
    let mut bob = cluster.session(NodeId(2), 0)?;

    // --- relaxed operations (Eventual Store: local reads, async writes) --
    alice.write(Key(1), b"hello")?;
    let v = alice.read(Key(1))?; // read-your-writes, served locally
    assert_eq!(v.as_bytes(), b"hello");
    println!("relaxed write + local read: {:?}", String::from_utf8_lossy(v.as_bytes()));

    // --- synchronization (ABD: linearizable) -----------------------------
    // Alice publishes; the release orders every prior write before it.
    alice.write(Key(10), b"payload")?;
    alice.release(Key(11), b"ready")?;

    // Bob synchronizes: once his acquire observes "ready", the payload is
    // guaranteed visible (the RC barrier invariant, §4.1).
    loop {
        let flag = bob.acquire(Key(11))?;
        if flag.as_bytes() == b"ready" {
            break;
        }
    }
    let payload = bob.read(Key(10))?;
    assert_eq!(payload.as_bytes(), b"payload");
    println!("release/acquire handshake delivered the payload");

    // --- RMWs (per-key Paxos: consensus) ----------------------------------
    let old = alice.fetch_add(Key(20), 5)?;
    let old2 = bob.fetch_add(Key(20), 1)?;
    println!("fetch_add results: alice saw {old}, bob saw {old2}");
    let counter = alice.acquire(Key(20))?;
    assert_eq!(counter.as_u64(), 6, "both increments are in");

    // Weak CAS completes locally when the comparison fails locally (§6.1).
    let (swapped, observed) = bob.cas_weak(Key(20), 999u64, 0u64)?;
    assert!(!swapped);
    println!("weak CAS failed locally as expected (observed {})", observed.as_u64());

    let (swapped, _) = bob.cas_strong(Key(20), 6u64, 7u64)?;
    assert!(swapped, "strong CAS with the right expectation succeeds");
    println!("strong CAS swapped 6 → 7");

    cluster.shutdown();
    println!("done.");
    Ok(())
}
