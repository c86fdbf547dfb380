//! Distributed statistics counters over Fetch-&-Add — and why Kite runs
//! Paxos *per key* (§3.4).
//!
//! Clients on every replica bump event counters with FAA (consensus-backed,
//! exactly-once). The demo runs the same number of increments twice:
//!
//! * **contended**: every client hammers one global counter — all RMWs
//!   serialize through a single key's slot chain;
//! * **sharded**: each event type has its own counter — "RMWs to different
//!   keys commute and need not be ordered" (§3.4), so the per-key Paxos
//!   instances run in parallel and a reader aggregates at the end.
//!
//! The sharded run finishes markedly faster on the same deployment; both
//! runs count exactly once.
//!
//! Run: `cargo run --release --example counter_stats`

use std::sync::Arc;
use std::time::Instant;

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId};
use kite_net::Cluster;

const CLIENTS: usize = 3;
const INCS_PER_CLIENT: u64 = 240;
const SHARDS: u64 = 8;

const GLOBAL: Key = Key(0);
fn shard_key(event: u64) -> Key {
    Key(1 + event)
}

/// Run one configuration; `sharded` picks the key layout. Returns elapsed
/// seconds.
fn run(cluster: &Arc<Cluster>, sharded: bool) -> kite_common::Result<f64> {
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let cluster = Arc::clone(cluster);
        handles.push(std::thread::spawn(move || -> kite_common::Result<()> {
            // Session slots 0/1 keep the two runs' program orders separate.
            let mut sess = cluster.session(NodeId(t as u8), sharded as u32)?;
            for i in 0..INCS_PER_CLIENT {
                let key = if sharded { shard_key(i % SHARDS) } else { GLOBAL };
                sess.fetch_add(key, 1)?;
            }
            Ok(())
        }));
    }
    for h in handles {
        h.join().expect("client panicked")?;
    }
    Ok(start.elapsed().as_secs_f64())
}

fn main() -> kite_common::Result<()> {
    // 3 session slots per node: contended run, sharded run, aggregator.
    let cfg = ClusterConfig::small().keys(64).sessions_per_worker(3);
    let cluster = Arc::new(Cluster::launch(cfg, ProtocolMode::Kite)?);
    let expected = (CLIENTS as u64) * INCS_PER_CLIENT;

    let contended = run(&cluster, false)?;
    let sharded = run(&cluster, true)?;

    // Aggregate with acquires (linearizable reads): totals are exact.
    let mut reader = cluster.session(NodeId(0), 2)?;
    let global_total = reader.acquire(GLOBAL)?.as_u64();
    let mut shard_total = 0;
    print!("per-event counts:");
    for e in 0..SHARDS {
        let c = reader.acquire(shard_key(e))?.as_u64();
        print!(" {c}");
        shard_total += c;
    }
    println!();

    assert_eq!(global_total, expected, "contended counter lost or doubled increments");
    assert_eq!(shard_total, expected, "sharded counters lost or doubled increments");
    println!("contended (1 key):  {expected} increments in {contended:.2}s");
    println!("sharded  ({SHARDS} keys): {expected} increments in {sharded:.2}s");
    println!(
        "per-key parallelism speedup: {:.1}x (§3.4: RMWs to different keys commute)",
        contended / sharded
    );

    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => unreachable!("all sessions returned"),
    }
    println!("done.");
    Ok(())
}
