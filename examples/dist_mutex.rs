//! A distributed spin-lock built from Kite's RC primitives — the mutual
//! exclusion pattern RCSC provably supports (§2.3).
//!
//! * lock: weak CAS `unlocked → my id` (a successful CAS is a full
//!   synchronization op — acquire semantics; a failed weak CAS spins
//!   locally until the unlocking release propagates);
//! * unlock: `release(unlocked)` — orders every write in the critical
//!   section before the lock hand-off.
//!
//! The unlocked state is the *empty* value, which conveniently equals the
//! never-written state of the lock cell, so no initialization round is
//! needed.
//!
//! The guarded counter is accessed with *relaxed* reads/writes only: the
//! lock's acquire/release edges make it data-race-free.
//!
//! Run: `cargo run --release --example dist_mutex`

use std::sync::Arc;

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId};
use kite_net::Cluster;

const LOCK: Key = Key(0);
const COUNTER: Key = Key(1);
const THREADS: usize = 3;
const INCREMENTS: u64 = 10;

fn main() -> kite_common::Result<()> {
    let cfg = ClusterConfig::small().keys(64);
    let cluster = Arc::new(Cluster::launch(cfg, ProtocolMode::Kite)?);

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || -> kite_common::Result<u64> {
            let me = t as u64 + 1; // lock owner ids are non-zero
            let mut sess = cluster.session(NodeId(t as u8), 0)?;
            let mut spins = 0u64;
            for _ in 0..INCREMENTS {
                // ---- lock ----
                loop {
                    let (ok, _) = sess.cas_weak(LOCK, kite_common::Val::EMPTY, me)?;
                    if ok {
                        break;
                    }
                    spins += 1;
                    // be polite on small machines: the failed weak CAS was
                    // local, so the holder's release needs CPU to propagate
                    std::thread::yield_now();
                }
                // ---- critical section (relaxed accesses, DRF under the lock) ----
                let v = sess.read(COUNTER)?.as_u64();
                sess.write(COUNTER, v + 1)?;
                // ---- unlock ----
                sess.release(LOCK, kite_common::Val::EMPTY)?;
            }
            Ok(spins)
        }));
    }

    let mut total_spins = 0;
    for h in handles {
        total_spins += h.join().expect("worker panicked")?;
    }

    let mut verifier = cluster.session(NodeId(0), 1)?;
    let total = verifier.acquire(COUNTER)?.as_u64();
    println!(
        "{THREADS} clients × {INCREMENTS} increments = {total} (expected {}), \
         {total_spins} lock spins",
        THREADS as u64 * INCREMENTS
    );
    assert_eq!(
        total,
        THREADS as u64 * INCREMENTS,
        "mutual exclusion violated — increments lost"
    );
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => unreachable!(),
    }
    println!("mutual exclusion held.");
    Ok(())
}
