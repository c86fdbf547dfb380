//! The producer-consumer pattern from the paper's introduction (§1 and
//! Figure 1): the producer writes a multi-field object with *relaxed*
//! writes and raises a flag with a *release*; the consumer polls the flag
//! with *acquires* and, once raised, reads the whole object with relaxed
//! reads — the RC barriers guarantee it observes every field.
//!
//! This is exactly the pattern the paper argues an MCL ("multiple
//! consistency levels") API cannot express efficiently: here only 1 of 65
//! producer operations is strongly consistent.
//!
//! Run: `cargo run --release --example producer_consumer`

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId, Val};
use kite_net::Cluster;

const FIELDS: u64 = 64;
const ROUNDS: u64 = 20;
const FLAG: Key = Key(0);

fn field_key(round: u64, f: u64) -> Key {
    Key(1 + round * FIELDS + f)
}

fn main() -> kite_common::Result<()> {
    let cfg = ClusterConfig::small().keys(1 << 12);
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite)?;

    let mut producer = cluster.session(NodeId(0), 0)?;
    let mut consumer = cluster.session(NodeId(1), 0)?;

    let producer_thread = std::thread::spawn(move || -> kite_common::Result<()> {
        for round in 1..=ROUNDS {
            // Write all fields of the object — plain relaxed writes, free to
            // be reordered among themselves.
            for f in 0..FIELDS {
                // field value encodes (round, field) so the consumer can
                // detect torn objects
                producer.write(field_key(round, f), Val::from_u64(round << 32 | f))?;
            }
            // One release publishes the lot.
            producer.release(FLAG, Val::from_u64(round))?;
        }
        Ok(())
    });

    let mut observed_rounds = 0u64;
    let mut last_seen = 0u64;
    while last_seen < ROUNDS {
        // Poll the flag with an acquire.
        let flag = consumer.acquire(FLAG)?.as_u64();
        if flag == 0 || flag == last_seen {
            continue;
        }
        last_seen = flag;
        observed_rounds += 1;
        // The barrier invariant (§4.1): every field of round `flag` must be
        // visible now, through plain relaxed reads.
        for f in 0..FIELDS {
            let v = consumer.read(field_key(flag, f))?.as_u64();
            assert_eq!(
                v,
                flag << 32 | f,
                "torn object: field {f} of round {flag} reads {v:#x}"
            );
        }
        println!("round {flag:>3}: all {FIELDS} fields visible after one acquire");
    }

    producer_thread.join().expect("producer panicked")?;
    println!("consumer verified {observed_rounds} complete objects — no torn reads.");
    cluster.shutdown();
    Ok(())
}
