//! The asynchronous API (§6.1): "The Kite API includes an asynchronous
//! (async) and a synchronous (sync) function call for every request
//! (similarly to Zookeeper)."
//!
//! Relaxed writes don't block their session, so a client that *pipelines*
//! them — submit everything, collect completions afterwards — pays one
//! client↔worker round per batch instead of one per operation. The sync
//! API waits out each write before issuing the next.
//!
//! The demo ingests the same batch of records both ways and prints the
//! speedup, then shows how a pipelined batch composes with a release: the
//! release is submitted *after* the batch in session order, so the RC
//! barrier covers all of it — a consumer that acquires the seal sees every
//! record.
//!
//! Run: `cargo run --release --example async_pipeline`

use std::time::Instant;

use kite::api::{Op, OpOutput};
use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId};
use kite_net::Cluster;

const RECORDS: u64 = 2_000;
const SEAL: Key = Key(0);

fn record_key(run: u64, i: u64) -> Key {
    Key(1 + run * RECORDS + i)
}

fn main() -> kite_common::Result<()> {
    let cfg = ClusterConfig::small().keys(1 << 13);
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite)?;
    let mut writer = cluster.session(NodeId(0), 0)?;

    // ---- sync: one blocking call per record ------------------------------
    let t = Instant::now();
    for i in 0..RECORDS {
        writer.write(record_key(0, i), i + 1)?;
    }
    let sync_s = t.elapsed().as_secs_f64();

    // ---- async: pipeline the batch, then drain ---------------------------
    let t = Instant::now();
    for i in 0..RECORDS {
        writer.submit(Op::Write { key: record_key(1, i), val: (i + 1).into() })?;
    }
    while writer.outstanding() > 0 {
        let c = writer.next_completion()?;
        debug_assert!(matches!(c.output, OpOutput::Done));
    }
    let async_s = t.elapsed().as_secs_f64();

    println!("{RECORDS} relaxed writes, sync:  {sync_s:.3}s");
    println!("{RECORDS} relaxed writes, async: {async_s:.3}s ({:.1}x)", sync_s / async_s);

    // ---- pipelining composes with the RC barrier --------------------------
    // Submit the whole batch and the sealing release back-to-back; session
    // order makes the release cover every record (§4.2).
    for i in 0..RECORDS {
        writer.submit(Op::Write { key: record_key(2, i), val: (i + 1).into() })?;
    }
    writer.submit(Op::Release { key: SEAL, val: 1u64.into() })?;
    while writer.outstanding() > 0 {
        writer.next_completion()?;
    }

    let mut reader = cluster.session(NodeId(1), 0)?;
    assert_eq!(reader.acquire(SEAL)?.as_u64(), 1, "seal must be visible (RCLin)");
    // Spot-check the batch through relaxed (local) reads.
    for i in (0..RECORDS).step_by(97) {
        assert_eq!(
            reader.read(record_key(2, i))?.as_u64(),
            i + 1,
            "record {i} missing behind the seal"
        );
    }
    println!("sealed batch fully visible after one acquire");

    cluster.shutdown();
    println!("done.");
    Ok(())
}
