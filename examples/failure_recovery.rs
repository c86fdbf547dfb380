//! Availability under failure (§8.4): a replica becomes unreachable (every
//! envelope to and from it is lost) and the survivors keep serving; when
//! the links heal, the fast/slow path machinery brings it back —
//! delinquency discovery, an epoch bump, and per-key slow-path refreshes —
//! without ever violating RC. The paper's sleeping replica proper is a
//! simulator fault (`Sim::sleep_node`, see `tests/rc_invariants.rs`).
//!
//! Run: `cargo run --release --example failure_recovery`

use std::time::Duration;

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, NodeId, Val};
use kite_net::Cluster;

fn main() -> kite_common::Result<()> {
    // Short release timeout so the demo's slow path triggers promptly.
    let cfg = ClusterConfig::small().keys(1 << 10).release_timeout_ns(2_000_000);
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite)?;
    let isolated = NodeId(2);
    // Cut (p = 1) or heal (p = 0) both directions between `isolated` and
    // every other node.
    let set_isolation = |p: f64| {
        for peer in (0..3).map(NodeId).filter(|&n| n != isolated) {
            cluster.set_drop(isolated, peer, p);
            cluster.set_drop(peer, isolated, p);
        }
    };

    let mut writer = cluster.session(NodeId(0), 0)?;
    let mut reader_on_isolated = cluster.session(isolated, 0)?;

    // Warm up: handshake works while everyone is healthy.
    writer.write(Key(1), Val::from_u64(1))?;
    writer.release(Key(0), Val::from_u64(1))?;
    while reader_on_isolated.acquire(Key(0))?.as_u64() < 1 {}
    assert_eq!(reader_on_isolated.read(Key(1))?.as_u64(), 1);
    println!("healthy handshake ok");

    // Cut node 2 off: it keeps running but nothing reaches it or leaves it.
    println!("isolating {isolated} for 300 ms …");
    set_isolation(1.0);

    // The survivors keep operating: writes + releases complete against the
    // remaining majority; releases that cannot gather the unreachable
    // node's acks take the slow-path barrier and publish its delinquency.
    let mut completed = 0u64;
    let start = std::time::Instant::now();
    let mut round = 2u64;
    while start.elapsed() < Duration::from_millis(300) {
        writer.write(Key(1), Val::from_u64(round))?;
        writer.release(Key(0), Val::from_u64(round))?;
        completed += 2;
        round += 1;
    }
    println!("while it was unreachable: {completed} ops completed on the survivors (availability held)");
    let slow_releases: u64 =
        (0..3).map(|n| cluster.counters(NodeId(n)).slow_releases.get()).sum();
    println!("slow-path release barriers taken: {slow_releases}");
    assert!(slow_releases > 0, "the unreachable node must have been reported delinquent");

    // Heal: the node's next acquire discovers its delinquency through
    // quorum intersection, bumps its machine epoch, and must observe the
    // latest release + payload (RCLin).
    set_isolation(0.0);
    let last = round - 1;
    let flag = reader_on_isolated.acquire(Key(0))?.as_u64();
    assert!(flag >= 1, "acquire must observe a released value");
    let payload = reader_on_isolated.read(Key(1))?.as_u64();
    println!("reconnected replica acquired flag={flag}, read payload={payload} (latest round was {last})");
    assert!(
        payload >= flag,
        "RC violated: payload {payload} older than acquired flag {flag}"
    );
    let epoch_bumps = cluster.shared(isolated).counters.epoch_bumps.get();
    println!("{isolated} epoch bumps: {epoch_bumps} (slow-path transition happened: {})", epoch_bumps > 0);

    cluster.shutdown();
    println!("recovered without violating release consistency.");
    Ok(())
}
