//! Cluster configuration rollout — dynamic membership driven through the
//! front door, under live traffic.
//!
//! A 4-slot deployment boots with three founding voters and one cold
//! spare. While a writer keeps publishing versioned payloads, an operator
//! session performs a full node-replacement rollout with nothing but
//! strong-CAS RMWs on the reserved membership key
//! (`RemoteSession::change_membership`):
//!
//! 1. **learner-join** — slot 3 is admitted as a non-voting learner
//!    (epoch 1). It receives only anti-entropy traffic and bulk-syncs the
//!    store while quorums stay majorities of the three founders.
//! 2. **promote** — once the learner has caught up, epoch 2 makes it a
//!    voter: releases now wait for its ack too.
//! 3. **retire** — epoch 3 removes founding voter 0; the live cluster is
//!    {1, 2, 3} and keeps serving without a blip.
//!
//! Each change is an ordinary per-key Paxos commit: every replica installs
//! it at its store-apply choke point, and every envelope carries its
//! sender's membership epoch so laggards are caught (and repaired) in one
//! round trip.
//!
//! Run: `cargo run --release --example config_rollout`

use std::time::{Duration, Instant};

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, Membership, NodeId, NodeSet, Val};
use kite_net::Cluster;

const PAYLOAD_KEYS: u64 = 64;

/// Poll until every listed node's membership epoch reaches `epoch`,
/// keeping traffic flowing so anti-entropy sweeps stay active.
fn wait_for_epoch(
    cluster: &Cluster,
    nodes: &[u8],
    epoch: u32,
    writer: &mut kite_net::RemoteSession,
) -> kite_common::Result<()> {
    let t0 = Instant::now();
    let mut i = 0u64;
    while !nodes.iter().all(|&n| cluster.shared(NodeId(n)).mepoch() >= epoch) {
        assert!(t0.elapsed() < Duration::from_secs(30), "epoch {epoch} never propagated");
        writer.write(Key(900 + i % 8), Val::from_u64(i + 1))?;
        i += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn main() -> kite_common::Result<()> {
    // Four slots, three founding voters; slot 3 is the standby that will
    // join. (Slot capacity is static — membership within it is not.)
    let cfg = ClusterConfig::small()
        .nodes(4)
        .keys(1 << 10)
        .initial_voters(NodeSet(0b0111));
    let bootstrap = Membership::bootstrap(&cfg);
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite)?;
    let mut writer = cluster.session(NodeId(1), 0)?;
    let mut operator = cluster.session(NodeId(2), 0)?;

    // Live traffic the whole way through: versioned payload + release.
    for k in 0..PAYLOAD_KEYS {
        writer.write(Key(k), Val::from_u64(1 << 32 | k))?;
    }
    writer.release(Key(100), Val::from_u64(1))?;
    println!("boot: membership {}", cluster.shared(NodeId(1)).membership.load());

    // -- 1. learner-join ---------------------------------------------------
    // The add-learner config change is a strong CAS against the current
    // value (empty before the first change → the bootstrap membership).
    let m1 = operator.change_membership(|| bootstrap, |cur| Some(cur.with_learner(NodeId(3))))?;
    assert_eq!(m1.epoch, 1, "join");
    wait_for_epoch(&cluster, &[0, 1, 2, 3], 1, &mut writer)?;
    println!("join: membership {}", cluster.shared(NodeId(3)).membership.load());

    // Learner bulk-sync: poll the learner's local store until the whole
    // payload arrived via anti-entropy (it gets no protocol rounds).
    let learner = cluster.shared(NodeId(3));
    let t0 = Instant::now();
    let mut i = 0u64;
    while !(0..PAYLOAD_KEYS).all(|k| learner.store.view(Key(k)).val.as_u64() == 1 << 32 | k) {
        assert!(t0.elapsed() < Duration::from_secs(30), "bulk-sync stalled");
        writer.write(Key(500), Val::from_u64(i + 1))?;
        i += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("sync: learner caught up ({PAYLOAD_KEYS} payload keys) — promoting");

    // -- 2. promote --------------------------------------------------------
    let m2 = operator.change_membership(|| bootstrap, |cur| Some(cur.with_promoted(NodeId(3))))?;
    assert_eq!(m2.epoch, 2, "promote");
    wait_for_epoch(&cluster, &[0, 1, 2, 3], 2, &mut writer)?;
    assert_eq!(cluster.shared(NodeId(1)).quorum(), 3, "majority of FOUR voters");
    // Releases wait for all four voters now — including the new one.
    writer.release(Key(101), Val::from_u64(2))?;
    println!("promote: membership {}", cluster.shared(NodeId(1)).membership.load());

    // -- 3. retire the old node -------------------------------------------
    let m3 = operator.change_membership(|| bootstrap, |cur| Some(cur.with_retired(NodeId(0))))?;
    assert_eq!(m3.epoch, 3, "retire");
    // Node 0 was a voter when the change committed, so it learns of its
    // own retirement through the commit itself.
    wait_for_epoch(&cluster, &[0, 1, 2, 3], 3, &mut writer)?;
    let live = cluster.shared(NodeId(1)).membership.load();
    assert_eq!(live.voters, NodeSet(0b1110));
    assert_eq!(cluster.shared(NodeId(1)).quorum(), 2, "majority of the three live voters");
    // The cluster serves on without the retiree in any barrier.
    for k in 0..PAYLOAD_KEYS {
        writer.write(Key(k), Val::from_u64(2 << 32 | k))?;
    }
    writer.release(Key(102), Val::from_u64(3))?;
    println!("retire: membership {live} — rollout complete, node 0 out of every quorum");

    drop(writer);
    drop(operator);
    cluster.shutdown();
    println!("done.");
    Ok(())
}
