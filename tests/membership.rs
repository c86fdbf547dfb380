//! Dynamic membership under live traffic: the config change rides the
//! per-key Paxos on the reserved membership key, every replica installs
//! it at the store-apply choke point, and quorum/voter reads are always
//! live — a round that spans a reconfiguration counts replies against
//! the *new* majority, never a cached one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kite::{NodeShared, ProtocolMode};
use kite_common::stats::ProtoCounters;
use kite_common::{
    ClusterConfig, Key, Lc, Membership, NodeId, NodeSet, Val, MEMBERSHIP_KEY,
};
use kite_net::{Cluster, RemoteSession};

/// The stale-cached-quorum regression. Workers used to copy
/// `cfg.quorum()` at construction; a config change mid-run then left
/// every in-flight round counting replies against the old majority. The
/// fix makes quorum/voters *methods* over the live membership cell —
/// this asserts a change that lands through the store choke point (the
/// same path a Paxos commit, an anti-entropy repair, or WAL replay
/// takes) is visible to the very next quorum read.
#[test]
fn quorum_tracks_live_membership_mid_reconfig() {
    let cfg = ClusterConfig::small().nodes(5);
    let shared = NodeShared::new(NodeId(0), cfg, Arc::new(ProtoCounters::default()));
    assert_eq!(shared.quorum(), 3, "bootstrap: majority of 5 voters");
    assert_eq!(shared.voters(), NodeSet::all(5));

    // Epoch 1: shrink to 3 voters + 2 learners, applied like a commit.
    let m = Membership { epoch: 1, voters: NodeSet(0b00111), learners: NodeSet(0b11000) };
    shared.store.apply_max(MEMBERSHIP_KEY, &m.to_val(), Lc::new(1, NodeId(1)));
    assert_eq!(shared.quorum(), 2, "quorum recomputed over the NEW voter set");
    assert_eq!(shared.voters(), NodeSet(0b00111));
    assert_eq!(shared.members(), NodeSet::all(5), "learners still receive anti-entropy");
    assert_eq!(shared.mepoch(), 1);
    assert_eq!(shared.counters.membership_installs.get(), 1);

    // A staler epoch arriving later (an out-of-date repair echo) may win
    // the store's Lc race, but the cell refuses to move backwards.
    let stale = Membership { epoch: 0, voters: NodeSet::all(5), learners: NodeSet::EMPTY };
    shared.store.apply_max(MEMBERSHIP_KEY, &stale.to_val(), Lc::new(9, NodeId(2)));
    assert_eq!(shared.mepoch(), 1, "membership epoch is monotone");
    assert_eq!(shared.quorum(), 2);
}

/// Poll until every replica's membership epoch reaches `epoch`, keeping
/// client traffic flowing so anti-entropy sweeps stay active (a learner
/// only hears about promotions through digests/repairs).
fn wait_for_epoch(cluster: &Cluster, n: usize, epoch: u32, s: &mut RemoteSession) {
    let t0 = Instant::now();
    let mut i = 0u64;
    while !(0..n).all(|id| cluster.shared(NodeId(id as u8)).mepoch() >= epoch) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "epoch {epoch} did not propagate: {:?}",
            (0..n).map(|id| cluster.shared(NodeId(id as u8)).mepoch()).collect::<Vec<_>>()
        );
        s.write(Key(900 + (i % 8)), Val::from_u64(i + 1)).unwrap();
        i += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A configuration change is an ordinary strong-CAS RMW: demote a voter
/// to learner, watch every replica (learner included) install the new
/// epoch, then promote it back and prove the wait-for-all release
/// barrier counts its ack again.
#[test]
fn config_change_rides_paxos_to_every_replica() {
    let cluster =
        Cluster::launch(ClusterConfig::small().keys(1 << 10), ProtocolMode::Kite).unwrap();
    let _wd = cluster.watchdog(Duration::from_secs(90));
    let mut s = cluster.session(NodeId(0), 0).unwrap();
    for id in 0..3 {
        assert_eq!(cluster.shared(NodeId(id)).mepoch(), 0, "boot epoch");
    }

    // Nothing stored under the reserved key before the first change.
    let cur = s.acquire(MEMBERSHIP_KEY).unwrap();
    assert!(Membership::from_val(&cur).is_none(), "pre-change key must be empty");

    // Epoch 1: demote replica 2 to a non-voting learner.
    let m0 = Membership { epoch: 0, voters: NodeSet::all(3), learners: NodeSet::EMPTY };
    let m1 = m0.with_learner(NodeId(2));
    let (ok, _) = s.cas_strong(MEMBERSHIP_KEY, cur, m1.to_val()).unwrap();
    assert!(ok, "first config change CASes against the empty value");
    wait_for_epoch(&cluster, 3, 1, &mut s);
    assert_eq!(cluster.shared(NodeId(0)).voters(), NodeSet(0b011));
    assert_eq!(cluster.shared(NodeId(0)).quorum(), 2, "majority of TWO voters");
    assert_eq!(cluster.shared(NodeId(2)).voters(), NodeSet(0b011), "learner knows it is one");

    // A racing CAS against the superseded value must lose cleanly.
    let (ok, observed) = s.cas_strong(MEMBERSHIP_KEY, m0.to_val(), m1.to_val()).unwrap();
    assert!(!ok, "stale-expect config change must fail");
    assert_eq!(Membership::from_val(&observed), Some(m1));

    // Epoch 2: promote it back. The commit only reaches the two voters;
    // the learner hears through anti-entropy, which the poll keeps alive.
    let cur = s.acquire(MEMBERSHIP_KEY).unwrap();
    let m2 = Membership::from_val(&cur).unwrap().with_promoted(NodeId(2));
    let (ok, _) = s.cas_strong(MEMBERSHIP_KEY, cur, m2.to_val()).unwrap();
    assert!(ok);
    wait_for_epoch(&cluster, 3, 2, &mut s);
    for id in 0..3 {
        let sh = cluster.shared(NodeId(id));
        assert_eq!(sh.voters(), NodeSet::all(3), "node {id} voters after promote");
        assert_eq!(sh.quorum(), 2);
    }
    // Releases wait for ALL voters again — completing proves node 2 is
    // back in the barrier set and acking.
    s.release(Key(7), Val::from_u64(1)).unwrap();
    cluster.shutdown();
}

/// A bootstrap learner receives no protocol rounds — releases complete
/// without its ack — yet its store converges through anti-entropy alone:
/// the bulk-sync path a `kite-node --join` replica takes.
#[test]
fn bootstrap_learner_converges_by_anti_entropy_alone() {
    const PAYLOAD: u64 = 32;
    let cfg = ClusterConfig::small().nodes(4).keys(1 << 10).initial_learners(NodeSet(0b1000));
    let cluster = Cluster::launch(cfg, ProtocolMode::Kite).unwrap();
    let _wd = cluster.watchdog(Duration::from_secs(90));
    for id in 0..4 {
        let sh = cluster.shared(NodeId(id));
        assert_eq!(sh.voters(), NodeSet(0b0111), "node {id}: 3 founding voters");
        assert_eq!(sh.quorum(), 2, "node {id}: quorum over voters only");
    }

    let mut w = cluster.session(NodeId(0), 0).unwrap();
    for i in 0..PAYLOAD {
        w.write(Key(i), Val::from_u64(i + 1)).unwrap();
    }
    // The barrier waits for voters only; with the learner never acking,
    // completion here IS the proof coverage checks exclude it.
    w.release(Key(99), Val::from_u64(1)).unwrap();

    let learner = cluster.shared(NodeId(3));
    let t0 = Instant::now();
    let mut i = 0u64;
    loop {
        if (0..PAYLOAD).all(|k| learner.store.view(Key(k)).val.as_u64() == k + 1) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "learner bulk-sync did not converge"
        );
        // Keep voters active so digest sweeps keep including the learner.
        w.write(Key(500), Val::from_u64(i + 1)).unwrap();
        i += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.shutdown();
}
