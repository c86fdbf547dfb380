//! Dynamic membership over real sockets: rolling restarts under
//! RC-checked load, node replacement by learner bulk-sync, and a peer that
//! comes up late at its boot address (the dial loop's backoff ladder keeps
//! dialing the `--peers` address until it answers).

use std::sync::Arc;
use std::time::{Duration, Instant};

use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, Membership, NodeId, NodeSet, Val};
use kite_net::{Cluster, LinkPhase, NodeConfig, NodeRuntime, RemoteSession};
use kite_verify::{check_rc, History, OpKind, OpRecord};

fn cfg() -> ClusterConfig {
    ClusterConfig::small()
        .keys(1 << 10)
        .sessions_per_worker(4)
        .release_timeout_ns(2_000_000)
        .anti_entropy_interval_ns(2_000_000)
        .anti_entropy_chunk(256)
        .anti_entropy_keepalive_ns(10_000_000)
}

fn wait_for(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Restart every node in turn — kill, rebind the same port, relaunch with
/// an empty store — while a client keeps a sustained mixed load running
/// against a surviving replica. Every op must complete (zero failed ops);
/// the recorded history must pass the RC(Lin) axioms; each restarted node
/// must re-converge before the next one goes down.
#[test]
fn rolling_restart_under_load_zero_failed_ops() {
    let cfg = cfg();
    let nodes = Cluster::launch(cfg.clone(), ProtocolMode::Kite).expect("launch").into_nodes();
    let peers: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let mut nodes: Vec<Option<NodeRuntime>> = nodes.into_iter().map(Some).collect();

    let history = Arc::new(History::new());
    let base = Instant::now();
    let mut uniq = 0u64;

    for round in 0..nodes.len() {
        let victim = round;
        let survivor = (round + 1) % nodes.len();

        // Fresh session per round (the victim of the previous round has
        // rebooted; sessions on a restarted node start unclaimed).
        let mut s = RemoteSession::connect(&peers[survivor], round as u32)
            .expect("connect survivor");
        let sid = s.id();
        let mut seq = 0u64;
        let mut record = |key: Key, kind: OpKind, t0: Instant, history: &History| {
            history.record(OpRecord {
                session: sid,
                session_seq: seq,
                key,
                kind,
                invoke: t0.duration_since(base).as_nanos() as u64,
                complete: Instant::now().duration_since(base).as_nanos() as u64,
            });
            seq += 1;
        };

        // Take the victim down mid-load.
        nodes[victim].take().expect("victim running").shutdown();

        // Sustained mixed load against the survivor: relaxed writes, a
        // release/acquire handoff, and a read-back — all while one
        // replica is dark. Any error fails the test: zero failed ops.
        for i in 0..40u64 {
            uniq += 1;
            let data = Key(100 + (i % 8));
            let flag = Key(200 + (i % 4));
            let t0 = Instant::now();
            s.write(data, uniq).unwrap_or_else(|e| panic!("round {round} write: {e}"));
            record(data, OpKind::Write { v: uniq }, t0, &history);
            uniq += 1;
            let t0 = Instant::now();
            s.release(flag, uniq).unwrap_or_else(|e| panic!("round {round} release: {e}"));
            record(flag, OpKind::Release { v: uniq }, t0, &history);
            let t0 = Instant::now();
            let got = s.acquire(flag).unwrap_or_else(|e| panic!("round {round} acquire: {e}"));
            record(flag, OpKind::Acquire { v: got.as_u64() }, t0, &history);
        }

        // Rebind the victim's port and bring it back with a fresh store.
        let reborn = NodeRuntime::launch(NodeConfig::new(
            cfg.clone(),
            ProtocolMode::Kite,
            NodeId(victim as u8),
            peers.clone(),
            kite_net::bind_reuseaddr(&peers[victim]).expect("rebind the node's port"),
        ))
        .expect("rebind same port after restart");

        // Converge before the next round: drop a sentinel through the
        // survivor and poll it on the reborn node's local store (relaxed
        // reads are local — the value can only arrive through repair).
        let sentinel = Key(300 + round as u64);
        uniq += 1;
        let want = uniq;
        s.release(sentinel, want).expect("sentinel release");
        let mut local = RemoteSession::connect(&peers[victim], 0).expect("session on reborn node");
        assert!(
            wait_for(Duration::from_secs(30), || local.read(sentinel).unwrap().as_u64() == want),
            "round {round}: reborn node never caught up; links: {}",
            reborn.describe()
        );
        nodes[victim] = Some(reborn);
    }

    assert_eq!(check_rc(&history), Ok(()), "rolling restart violated RC(Lin)");
    for n in nodes.into_iter().flatten() {
        n.shutdown();
    }
}

/// The e2e replacement story in-process: node 2 dies for good; a config
/// change demotes its slot to learner; a **fresh** node 2 (same address,
/// empty store) comes up, learns the real membership through the
/// stale-epoch repair path, bulk-syncs the whole store via anti-entropy,
/// and is then promoted back to voter — after which releases wait for its
/// ack again.
#[test]
fn replacement_node_joins_as_learner_and_bulk_syncs() {
    const FILL: u64 = 400;
    let cfg = cfg();
    let nodes = Cluster::launch(cfg.clone(), ProtocolMode::Kite).expect("launch").into_nodes();
    let peers: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let mut nodes: Vec<Option<NodeRuntime>> = nodes.into_iter().map(Some).collect();

    // Node 2 dies for good (its replacement will share nothing but the
    // slot and the address).
    nodes[2].take().expect("node 2 running").shutdown();

    // Demote the dead slot to learner — the same add-learner change
    // `kite-node --join` commits, here through a survivor's session. The
    // RMW commits on the {0,1} majority of the epoch-0 voter set.
    let mut ops = RemoteSession::connect(&peers[0], 0).expect("connect node 0");
    let bootstrap = Membership::bootstrap(&cfg);
    let m1 = ops
        .change_membership(
            || bootstrap,
            |cur| {
                assert_eq!(cur, bootstrap, "no change committed yet");
                Some(cur.with_learner(NodeId(2)))
            },
        )
        .expect("config change");
    assert_eq!(m1.epoch, 1, "add-learner change must land on the surviving majority");

    // Build a store worth bulk-syncing, quorum {0,1} — no node 2 in the
    // barrier set, so this runs at full speed.
    for i in 0..FILL {
        ops.write(Key(500 + i % 400), Val::from_u64(i + 1)).expect("fill write");
    }
    ops.release(Key(450), Val::from_u64(0xD0E)).expect("fill release");

    // The replacement: same slot, same port, empty store, bootstrap
    // (epoch 0) membership. Its first frames are dropped as stale by the
    // epoch gate; the repair answer teaches it the real config.
    let reborn = NodeRuntime::launch(NodeConfig::new(
        cfg,
        ProtocolMode::Kite,
        NodeId(2),
        peers.clone(),
        kite_net::bind_reuseaddr(&peers[2]).expect("rebind the node's port"),
    ))
    .expect("launch replacement");
    assert!(
        wait_for(Duration::from_secs(30), || reborn.shared().mepoch() == 1),
        "replacement never learned the live membership; links: {}",
        reborn.describe()
    );
    assert_eq!(reborn.shared().voters(), NodeSet(0b011));
    assert!(reborn.shared().members().contains(NodeId(2)), "it knows it is the learner");

    // Learner bulk-sync: the whole fill must arrive by anti-entropy.
    let mut local = RemoteSession::connect(&peers[2], 0).expect("session on replacement");
    assert!(
        wait_for(Duration::from_secs(60), || local.read(Key(450)).unwrap().as_u64() == 0xD0E),
        "replacement never bulk-synced; links: {}",
        reborn.describe()
    );

    // Promote it: epoch 2, three voters again.
    let m2 = ops
        .change_membership(
            || bootstrap,
            |cur| {
                assert_eq!(cur, m1, "the epoch-1 value");
                Some(cur.with_promoted(NodeId(2)))
            },
        )
        .expect("promote");
    assert_eq!(m2.epoch, 2);
    assert!(
        wait_for(Duration::from_secs(30), || reborn.shared().mepoch() == 2),
        "promotion never reached the learner"
    );
    assert_eq!(reborn.shared().voters(), NodeSet::all(3));
    // Releases wait for all three voters again; completing proves the
    // promoted replica acks protocol rounds.
    ops.release(Key(451), Val::from_u64(0xF1A6)).expect("release across promoted voter");

    reborn.shutdown();
    for n in nodes.into_iter().flatten() {
        n.shutdown();
    }
}

/// A peer that boots late: node 2's address is in every peer list from
/// the start, but nothing listens there yet, so node 0's dials are refused
/// and its link rows sit in backoff. Once node 2 launches at that address,
/// the next rung of the backoff ladder connects — the dial targets are
/// fixed at boot, and each attempt re-resolves the same string.
#[test]
fn reconnect_reaches_a_peer_that_boots_late() {
    let cfg = cfg();
    let listeners: Vec<std::net::TcpListener> =
        (0..2).map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    // Node 2's address: bind an ephemeral port, then free it, so dials to
    // it are refused until node 2 rebinds it.
    let late = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let mut addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect();
    addrs.push(late);

    let launch = |me: u8, listener: std::net::TcpListener| {
        let nc =
            NodeConfig::new(cfg.clone(), ProtocolMode::Kite, NodeId(me), addrs.clone(), listener);
        NodeRuntime::launch(nc).expect("launch node")
    };
    let mut listeners = listeners.into_iter();
    let n0 = launch(0, listeners.next().unwrap());
    let n1 = launch(1, listeners.next().unwrap());

    // Node 0's outbound link to peer 2 must end up in backoff (connection
    // refused on every dial), on every worker's link row.
    let workers = cfg.workers_per_node;
    assert!(
        wait_for(Duration::from_secs(10), || (0..workers)
            .all(|w| n0.links().link(NodeId(2), w).phase() == LinkPhase::Backoff)),
        "dials to an address nobody listens on must land in backoff: {}",
        n0.describe()
    );

    // Node 2 comes up at its boot address; the ladder connects.
    let n2 = launch(2, kite_net::bind_reuseaddr(&addrs[2]).expect("bind node 2's address"));
    assert!(
        wait_for(Duration::from_secs(10), || (0..workers)
            .all(|w| n0.links().link(NodeId(2), w).is_connected())),
        "the link to the late peer never connected: {}",
        n0.describe()
    );

    // End to end: a release from node 0 completes, and node 2 ends up
    // holding its value.
    let mut s = RemoteSession::connect(&addrs[0], 0).expect("session on node 0");
    s.release(Key(5), Val::from_u64(0xCAFE)).expect("release with the late peer up");
    let mut local = RemoteSession::connect(&addrs[2], 0).expect("session on node 2");
    assert!(
        wait_for(Duration::from_secs(10), || local.read(Key(5)).unwrap().as_u64() == 0xCAFE),
        "node 2 never saw the release: {}",
        n2.describe()
    );

    for n in [n0, n1, n2] {
        n.shutdown();
    }
}
